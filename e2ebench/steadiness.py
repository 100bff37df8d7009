#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs 10] [--seconds S] [--workloads W ...]

Runs two sets of runs of the same code, one after the other. Within a set
the workloads alternate, and every run has its own seed (set A seeds
1001.., set B 2001..). For each workload and end-to-end metric it prints
each set's median and quartiles (statistics.quantiles(n=4)) and judges them
against the bounds in BENCHMARK.json:

  spread  (Q3 - Q1) / median of each set; must stay within the bound,
  shift   how far set B's median lies from set A's, either way; must stay
          within the bound,

and checks that the share of failed sessions is the same in both sets.
Run from the root of a source checkout. The table also goes to
.bench_out/steadiness.txt and the raw results to .bench_out/steadiness.jsonl.
Exits 1 when a bound is broken or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=900)
    if proc.returncode != 0:
        sys.exit("steadiness: %s seed %d failed" % (workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args()

    os.makedirs(OUT, exist_ok=True)
    results = {}  # (set, workload) -> [result]
    with open(os.path.join(OUT, "steadiness.jsonl"), "w") as raw:
        for side, base in (("A", 1000), ("B", 2000)):
            for i in range(args.runs):
                for workload in args.workloads:
                    seed = base + 1 + i
                    result = run_once(workload, seed, args.seconds)
                    results.setdefault((side, workload), []).append(result)
                    raw.write(json.dumps({"set": side, "workload": workload,
                                          "seed": seed,
                                          "result": result}) + "\n")
                    raw.flush()
                    print("set %s run %d %s done" % (side, i + 1, workload),
                          file=sys.stderr)

    lines = ["%d runs per set and workload, %d s each" %
             (args.runs, args.seconds),
             "%-21s %-13s %-28s %-28s %7s %6s %s" %
             ("workload", "metric", "set A median [Q1, Q3] spread",
              "set B median [Q1, Q3] spread", "shift", "bound", "verdict")]
    ok = True
    for workload in args.workloads:
        a_runs = results[("A", workload)]
        b_runs = results[("B", workload)]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary([r["metrics"][name]["value"] for r in a_runs])
            b = summary([r["metrics"][name]["value"] for r in b_runs])
            shift = (b[0] - a[0]) / a[0]
            good = abs(shift) <= bound and a[3] <= bound and b[3] <= bound
            ok = ok and good
            lines.append(
                "%-21s %-13s %-28s %-28s %+6.1f%% %5.0f%% %s" %
                (workload, name,
                 "%.4g [%.4g, %.4g] %.1f%%" % (a[0], a[1], a[2], 100 * a[3]),
                 "%.4g [%.4g, %.4g] %.1f%%" % (b[0], b[1], b[2], 100 * b[3]),
                 100 * shift, 100 * bound, "ok" if good else "BROKEN"))
        shares = []
        for runs in (a_runs, b_runs):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            shares.append(failed / attempted)
            ok = ok and all(r["correct"] for r in runs)
        ok = ok and shares[0] == shares[1]
        lines.append("%-21s failed share A %.4f, B %.4f; all correct: %s" %
                     (workload, shares[0], shares[1],
                      all(r["correct"] for r in a_runs + b_runs)))
    lines.append("steady" if ok else "NOT STEADY")
    text = "\n".join(lines)
    print(text)
    with open(os.path.join(OUT, "steadiness.txt"), "w") as f:
        f.write(text + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
