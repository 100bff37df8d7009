#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the program's libraries and
the benchmark program in Release into .bench_build/ (incrementally after the
first run), then runs one workload and prints its result: the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. Trace files and spill archives go to .bench_out/. Exits non-zero,
printing no result, when the program's sources are missing or the build or
the run fails.

--trace 1 runs the benchmark program once, for S seconds. --trace 0 splits
the S seconds into slices of about SLICE_S seconds and runs one process per
slice, one after the other, so that no more than two host threads ever run.
Each process makes one cold set-up (process start, guest or mesh
construction, the untimed warm-up session), times sessions for its slice
and checks its outputs. setup_s and verdict_s are the lowest over the
slices: a single cold set-up has the noise of one session, and the slices
spread the set-ups over the whole run as the timed sessions are spread.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("lulesh-racy-governed", "dense-mesh")
SLICE_S = 5
RUN_TIMEOUT_S = 150


def build():
    """Configures and builds the benchmark (a no-op once built); build
    chatter goes to stderr so that stdout carries only the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no program sources at %s/src" % ROOT)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", "3"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(BUILD, "e2e_bench")


def run(binary, workload, seed, seconds, trace):
    """Runs the benchmark program once and returns its result object."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("e2ebench: %s exited with %d" % (binary, proc.returncode))
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 150:
        parser.error("--seconds must be between 1 and 150")

    binary = build()
    if args.trace:
        print(json.dumps(run(binary, args.workload, args.seed, args.seconds, 1)))
        return
    slices = max(1, round(args.seconds / SLICE_S))
    results = [run(binary, args.workload, args.seed, args.seconds / slices, 0)
               for _ in range(slices)]
    metrics = results[0]["metrics"]
    for name in ("verdict_s", "setup_s"):
        metrics[name]["value"] = min(r["metrics"][name]["value"]
                                     for r in results)
    metrics["peak_mem_mib"]["value"] = statistics.median(
        r["metrics"]["peak_mem_mib"]["value"] for r in results)
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
