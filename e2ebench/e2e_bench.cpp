// End-to-end benchmark: time to verdict and peak memory of whole analysis
// sessions, one workload per process.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Run from the root of a source checkout; spill archives and trace files go
// to .bench_out/. Workloads (why each is here: README.md):
//   lulesh-racy-governed  the governor sweep's racy LULESH, 4 seeded guest
//                         threads, under a 256 KiB tree-byte ceiling.
//   dense-mesh            core::run_dense_mesh, ~10k segments, no guest VM.
//
// The process uses at most two host threads (the guest and one streaming
// analysis thread): guest threads are cooperative, analysis_threads is 1
// and no shard worker is forked.
//
// --trace 0 prints the end-to-end metrics. After one untimed warm-up
// session it runs whole sessions back to back for S seconds and reports the
// fastest: on a shared VM, contention only ever adds time, and the lowest
// of many short sessions is what repeats across processes (README.md,
// "Noise"). Every session's findings are compared with the warm-up's, and
// the warm-up is checked against facts computed apart from the program
// (checks.hpp) after the timed loop, so the references cost no set-up time.
// setup_s runs from the start of the process to the first timed session.
//
// --trace 1 runs rounds of legs for S seconds: an untraced session, the
// same session rebuilt from the layers' public calls with a span around
// each call, and the reference legs the per-layer split is derived from
// (no tool, a counting tool, post-mortem Taskgrind). It prints the
// per-layer metrics and writes the spans to .bench_out/trace-<workload>.json.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/dense_mesh.hpp"
#include "core/taskgrind.hpp"
#include "lulesh/lulesh.hpp"
#include "runtime/execution.hpp"
#include "support/accounting.hpp"
#include "support/json.hpp"
#include "tools/session.hpp"
#include "vex/tool.hpp"

namespace tg::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kOutDir = ".bench_out";

// Taken during static initialization, before main(): set-up is timed from
// the start of the process, not from the first line of the benchmark.
const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0;  // seconds since process start
  double end = 0;
  int parent = -1;   // index into Tracer::spans, -1 for a root
  uint32_t session = 0;
};

/// In-memory span recorder around the benchmark's own calls into the
/// layers. Written out once, at the end of the run.
class Tracer {
 public:
  void new_session() { ++session_; }
  int begin(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        {name, seconds_since(g_process_start), 0, parent, session_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  double end(int id) {
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = seconds_since(g_process_start);
    open_.pop_back();
    return span.end - span.start;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  uint32_t session_ = 0;
};

/// Runs `body` inside a span and returns its duration.
template <typename Body>
double span(Tracer& tracer, const char* name, Body&& body) {
  const int id = tracer.begin(name);
  body();
  return tracer.end(id);
}

// --- metrics -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Metrics {
 public:
  void add(std::string name, double value, const char* unit) {
    list_.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                     unit});
  }
  void count(std::string name, uint64_t value) {
    add(std::move(name), static_cast<double>(value), "count");
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Lowest value seen per leg quantity across the traced rounds.
class Lows {
 public:
  void see(const std::string& name, double value) {
    for (auto& [n, v] : lows_) {
      if (n == name) {
        v = std::min(v, value);
        return;
      }
    }
    lows_.emplace_back(name, value);
  }
  double operator[](const std::string& name) const {
    for (const auto& [n, v] : lows_) {
      if (n == name) return v;
    }
    return 0;
  }

 private:
  std::vector<std::pair<std::string, double>> lows_;
};

// Metric names of the MemCategory rows, in enum order.
constexpr const char* kMemNames[] = {
    "guest_memory", "segments",   "interval_trees", "shadow",
    "access_history", "runtime",  "translation",    "spill_meta",
    "fingerprints",  "trace",     "other"};
static_assert(std::size(kMemNames) == static_cast<size_t>(MemCategory::kCount));

using MemPeaks = std::array<int64_t, std::size(kMemNames)>;

MemPeaks memory_peaks() {
  MemPeaks peaks{};
  for (size_t i = 0; i < peaks.size(); ++i) {
    peaks[i] = MemAccountant::instance().category_peak(
        static_cast<MemCategory>(i));
  }
  return peaks;
}

void add_memory_peaks(Metrics& m, const MemPeaks& peaks) {
  for (size_t i = 0; i < peaks.size(); ++i) {
    m.count(std::string("mem.") + kMemNames[i] + "_peak_bytes",
            static_cast<uint64_t>(peaks[i]));
  }
}

/// The streaming engine's counters, named by the layer that produces them.
void add_analysis_counters(Metrics& m, const core::AnalysisStats& s,
                           double stream_s) {
  const uint64_t n = s.segments_active;
  const uint64_t screened =
      s.pairs_skipped_bbox + s.pairs_skipped_fingerprint + s.pairs_scanned;
  m.count("core.segments_active", n);
  m.add("core.streaming.per_close_us", 1e6 * ratio(stream_s, double(n)), "us");
  m.count("core.streaming.pairs_total", s.pairs_total);
  m.count("core.streaming.pairs_never_generated", s.pairs_never_generated);
  m.add("core.streaming.pairs_per_close", ratio(double(s.pairs_total), double(n)),
        "pairs");
  m.count("core.streaming.pairs_deferred", s.pairs_deferred);
  m.count("core.pair_batch.pairs_skipped_bbox", s.pairs_skipped_bbox);
  m.count("core.pair_batch.pairs_skipped_fingerprint",
          s.pairs_skipped_fingerprint);
  m.count("core.analysis.pairs_scanned", s.pairs_scanned);
  m.count("core.pair_batch.screen_base", screened);
  m.add("core.pair_batch.screen_kill_ratio",
        ratio(double(screened - s.pairs_scanned), double(screened)), "ratio");
  m.count("core.streaming.retire_sweeps", s.retire_sweeps);
  m.add("core.streaming.retire_visits_per_segment",
        ratio(double(s.retire_sweep_visits), double(n)), "visits");
  m.count("core.streaming.segments_retired", s.segments_retired);
  m.count("core.streaming.peak_live_segments", s.peak_live_segments);
  m.count("core.streaming.enqueue_stalls", s.enqueue_stalls);
  m.count("core.analysis.raw_conflicts", s.raw_conflicts);
  m.add("core.analysis.conflict_yield",
        ratio(double(s.raw_conflicts), double(s.pairs_scanned)), "ratio");
  m.count("core.suppress.suppressed_stack", s.suppressed_stack);
  m.count("core.suppress.suppressed_tls", s.suppressed_tls);
  m.count("core.spill.segments_spilled", s.segments_spilled);
  m.count("core.spill.spill_bytes_written", s.spill_bytes_written);
  m.count("core.spill.spill_reloads", s.spill_reloads);
  m.count("core.spill.spill_reloads_avoided", s.spill_reloads_avoided);
  m.count("core.interval_set.peak_tree_bytes", s.peak_tree_bytes);
  m.count("core.segment_graph.index_bytes", s.index_bytes);
  m.count("core.fingerprint.bytes", s.fingerprint_bytes);
}

// --- workloads -----------------------------------------------------------------

/// Requests loads and stores on the functions Taskgrind instruments (its
/// default ignore list honoured) and only counts them: the cost of the
/// VM's access callbacks without Taskgrind's access path behind them.
class CountingTool final : public vex::Tool {
 public:
  std::string_view name() const override { return "e2e-count"; }
  vex::InstrumentationSet instrumentation_for(
      const vex::Function& fn) override {
    for (const std::string& prefix : ignore_list_) {
      if (fn.name.rfind(prefix, 0) == 0) return vex::InstrumentationSet::none();
    }
    return vex::InstrumentationSet::accesses();
  }
  void on_load(vex::ThreadCtx&, vex::GuestAddr, uint32_t,
               vex::SrcLoc) override {
    ++events;
  }
  void on_store(vex::ThreadCtx&, vex::GuestAddr, uint32_t,
                vex::SrcLoc) override {
    ++events;
  }

  uint64_t events = 0;

 private:
  const std::vector<std::string> ignore_list_ =
      core::TaskgrindOptions{}.ignore_list;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Guest or mesh construction (part of set-up).
  virtual void build() = 0;
  /// One whole analysis session through the program's own entry point.
  /// Returns false when the session failed (status other than ok).
  virtual bool session() = 0;
  /// Keeps the last session as the reference the others must repeat.
  virtual void keep_as_first() = 0;
  /// "" when the last session's findings equal the first session's.
  virtual std::string repeat_error() const = 0;
  /// Runs the reference legs and checks the first session against them.
  virtual std::string check_first() = 0;
  /// Accounted peak memory of the last session.
  virtual int64_t peak_bytes() const = 0;
  /// One traced round: an untraced session, the session rebuilt from
  /// public calls with spans, and the reference legs. Leg times go to
  /// `lows`. Returns false when the untraced session failed.
  virtual bool traced_round(Tracer& tracer, Lows& lows) = 0;
  /// Per-layer metrics from the lows and the last traced round's counters.
  virtual void layer_metrics(const Lows& lows, Metrics& m) = 0;
};

class LuleshWorkload final : public Workload {
 public:
  LuleshWorkload(lulesh::LuleshParams params, tools::SessionOptions options)
      : params_(params), options_(std::move(options)) {}

  void build() override { program_ = lulesh::make_lulesh(params_); }

  bool session() override {
    last_ = tools::run_session(program_, options_);
    return last_.status == tools::SessionResult::Status::kOk;
  }
  void keep_as_first() override { first_ = last_; }
  std::string repeat_error() const override {
    if (last_.output != first_.output || last_.retired != first_.retired ||
        last_.report_keys != first_.report_keys ||
        last_.raw_report_count != first_.raw_report_count) {
      return "a session's output or findings differ from the first session's";
    }
    return "";
  }
  int64_t peak_bytes() const override { return last_.peak_bytes; }

  std::string check_first() override {
    tools::SessionOptions none = options_;
    none.tool = tools::ToolKind::kNone;
    const tools::SessionResult uninstrumented =
        tools::run_session(program_, none);
    tools::SessionOptions unbounded_options = options_;
    unbounded_options.taskgrind.max_tree_bytes = 0;
    const tools::SessionResult unbounded =
        tools::run_session(program_, unbounded_options);
    return check_racy(first_, unbounded, uninstrumented,
                      options_.taskgrind.max_tree_bytes);
  }

  bool traced_round(Tracer& tracer, Lows& lows) override {
    const Clock::time_point untraced_start = Clock::now();
    if (!session()) return false;
    lows.see("untraced_s", seconds_since(untraced_start));

    rt::RtOptions rt_options;
    rt_options.num_threads = options_.num_threads;
    rt_options.seed = options_.seed;
    rt_options.quantum = options_.quantum;
    rt_options.max_retired = options_.max_retired;

    // The session as run_session's Taskgrind engine runs it.
    tracer.new_session();
    lows.see("traced_s", span(tracer, "session", [&] {
               const vex::Program guest = build_guest(tracer);
               MemAccountant::instance().reset();
               std::unique_ptr<core::TaskgrindTool> tool;
               std::unique_ptr<rt::Execution> exec;
               span(tracer, "execution.construct", [&] {
                 tool = std::make_unique<core::TaskgrindTool>(
                     options_.taskgrind);
                 exec = std::make_unique<rt::Execution>(
                     guest, rt_options, tool.get(),
                     std::vector<rt::RtEvents*>{tool.get()});
                 tool->attach(exec->vm());
               });
               lows.see("stream_run_s", span(tracer, "execution.run", [&] {
                          exec_ = exec->run();
                        }));
               lows.see("finish_s", span(tracer, "analysis.finish", [&] {
                          analysis_ = tool->run_analysis();
                        }));
               access_events_ = tool->access_events();
               mem_ = memory_peaks();
             }));

    tracer.new_session();
    span(tracer, "leg.uninstrumented", [&] {
      const vex::Program guest = build_guest(tracer);
      rt::Execution exec(guest, rt_options, nullptr, {});
      lows.see("uninstrumented_s", span(tracer, "execution.run", [&] {
                 uninstrumented_retired_ = exec.run().retired;
               }));
      translations_ = exec.vm().translations();
    });

    tracer.new_session();
    span(tracer, "leg.counting", [&] {
      const vex::Program guest = build_guest(tracer);
      CountingTool counter;
      rt::Execution exec(guest, rt_options, &counter, {});
      lows.see("counting_s",
               span(tracer, "execution.run", [&] { exec.run(); }));
      counted_events_ = counter.events;
    });

    tracer.new_session();
    span(tracer, "leg.postmortem", [&] {
      const vex::Program guest = build_guest(tracer);
      core::TaskgrindOptions post_mortem = options_.taskgrind;
      post_mortem.streaming = false;
      post_mortem.max_tree_bytes = 0;
      core::TaskgrindTool tool(post_mortem);
      rt::Execution exec(guest, rt_options, &tool, {&tool});
      tool.attach(exec.vm());
      lows.see("postmortem_run_s",
               span(tracer, "execution.run", [&] { exec.run(); }));
      lows.see("postmortem_analysis_s",
               span(tracer, "analysis.postmortem",
                    [&] { tool.run_analysis(); }));
    });
    return true;
  }

  void layer_metrics(const Lows& lows, Metrics& m) override {
    const double uninstrumented = lows["uninstrumented_s"];
    const double inline_s = lows["stream_run_s"] - lows["postmortem_run_s"];
    m.add("vex.uninstrumented_s", uninstrumented, "s");
    m.add("vex.ns_per_instr",
          1e9 * ratio(uninstrumented, double(uninstrumented_retired_)), "ns");
    m.count("vex.guest_instrs", uninstrumented_retired_);
    m.count("vex.translations", translations_);
    m.add("vex.callback_s", lows["counting_s"] - uninstrumented, "s");
    m.count("vex.access_events", counted_events_);
    m.count("runtime.tasks_created", exec_.tasks_created);
    m.add("core.access_path_s", lows["postmortem_run_s"] - lows["counting_s"],
          "s");
    m.add("core.access_path_ns_per_event",
          1e9 * ratio(lows["postmortem_run_s"] - lows["counting_s"],
                      double(access_events_)),
          "ns");
    m.count("core.access_events", access_events_);
    m.add("core.streaming.inline_s", inline_s, "s");
    m.add("core.streaming.finish_s", lows["finish_s"], "s");
    m.add("core.analysis.postmortem_s", lows["postmortem_analysis_s"], "s");
    add_analysis_counters(m, analysis_.stats, inline_s + lows["finish_s"]);
    add_memory_peaks(m, mem_);
    m.add("tools.session.verdict_s", lows["untraced_s"], "s");
    m.add("tools.session.overhead_x", ratio(lows["untraced_s"], uninstrumented),
          "x");
  }

 private:
  vex::Program build_guest(Tracer& tracer) const {
    vex::Program guest;
    span(tracer, "guest.build", [&] { guest = program_.build(); });
    return guest;
  }

  lulesh::LuleshParams params_;
  tools::SessionOptions options_;
  rt::GuestProgram program_;
  tools::SessionResult first_, last_;
  // Counters of the last traced round.
  rt::ExecResult exec_;
  core::AnalysisResult analysis_;
  uint64_t access_events_ = 0;
  uint64_t uninstrumented_retired_ = 0;
  uint64_t translations_ = 0;
  uint64_t counted_events_ = 0;
  MemPeaks mem_{};
};

class MeshWorkload final : public Workload {
 public:
  void build() override {
    spec_ = core::DenseMeshSpec::for_segments(10'000);
    options_.threads = 1;
  }
  bool session() override {
    MemAccountant::instance().reset();
    last_ = core::run_dense_mesh(spec_, options_, /*streaming=*/true);
    peak_ = MemAccountant::instance().peak();
    return true;  // run_dense_mesh has no failure status
  }
  void keep_as_first() override { first_ = last_; }
  std::string repeat_error() const override {
    if (last_.identity != first_.identity ||
        last_.result.reports.size() != first_.result.reports.size()) {
      return "a session's findings differ from the first session's";
    }
    return "";
  }
  int64_t peak_bytes() const override { return peak_; }
  std::string check_first() override {
    return check_mesh(first_.result, spec_.lanes);
  }

  bool traced_round(Tracer& tracer, Lows& lows) override {
    const Clock::time_point untraced_start = Clock::now();
    if (!session()) return false;
    lows.see("untraced_s", seconds_since(untraced_start));

    tracer.new_session();
    lows.see("traced_s", span(tracer, "session", [&] {
               MemAccountant::instance().reset();
               span(tracer, "dense_mesh.run", [&] {
                 last_ = core::run_dense_mesh(spec_, options_, true);
               });
               mem_ = memory_peaks();
             }));
    return true;
  }

  void layer_metrics(const Lows& lows, Metrics& m) override {
    // No guest VM runs here: the interpreter and access-path rows are zero
    // by construction, and run_dense_mesh's build and finish phases are one
    // call, so the whole streaming session is the streaming cost. There is
    // no post-mortem leg: the post-mortem bbox sweep is quadratic on this
    // mesh by design (core/dense_mesh.hpp) and takes ~90 s at 10k segments.
    for (const char* name : {"vex.uninstrumented_s", "vex.callback_s",
                             "core.access_path_s", "core.streaming.inline_s",
                             "core.streaming.finish_s",
                             "core.analysis.postmortem_s"}) {
      m.add(name, 0.0, "s");
    }
    m.add("vex.ns_per_instr", 0.0, "ns");
    m.add("core.access_path_ns_per_event", 0.0, "ns");
    for (const char* name :
         {"vex.guest_instrs", "vex.translations", "vex.access_events",
          "runtime.tasks_created", "core.access_events"}) {
      m.count(name, 0);
    }
    add_analysis_counters(m, last_.result.stats, lows["untraced_s"]);
    add_memory_peaks(m, mem_);
    m.add("tools.session.verdict_s", lows["untraced_s"], "s");
    m.add("tools.session.overhead_x", 0.0, "x");
  }

 private:
  core::DenseMeshSpec spec_;
  core::AnalysisOptions options_;
  core::DenseMeshRun first_, last_;
  int64_t peak_ = 0;
  MemPeaks mem_{};
};

// --- main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::unique_ptr<Workload> make_workload(const Args& args) {
  tools::SessionOptions options;
  options.tool = tools::ToolKind::kTaskgrind;
  options.seed = args.seed;
  options.taskgrind.analysis_threads = 1;
  if (args.workload == "lulesh-racy-governed") {
    lulesh::LuleshParams params;
    params.s = 10;
    params.tel = 8;
    params.tnl = 8;
    params.iters = 8;
    params.racy = true;
    options.num_threads = 4;
    options.taskgrind.max_tree_bytes = 256u << 10;
    options.taskgrind.spill_dir = kOutDir;
    return std::make_unique<LuleshWorkload>(params, options);
  }
  if (args.workload == "dense-mesh") return std::make_unique<MeshWorkload>();
  return nullptr;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const Metrics& metrics) {
  JsonWriter json;
  json.begin_object();
  json.field("correct", correct);
  json.field("attempted", attempted);
  json.field("failed", failed);
  json.key("metrics").begin_object();
  for (const Metric& m : metrics.list()) {
    json.key(m.name).begin_object();
    json.field("value", m.value);
    json.field("unit", m.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
}

/// Self time of each span path (its duration minus its children's), summed
/// over the run's rounds, plus every span, as one JSON document.
bool write_trace(const std::string& path, const Tracer& tracer,
                 uint64_t rounds, const Metrics& metrics, double overhead_s) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end - spans[i].start;
    if (spans[i].parent >= 0) {
      self[static_cast<size_t>(spans[i].parent)] -=
          spans[i].end - spans[i].start;
    }
  }
  std::vector<std::pair<std::string, double>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name =
        (spans[i].parent >= 0
             ? spans[static_cast<size_t>(spans[i].parent)].name + "/"
             : std::string()) +
        spans[i].name;
    auto it = std::find_if(by_name.begin(), by_name.end(),
                           [&](const auto& row) { return row.first == name; });
    if (it == by_name.end()) {
      by_name.emplace_back(name, self[i]);
    } else {
      it->second += self[i];
    }
  }
  JsonWriter json;
  json.begin_object();
  json.field("schema", "taskgrind-e2e-trace-v1");
  json.field("rounds", rounds);
  json.field("tracing_overhead_s", overhead_s);
  json.key("self_seconds").begin_object();
  for (const auto& [name, seconds] : by_name) json.field(name, seconds);
  json.end_object();
  json.key("metrics").begin_object();
  for (const Metric& m : metrics.list()) json.field(m.name, m.value);
  json.end_object();
  json.key("spans").begin_array();
  for (const Span& s : spans) {
    json.begin_object();
    json.field("name", s.name);
    json.field("start", s.start);
    json.field("end", s.end);
    json.field("parent", static_cast<int64_t>(s.parent));
    json.field("session", static_cast<uint64_t>(s.session));
    json.end_object();
  }
  json.end_array();
  json.end_object();
  std::ofstream out(path);
  out << json.str() << "\n";
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload lulesh-racy-governed|dense-mesh "
               "--seed N --seconds S --trace 0|1\n");
  return 1;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> workload = make_workload(args);
  if (argc % 2 == 0 || workload == nullptr || !(args.seconds > 0)) {
    return usage();
  }

  std::error_code mkdir_error;
  std::filesystem::create_directories(kOutDir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "e2e_bench: cannot create %s\n", kOutDir);
    return 1;
  }

  workload->build();
  bool correct = true;
  uint64_t attempted = 1;
  uint64_t failed = 0;
  std::string error;
  // Untimed warm-up: fills the translation and allocator caches and becomes
  // the reference every timed session must repeat.
  if (!workload->session()) ++failed;
  workload->keep_as_first();
  const double setup_s = seconds_since(g_process_start);

  Metrics metrics;
  const Clock::time_point loop_start = Clock::now();
  if (!args.trace) {
    std::vector<double> verdicts;
    std::vector<int64_t> peaks;
    while (seconds_since(loop_start) < args.seconds) {
      const Clock::time_point start = Clock::now();
      const bool ok = workload->session();
      const double elapsed = seconds_since(start);
      ++attempted;
      if (!ok) {
        ++failed;
        continue;
      }
      verdicts.push_back(elapsed);
      peaks.push_back(workload->peak_bytes());
      if (error.empty()) error = workload->repeat_error();
    }
    if (error.empty()) error = workload->check_first();
    if (verdicts.empty()) {
      std::fprintf(stderr, "e2e_bench: no session completed\n");
      return 1;
    }
    std::sort(peaks.begin(), peaks.end());
    metrics.add("verdict_s", *std::min_element(verdicts.begin(), verdicts.end()),
                "s");
    metrics.add("peak_mem_mib",
                static_cast<double>(peaks[peaks.size() / 2]) / (1 << 20), "MiB");
    metrics.add("setup_s", setup_s, "s");
  } else {
    Tracer tracer;
    Lows lows;
    uint64_t rounds = 0;
    while (rounds == 0 || seconds_since(loop_start) < args.seconds) {
      ++rounds;
      ++attempted;
      if (!workload->traced_round(tracer, lows)) {
        ++failed;
      } else if (error.empty()) {
        error = workload->repeat_error();
      }
    }
    if (error.empty()) error = workload->check_first();
    workload->layer_metrics(lows, metrics);
    const double overhead_s = lows["traced_s"] - lows["untraced_s"];
    metrics.add("trace.overhead_s", overhead_s, "s");
    const std::string path =
        std::string(kOutDir) + "/trace-" + args.workload + ".json";
    if (!write_trace(path, tracer, rounds, metrics, overhead_s)) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  if (!error.empty()) {
    correct = false;
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", error.c_str());
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace tg::e2e

int main(int argc, char** argv) { return tg::e2e::run(argc, argv); }
