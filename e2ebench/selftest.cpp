// Self-test of the benchmark's output checks (checks.hpp): each check must
// accept the program's real output and reject every deliberately wrong
// input below. A check that no wrong input can trip proves nothing and is
// dropped from checks.cpp rather than kept.
//
//   .bench_build/e2e_selftest   (exit 0: every check behaved)
//
// Run from the root of a source checkout: the governed session's spill
// archive goes to .bench_out/ and is removed again when the session ends.
#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.hpp"
#include "core/dense_mesh.hpp"
#include "lulesh/lulesh.hpp"
#include "tools/session.hpp"

namespace tg::e2e {
namespace {

int g_failures = 0;

void expect(bool accept, const std::string& error, const char* what) {
  const bool ok = accept ? error.empty() : !error.empty();
  std::printf("%-4s %s %s%s\n", ok ? "ok" : "FAIL",
              accept ? "accepts" : "rejects", what,
              error.empty() ? "" : ("  [" + error + "]").c_str());
  if (!ok) ++g_failures;
}

tools::SessionResult run(const rt::GuestProgram& program,
                         tools::SessionOptions options, tools::ToolKind tool) {
  options.tool = tool;
  return tools::run_session(program, options);
}

void racy_checks() {
  lulesh::LuleshParams params;
  params.s = 6;
  params.tel = 8;
  params.tnl = 8;
  params.iters = 4;
  params.racy = true;
  const rt::GuestProgram program = lulesh::make_lulesh(params);
  tools::SessionOptions options;
  options.num_threads = 4;
  const auto unbounded = run(program, options, tools::ToolKind::kTaskgrind);
  const auto none = run(program, options, tools::ToolKind::kNone);
  const uint64_t ceiling = unbounded.analysis_stats.peak_tree_bytes / 2;
  options.taskgrind.max_tree_bytes = ceiling;
  options.taskgrind.spill_dir = ".bench_out";
  const auto session = run(program, options, tools::ToolKind::kTaskgrind);

  expect(true, check_racy(session, unbounded, none, ceiling),
         "the governed racy LULESH session");
  auto declared_clean = session;
  declared_clean.report_count = 0;
  declared_clean.report_keys.clear();
  expect(false, check_racy(declared_clean, unbounded, none, ceiling),
         "the racy program declared clean");
  auto wrong_site = session;
  wrong_site.report_keys.back().replace(0, 13, "lulesh.cc:231");
  expect(false, check_racy(wrong_site, unbounded, none, ceiling),
         "a finding on another line than the force array's");
  expect(false, check_racy(session, unbounded, none, ceiling / 2),
         "a tree peak above the ceiling");
  auto no_spill = session;
  no_spill.analysis_stats.segments_spilled = 0;
  expect(false, check_racy(no_spill, unbounded, none, ceiling),
         "a ceiling that spilled nothing");
  auto fewer = unbounded;
  --fewer.raw_report_count;
  expect(false, check_racy(session, fewer, none, ceiling),
         "findings unlike the unbounded run's");
  auto other_output = none;
  other_output.output.pop_back();
  expect(false, check_racy(session, unbounded, other_output, ceiling),
         "a guest output unlike the uninstrumented run's");
}

void mesh_checks() {
  core::DenseMeshSpec spec = core::DenseMeshSpec::for_segments(1'000);
  core::AnalysisOptions options;
  const core::DenseMeshRun run = core::run_dense_mesh(spec, options, true);

  expect(true, check_mesh(run.result, spec.lanes), "the dense-mesh run");
  expect(false, check_mesh(run.result, spec.lanes + 1),
         "a mesh with one lane fewer than assumed");
  auto same_lane = run.result;
  same_lane.reports.back().second.line = same_lane.reports.back().first.line;
  expect(false, check_mesh(same_lane, spec.lanes),
         "a finding pairing one lane with itself");
  auto duplicated = run.result;
  duplicated.reports.back() = duplicated.reports.front();
  expect(false, check_mesh(duplicated, spec.lanes),
         "a lane pair found twice and another missed");
  auto leaky = run.result;
  ++leaky.stats.pairs_never_generated;
  expect(false, check_mesh(leaky, spec.lanes),
         "a funnel that is not conserved");
  auto unbinned = run.result;
  ++unbinned.stats.pairs_total;
  --unbinned.stats.pairs_never_generated;
  expect(false, check_mesh(unbinned, spec.lanes),
         "funnel bins that do not sum to pairs_total");
  auto over_retired = run.result;
  over_retired.stats.segments_retired = over_retired.stats.segments_active + 1;
  expect(false, check_mesh(over_retired, spec.lanes),
         "more segments retired than active");
}

}  // namespace
}  // namespace tg::e2e

int main() {
  std::filesystem::create_directories(".bench_out");
  tg::e2e::racy_checks();
  tg::e2e::mesh_checks();
  std::printf("%s\n", tg::e2e::g_failures == 0 ? "self-test passed"
                                                : "self-test FAILED");
  return tg::e2e::g_failures == 0 ? 0 : 1;
}
