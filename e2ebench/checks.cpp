#include "checks.hpp"

#include <cstring>
#include <set>
#include <utility>

#include "core/report.hpp"

namespace tg::e2e {

namespace {

// The racy LULESH's only finding site: phase B accumulates the force array
// (lulesh.cc:230) while phase C, its dependence removed, reads it (:300).
constexpr const char* kForceRaceKey = "lulesh.cc:230|lulesh.cc:300|";
// core/dense_mesh.cpp writes lane k's shared word from dense-mesh.c:200+k.
constexpr uint32_t kMeshRaceLine = 200;

std::string status_error(const tools::SessionResult& session) {
  if (session.status == tools::SessionResult::Status::kOk) return "";
  return "session status " + std::to_string(static_cast<int>(session.status)) +
         (session.error.empty() ? "" : ": " + session.error);
}

}  // namespace

std::string check_racy(const tools::SessionResult& session,
                       const tools::SessionResult& unbounded,
                       const tools::SessionResult& uninstrumented,
                       uint64_t ceiling) {
  if (std::string error = status_error(session); !error.empty()) return error;
  if (session.report_count == 0) return "racy program reported no finding";
  for (const std::string& key : session.report_keys) {
    if (key.rfind(kForceRaceKey, 0) != 0) return "unexpected finding " + key;
  }
  const core::AnalysisStats& stats = session.analysis_stats;
  if (stats.peak_tree_bytes > ceiling) {
    return "tree peak " + std::to_string(stats.peak_tree_bytes) +
           " above the ceiling " + std::to_string(ceiling);
  }
  if (stats.segments_spilled == 0) return "the ceiling spilled nothing";
  if (session.report_keys != unbounded.report_keys ||
      session.raw_report_count != unbounded.raw_report_count) {
    return "findings differ from the unbounded run";
  }
  if (session.output != uninstrumented.output) {
    return "guest output differs from the uninstrumented run";
  }
  return "";
}

std::string check_mesh(const core::AnalysisResult& result, uint32_t lanes) {
  const uint64_t lane_pairs = uint64_t{lanes} * (lanes - 1) / 2;
  std::set<std::string> keys;
  std::set<std::pair<uint32_t, uint32_t>> line_pairs;
  auto shared_word = [&](const core::RaceEndpoint& end) {
    return std::strcmp(end.file, "dense-mesh.c") == 0 &&
           end.line >= kMeshRaceLine && end.line < kMeshRaceLine + lanes;
  };
  for (const core::RaceReport& report : result.reports) {
    keys.insert(core::report_dedup_key(report));
    const uint32_t a = report.first.line;
    const uint32_t b = report.second.line;
    if (!shared_word(report.first) || !shared_word(report.second) || a == b) {
      return "unexpected finding " + core::report_dedup_key(report);
    }
    line_pairs.insert(std::minmax(a, b));
  }
  if (keys.size() != lane_pairs || line_pairs.size() != lane_pairs) {
    return std::to_string(keys.size()) + " distinct findings over " +
           std::to_string(line_pairs.size()) + " lane pairs, expected " +
           std::to_string(lane_pairs);
  }
  const core::AnalysisStats& s = result.stats;
  const uint64_t n = s.segments_active;
  if (s.pairs_never_generated + s.pairs_total != n * (n - 1) / 2) {
    return "funnel not conserved: never_generated + total != n(n-1)/2";
  }
  if (s.pairs_region_fast + s.pairs_ordered + s.pairs_mutex +
          s.pairs_skipped_bbox + s.pairs_skipped_fingerprint +
          s.pairs_scanned !=
      s.pairs_total) {
    return "the six funnel bins do not sum to pairs_total";
  }
  if (s.segments_retired > n) {
    return "retired " + std::to_string(s.segments_retired) + " of " +
           std::to_string(n) + " active segments";
  }
  return "";
}

}  // namespace tg::e2e
