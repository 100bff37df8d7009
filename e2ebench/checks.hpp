// Output checks of the end-to-end benchmark. Each check compares what one
// session produced with facts computed apart from it (an uninstrumented
// run, an unbounded run, the dense mesh's known shape) and returns the first mismatch, or "" when the output holds.
// They are pure functions so that selftest.cpp can feed them wrong inputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/dense_mesh.hpp"
#include "tools/session.hpp"

namespace tg::e2e {

/// lulesh-racy-governed: at least one report, every dedup key names the
/// phase-B write and phase-C read of the force array, the tree peak stays
/// at or below `ceiling` and something spilled, the findings equal those of
/// `unbounded` (same seed, no ceiling) and the guest output equals
/// `uninstrumented`'s.
std::string check_racy(const tools::SessionResult& session,
                       const tools::SessionResult& unbounded,
                       const tools::SessionResult& uninstrumented,
                       uint64_t ceiling);

/// dense-mesh: exactly lanes*(lanes-1)/2 distinct findings, each pairing the
/// shared-word lines of two different lanes; the pair funnel is conserved
/// and no more segments retired than were active.
std::string check_mesh(const core::AnalysisResult& result, uint32_t lanes);

}  // namespace tg::e2e
