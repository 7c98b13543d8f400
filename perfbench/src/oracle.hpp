// The benchmark's oracle: answers recomputed from the per-depth Mattson
// profiles (cache::ComputeAllDepthProfiles), the path ROADMAP keeps as the
// reference, and joint fronts from an unpruned exploration. The oracle runs
// outside every timed span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "cache/stack.hpp"
#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "trace/strip.hpp"
#include "trace/trace.hpp"

namespace cesbench {

struct DepthProfiles {
  std::vector<ces::cache::StackProfile> profiles;
  ces::trace::TraceStats stats;
};

// Per-depth profiles for every depth the explorer explores by default.
DepthProfiles OracleProfiles(const ces::trace::Trace& trace,
                             std::uint32_t jobs);

// The design points Explorer::Solve(k) must return.
std::vector<ces::analytic::DesignPoint> OraclePoints(
    const DepthProfiles& oracle, std::uint64_t k);

// K for a miss-budget fraction, as Explorer::SolveFraction computes it.
std::uint64_t BudgetFor(const ces::trace::TraceStats& stats, double fraction);

// The paper's four solves (5/10/15/20%) of one trace.
std::vector<ces::analytic::ExplorationResult> OracleSolves(
    const ces::trace::Trace& trace, std::uint32_t jobs);

// Text of a set of solves, one "K=" header plus PointsToCsv each: the
// rendering big_synth ops produce and the oracle reproduces.
std::string RenderSolves(
    const std::vector<ces::analytic::ExplorationResult>& results);

// Tables 7-30 of one trace, as explore::BuildOptimalTable lays them out.
ces::explore::OptimalTable OracleTable(const std::string& benchmark,
                                       const std::string& kind,
                                       const ces::trace::Trace& trace,
                                       std::uint32_t jobs);

// The Pareto front of an unpruned joint exploration of the proportional
// interleave of a split trace pair.
std::vector<ces::explore::JointPoint> OracleJointFront(
    const ces::trace::Trace& instr, const ces::trace::Trace& data,
    const ces::explore::JointSpace& space, std::uint32_t jobs);

}  // namespace cesbench
