#include "oracle.hpp"

#include <algorithm>
#include <cmath>

#include "support/pool.hpp"

namespace cesbench {

namespace analytic = ces::analytic;
namespace explore = ces::explore;
namespace trace = ces::trace;

DepthProfiles OracleProfiles(const trace::Trace& input, std::uint32_t jobs) {
  const trace::StrippedTrace stripped = trace::Strip(input);
  const std::uint32_t bits = std::min(analytic::ExplorerOptions{}.max_index_bits,
                                      trace::SignificantAddressBits(stripped));
  ces::support::ThreadPool pool(jobs);
  DepthProfiles oracle;
  oracle.profiles = ces::cache::ComputeAllDepthProfiles(stripped, bits, &pool);
  oracle.stats = trace::ComputeStats(stripped);
  return oracle;
}

std::vector<analytic::DesignPoint> OraclePoints(const DepthProfiles& oracle,
                                                std::uint64_t k) {
  std::vector<analytic::DesignPoint> points;
  for (const ces::cache::StackProfile& profile : oracle.profiles) {
    analytic::DesignPoint point;
    point.depth = profile.depth();
    point.assoc = profile.MinAssocFor(k);
    point.warm_misses = profile.MissesAtAssoc(point.assoc);
    points.push_back(point);
  }
  return points;
}

std::uint64_t BudgetFor(const trace::TraceStats& stats, double fraction) {
  return static_cast<std::uint64_t>(
      std::floor(fraction * static_cast<double>(stats.max_misses)));
}

std::vector<analytic::ExplorationResult> OracleSolves(const trace::Trace& input,
                                                      std::uint32_t jobs) {
  const DepthProfiles oracle = OracleProfiles(input, jobs);
  std::vector<analytic::ExplorationResult> results;
  for (double fraction : explore::kPaperFractions) {
    analytic::ExplorationResult result;
    result.k = BudgetFor(oracle.stats, fraction);
    result.points = OraclePoints(oracle, result.k);
    results.push_back(std::move(result));
  }
  return results;
}

std::string RenderSolves(
    const std::vector<analytic::ExplorationResult>& results) {
  std::string text;
  for (const analytic::ExplorationResult& result : results) {
    text += "K=" + std::to_string(result.k) + "\n";
    text += explore::PointsToCsv(result.points);
  }
  return text;
}

explore::OptimalTable OracleTable(const std::string& benchmark,
                                  const std::string& kind,
                                  const trace::Trace& input,
                                  std::uint32_t jobs) {
  const DepthProfiles oracle = OracleProfiles(input, jobs);
  explore::OptimalTable table;
  table.benchmark = benchmark;
  table.kind = kind;
  table.fractions.assign(std::begin(explore::kPaperFractions),
                         std::end(explore::kPaperFractions));
  for (const ces::cache::StackProfile& profile : oracle.profiles) {
    table.depths.push_back(profile.depth());
  }
  table.assoc.assign(table.depths.size(), {});
  for (double fraction : table.fractions) {
    const std::uint64_t k = BudgetFor(oracle.stats, fraction);
    table.budgets.push_back(k);
    for (std::size_t row = 0; row < oracle.profiles.size(); ++row) {
      table.assoc[row].push_back(oracle.profiles[row].MinAssocFor(k));
    }
  }
  return table;
}

std::vector<explore::JointPoint> OracleJointFront(
    const trace::Trace& instr, const trace::Trace& data,
    const explore::JointSpace& space, std::uint32_t jobs) {
  explore::JointOptions options;
  options.prune = false;
  options.jobs = jobs;
  return explore::ExploreJoint(explore::InterleaveProportional(instr, data),
                               space, options)
      .front;
}

}  // namespace cesbench
