#include "explore/strategy.hpp"

#include <algorithm>
#include <bit>

#include "analytic/explorer.hpp"
#include "cache/sim.hpp"
#include "cache/stack.hpp"
#include "support/pool.hpp"
#include "support/timer.hpp"
#include "trace/strip.hpp"

namespace ces::explore {
namespace {

// trace::SignificantAddressBits without the strip: the unique lines differ
// from the first reference in exactly the bits some reference does.
std::uint32_t CappedMaxBits(const trace::Trace& trace,
                            std::uint32_t max_index_bits) {
  std::uint32_t differing = 0;
  for (std::uint32_t ref : trace.refs) differing |= ref ^ trace.refs.front();
  return std::min(max_index_bits,
                  static_cast<std::uint32_t>(std::bit_width(differing)));
}

// Runs `body(bits)` for every depth 2^0..2^max_bits, serially for jobs == 1
// and on a pool otherwise. Each depth writes result.points[bits] and its
// refs[bits] cost slot; summing refs in depth order afterwards makes the
// accounting independent of the worker count.
template <typename Body>
void ForEachDepth(std::uint32_t max_bits, std::uint32_t jobs,
                  StrategyResult& result, std::vector<std::uint64_t>& refs,
                  Body body) {
  const std::size_t levels = max_bits + 1;
  result.points.resize(levels);
  refs.assign(levels, 0);
  support::ThreadPool pool(jobs);
  pool.ParallelFor(levels,
                   [&](std::size_t bits) { body(static_cast<std::uint32_t>(bits)); });
  for (std::uint64_t r : refs) result.simulated_references += r;
}

}  // namespace

StrategyResult ExhaustiveSimulationStrategy::Explore(
    const trace::Trace& trace, std::uint64_t k, std::uint32_t max_index_bits,
    std::uint32_t jobs) const {
  Stopwatch watch;
  StrategyResult result;
  const std::uint32_t max_bits = CappedMaxBits(trace, max_index_bits);
  std::vector<std::uint64_t> refs;
  ForEachDepth(max_bits, jobs, result, refs, [&](std::uint32_t bits) {
    const std::uint32_t depth = 1u << bits;
    analytic::DesignPoint point;
    point.depth = depth;
    for (std::uint32_t assoc = 1;; ++assoc) {
      const std::uint64_t misses = cache::WarmMisses(trace, depth, assoc);
      refs[bits] += trace.size();
      if (misses <= k) {
        point.assoc = assoc;
        point.warm_misses = misses;
        break;
      }
    }
    result.points[bits] = point;
  });
  result.seconds = watch.ElapsedSeconds();
  return result;
}

StrategyResult IterativeSimulationStrategy::Explore(
    const trace::Trace& trace, std::uint64_t k, std::uint32_t max_index_bits,
    std::uint32_t jobs) const {
  Stopwatch watch;
  StrategyResult result;
  const std::uint32_t max_bits = CappedMaxBits(trace, max_index_bits);
  std::vector<std::uint64_t> refs;
  ForEachDepth(max_bits, jobs, result, refs, [&](std::uint32_t bits) {
    const std::uint32_t depth = 1u << bits;

    // Exponential probe to bracket a feasible associativity, then binary
    // search for the smallest one — each probe is one full simulation.
    std::uint32_t hi = 1;
    std::uint64_t hi_misses;
    for (;;) {
      hi_misses = cache::WarmMisses(trace, depth, hi);
      refs[bits] += trace.size();
      if (hi_misses <= k) break;
      hi *= 2;
    }
    std::uint32_t lo = hi / 2;  // infeasible (or 0 when hi == 1)
    std::uint32_t best = hi;
    std::uint64_t best_misses = hi_misses;
    while (lo + 1 < best) {
      const std::uint32_t mid = lo + (best - lo) / 2;
      const std::uint64_t misses = cache::WarmMisses(trace, depth, mid);
      refs[bits] += trace.size();
      if (misses <= k) {
        best = mid;
        best_misses = misses;
      } else {
        lo = mid;
      }
    }

    analytic::DesignPoint point;
    point.depth = depth;
    point.assoc = best;
    point.warm_misses = best_misses;
    result.points[bits] = point;
  });
  result.seconds = watch.ElapsedSeconds();
  return result;
}

StrategyResult OnePassStackStrategy::Explore(const trace::Trace& trace,
                                             std::uint64_t k,
                                             std::uint32_t max_index_bits,
                                             std::uint32_t jobs) const {
  Stopwatch watch;
  StrategyResult result;
  const trace::StrippedTrace stripped = trace::Strip(trace);
  const std::uint32_t max_bits =
      std::min(max_index_bits, trace::SignificantAddressBits(stripped));
  std::vector<std::uint64_t> refs;
  ForEachDepth(max_bits, jobs, result, refs, [&](std::uint32_t bits) {
    const cache::StackProfile profile =
        cache::ComputeStackProfile(stripped, bits);
    refs[bits] += trace.size();
    analytic::DesignPoint point;
    point.depth = profile.depth();
    point.assoc = profile.MinAssocFor(k);
    point.warm_misses = profile.MissesAtAssoc(point.assoc);
    result.points[bits] = point;
  });
  result.seconds = watch.ElapsedSeconds();
  return result;
}

StrategyResult AnalyticalStrategy::Explore(const trace::Trace& trace,
                                           std::uint64_t k,
                                           std::uint32_t max_index_bits,
                                           std::uint32_t jobs) const {
  Stopwatch watch;
  analytic::ExplorerOptions options;
  options.engine = use_reference_engine_ ? analytic::Engine::kReference
                                         : analytic::Engine::kFused;
  options.max_index_bits = max_index_bits;
  options.jobs = jobs;
  const analytic::ExplorationResult solved =
      analytic::Explore(trace, k, options);
  StrategyResult result;
  result.points = solved.points;
  result.seconds = watch.ElapsedSeconds();
  return result;
}

std::vector<std::unique_ptr<Strategy>> AllStrategies() {
  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<ExhaustiveSimulationStrategy>());
  strategies.push_back(std::make_unique<IterativeSimulationStrategy>());
  strategies.push_back(std::make_unique<OnePassStackStrategy>());
  strategies.push_back(std::make_unique<AnalyticalStrategy>());
  return strategies;
}

}  // namespace ces::explore
