// Ablation micro-benchmarks (google-benchmark): the cost of each DSE engine
// on the same trace, isolating the design choices DESIGN.md calls out:
//   * fused DFS engine (section 2.4 implementation) vs the explicit
//     BCAT+MRCT reference engine (sections 2.2-2.3 as printed),
//   * analytical flow vs one-pass stack simulation vs full simulation,
//   * MRCT construction via the global-LRU-stack pass vs Algorithm 2 as
//     printed (quadratic),
//   * solve cost once the prelude is done (the all-K amortisation).
#include <benchmark/benchmark.h>

#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "analytic/mrct.hpp"
#include "cache/sim.hpp"
#include "cache/stack.hpp"
#include "explore/strategy.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

const ces::trace::Trace& BenchTrace() {
  static const ces::trace::Trace trace = [] {
    ces::Rng rng(31337);
    return ces::trace::LocalityMix(rng, 256, 2048, 60000);
  }();
  return trace;
}

const ces::trace::StrippedTrace& BenchStripped() {
  static const ces::trace::StrippedTrace stripped =
      ces::trace::Strip(BenchTrace());
  return stripped;
}

void BM_Prelude_FusedEngine(benchmark::State& state) {
  const auto& stripped = BenchStripped();
  const auto bits = ces::trace::SignificantAddressBits(stripped);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ces::analytic::ComputeMissProfilesFused(stripped, bits));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stripped.size()));
}
BENCHMARK(BM_Prelude_FusedEngine)->Unit(benchmark::kMillisecond);

void BM_Prelude_ReferenceEngine(benchmark::State& state) {
  const auto& trace = BenchTrace();
  for (auto _ : state) {
    const ces::analytic::Explorer explorer(
        trace, {.engine = ces::analytic::Engine::kReference});
    benchmark::DoNotOptimize(explorer.profiles().size());
  }
}
BENCHMARK(BM_Prelude_ReferenceEngine)->Unit(benchmark::kMillisecond);

void BM_SolveAfterPrelude(benchmark::State& state) {
  const ces::analytic::Explorer explorer(BenchTrace());
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.Solve(k).points.size());
    k = (k + 97) % 10000;  // vary the budget: all-K queries are free
  }
}
BENCHMARK(BM_SolveAfterPrelude);

void BM_OnePassStackAllDepths(benchmark::State& state) {
  const auto& stripped = BenchStripped();
  const auto bits = ces::trace::SignificantAddressBits(stripped);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ces::cache::ComputeAllDepthProfiles(stripped, bits));
  }
}
BENCHMARK(BM_OnePassStackAllDepths)->Unit(benchmark::kMillisecond);

void BM_ExhaustiveSimulation(benchmark::State& state) {
  const auto& trace = BenchTrace();
  const auto stats = ces::trace::ComputeStats(trace);
  const auto k = static_cast<std::uint64_t>(0.05 * stats.max_misses);
  const ces::explore::ExhaustiveSimulationStrategy strategy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Explore(trace, k, 10).points.size());
  }
}
BENCHMARK(BM_ExhaustiveSimulation)->Unit(benchmark::kMillisecond);

void BM_IterativeSimulation(benchmark::State& state) {
  const auto& trace = BenchTrace();
  const auto stats = ces::trace::ComputeStats(trace);
  const auto k = static_cast<std::uint64_t>(0.05 * stats.max_misses);
  const ces::explore::IterativeSimulationStrategy strategy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy.Explore(trace, k, 10).points.size());
  }
}
BENCHMARK(BM_IterativeSimulation)->Unit(benchmark::kMillisecond);

void BM_MrctStackBuild(benchmark::State& state) {
  // Smaller trace: the quadratic baseline below must finish in sane time.
  static const ces::trace::StrippedTrace stripped = [] {
    ces::Rng rng(99);
    return ces::trace::Strip(ces::trace::LocalityMix(rng, 64, 512, 8000));
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ces::analytic::Mrct::Build(stripped));
  }
}
BENCHMARK(BM_MrctStackBuild)->Unit(benchmark::kMillisecond);

void BM_MrctAlgorithm2AsPrinted(benchmark::State& state) {
  static const ces::trace::StrippedTrace stripped = [] {
    ces::Rng rng(99);
    return ces::trace::Strip(ces::trace::LocalityMix(rng, 64, 512, 8000));
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ces::analytic::Mrct::BuildNaive(stripped));
  }
}
BENCHMARK(BM_MrctAlgorithm2AsPrinted)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
