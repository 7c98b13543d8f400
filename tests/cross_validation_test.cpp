// The central correctness property of the reproduction (DESIGN.md section 6):
// the analytical engines' miss counts are EXACT for LRU set-associative
// caches — |S n C| is the per-set stack distance — so for every trace shape,
// depth and associativity the prediction must equal the functional cache
// simulator's non-cold miss count, and the paper's Figure 1b "==" check
// must pass for every (D, A) the explorer returns.
#include <gtest/gtest.h>

#include <tuple>

#include "analytic/explorer.hpp"
#include "cache/sim.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace ces::analytic;
using ces::cache::WarmMisses;
using ces::trace::Trace;

struct TraceCase {
  const char* name;
  Trace trace;
};

std::vector<TraceCase> MakeCases() {
  std::vector<TraceCase> cases;
  cases.push_back({"paper", ces::trace::PaperExampleTrace()});
  cases.push_back({"loop", ces::trace::SequentialLoop(64, 40, 25)});
  cases.push_back({"stride-pow2", ces::trace::StridedSweep(0, 64, 12, 30)});
  cases.push_back({"stride-odd", ces::trace::StridedSweep(5, 17, 48, 12)});
  {
    ces::Rng rng(404);
    cases.push_back({"random", ces::trace::RandomWorkingSet(rng, 150, 6000)});
  }
  {
    ces::Rng rng(405);
    cases.push_back({"locality", ces::trace::LocalityMix(rng, 96, 900, 6000)});
  }
  {
    // Adversarial: two interleaved strides plus repeats.
    Trace trace;
    for (std::uint32_t i = 0; i < 300; ++i) {
      trace.refs.push_back((i * 8) & 0x1ff);
      trace.refs.push_back(((i * 24) + 3) & 0x3ff);
      trace.refs.push_back((i * 8) & 0x1ff);
    }
    cases.push_back({"interleaved", std::move(trace)});
  }
  return cases;
}

class CrossValidation
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossValidation, AnalyticalMissesEqualSimulatedMisses) {
  const auto [case_index, engine_index] = GetParam();
  const TraceCase test_case = MakeCases()[static_cast<std::size_t>(case_index)];
  ExplorerOptions options;
  options.engine = engine_index == 0 ? Engine::kFused : Engine::kReference;
  options.max_index_bits = 8;
  const Explorer explorer(test_case.trace, options);

  for (std::size_t level = 0; level < explorer.profiles().size(); ++level) {
    const auto& profile = explorer.profiles()[level];
    const std::uint32_t depth = profile.depth();
    const std::uint32_t a_zero = profile.ZeroMissAssoc();
    for (std::uint32_t assoc = 1; assoc <= a_zero + 1; ++assoc) {
      EXPECT_EQ(profile.MissesAtAssoc(assoc),
                WarmMisses(test_case.trace, depth, assoc))
          << test_case.name << " depth=" << depth << " assoc=" << assoc;
    }
  }
}

TEST_P(CrossValidation, Figure1bEqualityCheck) {
  const auto [case_index, engine_index] = GetParam();
  const TraceCase test_case = MakeCases()[static_cast<std::size_t>(case_index)];
  ExplorerOptions options;
  options.engine = engine_index == 0 ? Engine::kFused : Engine::kReference;
  options.max_index_bits = 8;
  const Explorer explorer(test_case.trace, options);

  const std::uint64_t max_misses = explorer.stats().max_misses;
  for (double fraction : {0.0, 0.05, 0.10, 0.15, 0.20, 0.5}) {
    const ExplorationResult result = explorer.SolveFraction(fraction);
    for (const DesignPoint& point : result.points) {
      // Simulating the returned instance must meet the budget...
      const std::uint64_t simulated =
          WarmMisses(test_case.trace, point.depth, point.assoc);
      EXPECT_LE(simulated, result.k)
          << test_case.name << " D=" << point.depth << " A=" << point.assoc;
      EXPECT_EQ(simulated, point.warm_misses);
      // ...and shaving one way must not (minimality), unless already A=1.
      if (point.assoc > 1) {
        EXPECT_GT(WarmMisses(test_case.trace, point.depth, point.assoc - 1),
                  result.k);
      }
    }
    (void)max_misses;
  }
}

// Differential pass across the two engines and the simulator: ~200 seeded
// random traces; for each, the reference and fused engines must return
// identical (D, A) sets, and the functional simulator must confirm every
// pair is feasible (warm misses <= K) and minimal (A-1 at the same depth
// busts the budget). A disagreement pinpoints the fused engine; a simulator
// failure indicts both at once.
TEST(DifferentialTest, ThreeEnginesAgreeAndSimulatorConfirms) {
  constexpr int kTraces = 200;
  for (int seed = 0; seed < kTraces; ++seed) {
    ces::Rng rng(9000 + static_cast<std::uint64_t>(seed));
    const std::uint32_t length =
        400 + static_cast<std::uint32_t>(rng.NextBounded(1600));
    Trace trace;
    switch (seed % 3) {
      case 0:
        trace = ces::trace::RandomWorkingSet(
            rng, 16 + static_cast<std::uint32_t>(rng.NextBounded(240)), length);
        break;
      case 1:
        trace = ces::trace::LocalityMix(
            rng, 16 + static_cast<std::uint32_t>(rng.NextBounded(112)),
            128 + static_cast<std::uint32_t>(rng.NextBounded(896)), length);
        break;
      default:
        trace = ces::trace::StridedSweep(
            static_cast<std::uint32_t>(rng.NextBounded(32)),
            1 + static_cast<std::uint32_t>(rng.NextBounded(96)),
            8 + static_cast<std::uint32_t>(rng.NextBounded(120)),
            1 + length / 128);
        break;
    }

    ExplorerOptions options;
    options.max_index_bits = 4 + static_cast<std::uint32_t>(seed % 3);
    options.engine = Engine::kReference;
    const Explorer reference(trace, options);
    options.engine = Engine::kFused;
    const Explorer fused(trace, options);

    // Budget: 0%..20% of the worst case, varied by seed.
    const std::uint64_t k =
        reference.stats().max_misses * static_cast<std::uint64_t>(seed % 5) /
        20;
    const ExplorationResult want = reference.Solve(k);
    const ExplorationResult got_fused = fused.Solve(k);
    ASSERT_EQ(want.points.size(), got_fused.points.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.points.size(); ++i) {
      EXPECT_EQ(want.points[i], got_fused.points[i])
          << "seed " << seed << " fused diverges at depth slot " << i;
    }

    for (const DesignPoint& point : want.points) {
      const std::uint64_t simulated =
          WarmMisses(trace, point.depth, point.assoc);
      EXPECT_EQ(simulated, point.warm_misses)
          << "seed " << seed << " D=" << point.depth << " A=" << point.assoc;
      EXPECT_LE(simulated, k)
          << "seed " << seed << " D=" << point.depth << " A=" << point.assoc;
      if (point.assoc > 1) {
        EXPECT_GT(WarmMisses(trace, point.depth, point.assoc - 1), k)
            << "seed " << seed << " D=" << point.depth
            << " A-1=" << point.assoc - 1 << " should bust the budget";
      }
    }
  }
}

// Line-size extension: exploring the re-blocked trace must predict a
// simulator configured with the same line size exactly.
TEST(LineSizeExtension, AnalyticalMatchesSimulatorAcrossLineSizes) {
  ces::Rng rng(515);
  const Trace trace = ces::trace::LocalityMix(rng, 80, 700, 5000);
  for (std::uint32_t line_words : {1u, 2u, 4u, 8u}) {
    ExplorerOptions options;
    options.line_words = line_words;
    options.max_index_bits = 6;
    const Explorer explorer(trace, options);
    for (std::size_t level = 0; level < explorer.profiles().size(); ++level) {
      const auto& profile = explorer.profiles()[level];
      for (std::uint32_t assoc : {1u, 2u, 4u}) {
        ces::cache::CacheConfig config;
        config.depth = profile.depth();
        config.assoc = assoc;
        config.line_words = line_words;
        EXPECT_EQ(profile.MissesAtAssoc(assoc),
                  ces::cache::SimulateTrace(trace, config).warm_misses())
            << "line " << line_words << " depth " << profile.depth()
            << " assoc " << assoc;
      }
    }
  }
}

// Wider lines trade conflict misses for fewer cold misses on sequential
// code; on a streaming trace the cold count must drop by the line factor.
TEST(LineSizeExtension, ColdMissesScaleWithLineSize) {
  const Trace trace = ces::trace::SequentialLoop(0, 256, 4);
  const Explorer one(trace, {.line_words = 1});
  const Explorer four(trace, {.line_words = 4});
  EXPECT_EQ(one.stats().n_unique, 256u);
  EXPECT_EQ(four.stats().n_unique, 64u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossValidation,
    ::testing::Combine(::testing::Range(0, 7), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      const int case_index = std::get<0>(info.param);
      const int engine_index = std::get<1>(info.param);
      std::string name = MakeCases()[static_cast<std::size_t>(case_index)].name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (engine_index == 0 ? "_fused" : "_reference");
    });

}  // namespace
