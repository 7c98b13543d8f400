// Unit tests of the analytical engine's pieces (zero/one sets, BCAT, MRCT,
// postlude, fused engine, explorer facade) beyond the paper's example.
#include <gtest/gtest.h>

#include "analytic/bcat.hpp"
#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "analytic/mrct.hpp"
#include "analytic/postlude.hpp"
#include "analytic/zeroone.hpp"
#include "cache/stack.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace ces::analytic;
using ces::trace::Strip;
using ces::trace::StrippedTrace;
using ces::trace::Trace;

Trace FromRefs(std::vector<std::uint32_t> refs) {
  Trace trace;
  trace.refs = std::move(refs);
  return trace;
}

TEST(ZeroOne, PartitionIsComplete) {
  ces::Rng rng(17);
  const StrippedTrace stripped =
      Strip(ces::trace::RandomWorkingSet(rng, 60, 500));
  const ZeroOneSets sets = BuildZeroOneSets(stripped, 8);
  for (std::uint32_t bit = 0; bit < 8; ++bit) {
    // Every id is in exactly one of (Z_i, O_i).
    EXPECT_EQ(sets.zero[bit].Count() + sets.one[bit].Count(),
              stripped.unique_count());
    EXPECT_EQ(ces::DynamicBitset::IntersectionSize(sets.zero[bit],
                                                   sets.one[bit]),
              0u);
    // Membership follows the address bit.
    for (std::uint32_t id = 0; id < stripped.unique_count(); ++id) {
      const bool bit_set = (stripped.unique[id] >> bit) & 1u;
      EXPECT_EQ(sets.one[bit].Test(id), bit_set);
      EXPECT_EQ(sets.zero[bit].Test(id), !bit_set);
    }
  }
}

TEST(BcatTest, LevelSetsPartitionByLowBits) {
  ces::Rng rng(23);
  const StrippedTrace stripped =
      Strip(ces::trace::RandomWorkingSet(rng, 40, 400));
  const ZeroOneSets sets = BuildZeroOneSets(stripped, 6);
  const Bcat bcat = Bcat::Build(sets, stripped.unique_count(), 6);
  for (std::uint32_t level = 0; level < bcat.level_count(); ++level) {
    for (std::int32_t index : bcat.LevelNodes(level)) {
      const Bcat::Node& node = bcat.node(index);
      EXPECT_EQ(node.level, level);
      const std::uint32_t mask = level == 0 ? 0 : (1u << level) - 1;
      node.refs.ForEachSetBit([&](std::size_t id) {
        EXPECT_EQ(stripped.unique[id] & mask, node.path & mask);
      });
    }
  }
}

TEST(BcatTest, PrunesSingletonNodes) {
  // Two references differing at bit 0: one split, then no more growth.
  const StrippedTrace stripped = Strip(FromRefs({0, 1, 0, 1}));
  const ZeroOneSets sets = BuildZeroOneSets(stripped, 4);
  const Bcat bcat = Bcat::Build(sets, stripped.unique_count(), 4);
  EXPECT_EQ(bcat.level_count(), 2u);  // root + one split level
  EXPECT_EQ(bcat.node_count(), 3u);
  EXPECT_EQ(bcat.MaxCardinalityAtLevel(1), 1u);
}

TEST(BcatTest, SingleReferenceTraceHasOnlyRoot) {
  const StrippedTrace stripped = Strip(FromRefs({9, 9, 9}));
  const ZeroOneSets sets = BuildZeroOneSets(stripped, 4);
  const Bcat bcat = Bcat::Build(sets, stripped.unique_count(), 4);
  EXPECT_EQ(bcat.node_count(), 1u);
  EXPECT_EQ(bcat.MaxCardinalityAtLevel(0), 1u);
}

TEST(MrctTest, ConflictSetsAreDistinctIntervening) {
  // a b b c a : conflict set of a's 2nd occurrence is {b, c} (b counted once).
  const StrippedTrace stripped = Strip(FromRefs({10, 11, 11, 12, 10}));
  const Mrct mrct = Mrct::Build(stripped);
  ASSERT_EQ(mrct.ConflictsOf(0).size(), 1u);
  EXPECT_EQ(mrct.ConflictsOf(0)[0], (std::vector<std::uint32_t>{1, 2}));
  // b's 2nd occurrence is back-to-back: empty conflict set.
  ASSERT_EQ(mrct.ConflictsOf(1).size(), 1u);
  EXPECT_TRUE(mrct.ConflictsOf(1)[0].empty());
  EXPECT_EQ(mrct.set_count(), 2u);
  EXPECT_EQ(mrct.entry_count(), 2u);
}

TEST(MrctTest, StackBuildMatchesAlgorithm2OnManyTraces) {
  for (int seed = 0; seed < 8; ++seed) {
    ces::Rng rng(static_cast<std::uint64_t>(seed));
    const Trace trace = ces::trace::LocalityMix(rng, 24, 96, 600);
    const StrippedTrace stripped = Strip(trace);
    EXPECT_EQ(Mrct::Build(stripped), Mrct::BuildNaive(stripped)) << seed;
  }
}

TEST(MrctTest, SetCountEqualsWarmOccurrences) {
  ces::Rng rng(31);
  const StrippedTrace stripped =
      Strip(ces::trace::RandomWorkingSet(rng, 50, 2000));
  EXPECT_EQ(Mrct::Build(stripped).set_count(), stripped.warm_count());
}

TEST(FusedEngine, MatchesReferenceEngineProfiles) {
  for (int seed = 0; seed < 6; ++seed) {
    ces::Rng rng(77 + static_cast<std::uint64_t>(seed));
    const Trace trace = ces::trace::LocalityMix(rng, 32, 256, 1500);
    const StrippedTrace stripped = Strip(trace);
    const std::uint32_t max_bits =
        ces::trace::SignificantAddressBits(stripped);

    const ZeroOneSets sets = BuildZeroOneSets(stripped, max_bits);
    const Bcat bcat = Bcat::Build(sets, stripped.unique_count(), max_bits);
    const Mrct mrct = Mrct::Build(stripped);
    const auto reference =
        ComputeMissProfiles(bcat, mrct, stripped.warm_count(),
                            stripped.unique_count(), max_bits);
    const auto fused = ComputeMissProfilesFused(stripped, max_bits);
    ASSERT_EQ(reference.size(), fused.size());
    for (std::size_t level = 0; level < reference.size(); ++level) {
      EXPECT_EQ(reference[level].hist, fused[level].hist)
          << "seed " << seed << " level " << level;
      EXPECT_EQ(reference[level].cold, fused[level].cold);
    }
  }
}

TEST(ExplorerTest, AllThreeEnginesAgree) {
  ces::Rng rng(777);
  const Trace trace = ces::trace::RandomWorkingSet(rng, 70, 2000);
  const Explorer fused(trace, {.engine = Engine::kFused});
  const Explorer reference(trace, {.engine = Engine::kReference});
  for (std::uint64_t k : {0ull, 9ull, 77ull}) {
    EXPECT_EQ(fused.Solve(k).points, reference.Solve(k).points) << k;
  }
}

TEST(FusedEngine, MatchesMattsonPerDepth) {
  ces::Rng rng(123);
  const Trace trace = ces::trace::RandomWorkingSet(rng, 90, 3000);
  const StrippedTrace stripped = Strip(trace);
  const auto fused = ComputeMissProfilesFused(stripped, 7);
  for (std::uint32_t bits = 0; bits <= 7; ++bits) {
    EXPECT_EQ(fused[bits].hist,
              ces::cache::ComputeStackProfile(stripped, bits).hist)
        << bits;
  }
}

TEST(ExplorerTest, CapsDepthAtSignificantBits) {
  // Working set of 8 consecutive addresses: only 3 index bits matter.
  const Trace trace = ces::trace::SequentialLoop(0, 8, 5);
  const Explorer explorer(trace, {.max_index_bits = 20});
  EXPECT_EQ(explorer.max_index_bits(), 3u);
  EXPECT_EQ(explorer.profiles().size(), 4u);  // depths 1, 2, 4, 8
}

TEST(ExplorerTest, PointsAreMinimalAndFeasible) {
  ces::Rng rng(55);
  const Trace trace = ces::trace::LocalityMix(rng, 64, 200, 3000);
  const Explorer explorer(trace);
  for (double fraction : {0.05, 0.10, 0.15, 0.20}) {
    const ExplorationResult result = explorer.SolveFraction(fraction);
    const auto k = static_cast<std::uint64_t>(
        fraction * static_cast<double>(explorer.stats().max_misses));
    EXPECT_EQ(result.k, k);
    for (std::size_t level = 0; level < result.points.size(); ++level) {
      const DesignPoint& point = result.points[level];
      const auto& profile = explorer.profiles()[level];
      EXPECT_LE(profile.MissesAtAssoc(point.assoc), k);
      if (point.assoc > 1) {
        EXPECT_GT(profile.MissesAtAssoc(point.assoc - 1), k);
      }
    }
  }
}

TEST(ExplorerTest, AssocIsMonotonicInDepthAndBudget) {
  ces::Rng rng(66);
  const Trace trace = ces::trace::RandomWorkingSet(rng, 128, 5000);
  const Explorer explorer(trace);
  const ExplorationResult tight = explorer.SolveFraction(0.05);
  const ExplorationResult loose = explorer.SolveFraction(0.20);
  for (std::size_t i = 0; i < tight.points.size(); ++i) {
    // A bigger budget never needs more ways.
    EXPECT_LE(loose.points[i].assoc, tight.points[i].assoc);
    // Doubling the depth splits sets, so per-set stack distances can only
    // shrink: a deeper cache never needs more ways either.
    if (i > 0) {
      EXPECT_LE(tight.points[i].assoc, tight.points[i - 1].assoc);
      EXPECT_LE(loose.points[i].assoc, loose.points[i - 1].assoc);
    }
  }
}

TEST(ExplorerTest, SmallestCachePicksMinimumWords) {
  const Trace trace = ces::trace::PaperExampleTrace();
  const ExplorationResult result = Explorer(trace).Solve(0);
  const DesignPoint* best = result.SmallestCache();
  ASSERT_NE(best, nullptr);
  for (const DesignPoint& point : result.points) {
    EXPECT_LE(best->size_words(), point.size_words());
  }
}

TEST(ExplorerTest, DepthsBeyondSignificantBitsAreAllHit) {
  // Two addresses differing only in bit 0: from depth 2 on, no conflicts.
  Trace trace = FromRefs({8, 9, 8, 9, 8, 9});
  const Explorer explorer(trace, {.max_index_bits = 10});
  // Significant bits = 1, so only depths 1 and 2 are profiled; the deepest
  // profile must already be conflict-free at A=1.
  EXPECT_EQ(explorer.max_index_bits(), 1u);
  EXPECT_EQ(explorer.profiles().back().MissesAtAssoc(1), 0u);
  EXPECT_EQ(explorer.Solve(0).points.back().assoc, 1u);
}

TEST(ExplorerTest, SolveFractionFloorsTheBudget) {
  const Trace trace = ces::trace::PaperExampleTrace();  // max misses = 5
  const Explorer explorer(trace);
  EXPECT_EQ(explorer.SolveFraction(0.05).k, 0u);   // floor(0.25)
  EXPECT_EQ(explorer.SolveFraction(0.20).k, 1u);   // floor(1.0)
  EXPECT_EQ(explorer.SolveFraction(1.0).k, 5u);
}

TEST(ExplorerTest, EmptyAndTinyTraces) {
  const ExplorationResult empty = Explorer(Trace{}).Solve(0);
  ASSERT_EQ(empty.points.size(), 1u);  // depth 1 only
  EXPECT_EQ(empty.points[0].assoc, 1u);

  const ExplorationResult single = Explorer(FromRefs({42, 42, 42})).Solve(0);
  for (const DesignPoint& point : single.points) {
    EXPECT_EQ(point.assoc, 1u);
    EXPECT_EQ(point.warm_misses, 0u);
  }
}

TEST(ExplorerTest, ReferenceAndFusedFacadesAgree) {
  ces::Rng rng(88);
  const Trace trace = ces::trace::LocalityMix(rng, 40, 120, 1200);
  const Explorer fused(trace, {.engine = Engine::kFused});
  const Explorer reference(trace, {.engine = Engine::kReference});
  for (std::uint64_t k : {0ull, 3ull, 17ull, 200ull}) {
    EXPECT_EQ(fused.Solve(k).points, reference.Solve(k).points) << k;
  }
}

}  // namespace
