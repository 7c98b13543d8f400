// Write-policy and Belady-OPT tests (the policy-study extensions around
// the paper's fixed LRU/write-back assumption).
#include <gtest/gtest.h>

#include "cache/opt.hpp"
#include "cache/sim.hpp"
#include "cache/stack.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace ces::cache;
using ces::trace::Strip;
using ces::trace::Trace;

CacheConfig Make(std::uint32_t depth, std::uint32_t assoc,
                 WritePolicy write_policy = WritePolicy::kWriteBackAllocate) {
  CacheConfig config;
  config.depth = depth;
  config.assoc = assoc;
  config.write_policy = write_policy;
  return config;
}

TEST(WritePolicyTest, WriteThroughNeverWritesBack) {
  Cache cache(Make(1, 1, WritePolicy::kWriteThroughNoAllocate));
  cache.Access(0, true);
  cache.Access(1, true);
  cache.Access(2, true);
  EXPECT_EQ(cache.stats().writebacks, 0u);
  EXPECT_EQ(cache.stats().write_throughs, 3u);
  EXPECT_EQ(cache.stats().evictions, 0u);  // no-allocate: nothing ever filled
}

TEST(WritePolicyTest, WriteMissDoesNotAllocate) {
  Cache cache(Make(4, 1, WritePolicy::kWriteThroughNoAllocate));
  cache.Access(0, false);            // read fill
  cache.Access(4, true);             // write miss, same set: must not evict 0
  EXPECT_EQ(cache.Access(0, false), AccessOutcome::kHit);
  // The written line is still absent.
  EXPECT_NE(cache.Access(4, false), AccessOutcome::kHit);
}

TEST(WritePolicyTest, WriteHitDoesNotDirtyTheLine) {
  Cache cache(Make(1, 1, WritePolicy::kWriteThroughNoAllocate));
  cache.Access(0, false);
  cache.Access(0, true);  // write hit goes through; line stays clean
  cache.Access(1, false); // evicts line 0
  EXPECT_EQ(cache.stats().writebacks, 0u);
  EXPECT_EQ(cache.stats().write_throughs, 1u);
}

TEST(WritePolicyTest, ReadOnlyTrafficIsPolicyInvariant) {
  ces::Rng rng(7);
  const Trace trace = ces::trace::LocalityMix(rng, 32, 128, 2000);
  const CacheStats wb = SimulateTrace(trace, Make(8, 2));
  const CacheStats wt =
      SimulateTrace(trace, Make(8, 2, WritePolicy::kWriteThroughNoAllocate));
  EXPECT_EQ(wb.hits, wt.hits);
  EXPECT_EQ(wb.misses, wt.misses);
  EXPECT_EQ(wt.write_throughs, 0u);
}

TEST(OptTest, HandComputedExample) {
  // Trace a b c a b c with a 2-way fully associative cache.
  // LRU thrashes (every warm access misses); OPT keeps 'a' then reuses:
  // classic Belady advantage.
  Trace trace;
  trace.refs = {1, 2, 3, 1, 2, 3};
  const auto stripped = Strip(trace);
  const std::uint64_t lru =
      ComputeStackProfile(stripped, 0).MissesAtAssoc(2);
  const std::uint64_t opt = OptWarmMisses(stripped, 0, 2);
  EXPECT_EQ(lru, 3u);
  EXPECT_EQ(opt, 1u);  // only one of the re-references must miss
}

TEST(OptTest, NeverWorseThanLruAnywhere) {
  for (int seed = 0; seed < 6; ++seed) {
    ces::Rng rng(9100 + static_cast<std::uint64_t>(seed));
    const Trace trace = ces::trace::LocalityMix(rng, 48, 256, 3000);
    const auto stripped = Strip(trace);
    for (std::uint32_t bits = 0; bits <= 4; ++bits) {
      const auto profile = ComputeStackProfile(stripped, bits);
      for (std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
        EXPECT_LE(OptWarmMisses(stripped, bits, assoc),
                  profile.MissesAtAssoc(assoc))
            << "seed " << seed << " bits " << bits << " assoc " << assoc;
      }
    }
  }
}

TEST(OptTest, DirectMappedHasNoChoice) {
  // With one way there is nothing to decide: OPT == LRU exactly.
  ces::Rng rng(11);
  const Trace trace = ces::trace::RandomWorkingSet(rng, 64, 3000);
  const auto stripped = Strip(trace);
  for (std::uint32_t bits = 0; bits <= 5; ++bits) {
    EXPECT_EQ(OptWarmMisses(stripped, bits, 1),
              ComputeStackProfile(stripped, bits).MissesAtAssoc(1))
        << bits;
  }
}

TEST(OptTest, ZeroMissWhenWorkingSetFits) {
  const Trace trace = ces::trace::SequentialLoop(0, 16, 10);
  const auto stripped = Strip(trace);
  EXPECT_EQ(OptWarmMisses(stripped, 0, 16), 0u);
  EXPECT_EQ(OptWarmMisses(stripped, 2, 4), 0u);
}

}  // namespace
