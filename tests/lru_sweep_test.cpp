// The one-pass LRU sweep (cache/lru_sweep) against its two oracles,
// geometry by geometry: cache::Cache for the miss bitmaps and write-back
// lists the joint explorer's L1s read, and the per-depth stack profiles of
// cache::ComputeAllDepthProfiles for the miss counts its L2s read.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/lru_sweep.hpp"
#include "cache/stack.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"

namespace {

using ces::Rng;
using namespace ces::cache;

// Accesses as the joint explorer hands them to an L1 sweep.
struct Stream {
  std::vector<std::uint32_t> addrs;
  std::vector<std::uint32_t> positions;
  std::vector<std::uint8_t> writes;
  std::size_t n_positions = 0;
};

// Word addresses that drift between phases: most draws fall in a small
// window around the phase's base, some in a wider one.
std::vector<std::uint32_t> RandomAddresses(Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> addrs;
  std::uint32_t base = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.02)) {
      base = static_cast<std::uint32_t>(rng.NextBounded(1 << 12));
    }
    addrs.push_back(base + static_cast<std::uint32_t>(
                               rng.NextBounded(rng.NextBool(0.8) ? 24 : 256)));
  }
  return addrs;
}

// A seeded run-start stream: the first access of every run of same-line
// accesses, numbered by its position in a merged stream (the gaps belong
// to the other stream kind) and carrying the OR of its run's write flags.
Stream RunStartStream(std::uint64_t seed, std::uint32_t line_words,
                      std::size_t n_raw) {
  Rng rng(seed);
  Stream stream;
  std::uint32_t position = 0;
  for (std::uint32_t addr : RandomAddresses(rng, n_raw)) {
    position += 1 + static_cast<std::uint32_t>(rng.NextBounded(3));
    const bool write = rng.NextBool(0.3);
    if (!stream.addrs.empty() &&
        stream.addrs.back() / line_words == addr / line_words) {
      stream.writes.back() |= write ? 1 : 0;
      continue;
    }
    stream.addrs.push_back(addr);
    stream.positions.push_back(position);
    stream.writes.push_back(write ? 1 : 0);
  }
  stream.n_positions = position + 1;
  return stream;
}

// The oracle: one cache::Cache of the geometry, LRU and write-back/allocate.
MissEvents Simulate(const Stream& stream, std::uint32_t line_words,
                    std::uint32_t depth, std::uint32_t assoc) {
  Cache cache(CacheConfig{depth, assoc, line_words, ReplacementPolicy::kLru,
                          WritePolicy::kWriteBackAllocate});
  MissEvents events;
  events.miss_bits.assign((stream.n_positions + 63) / 64, 0);
  for (std::size_t i = 0; i < stream.addrs.size(); ++i) {
    Eviction eviction;
    if (cache.Access(stream.addrs[i], stream.writes[i] != 0, &eviction) ==
        AccessOutcome::kHit) {
      continue;
    }
    const std::uint32_t p = stream.positions[i];
    events.miss_bits[p / 64] |= std::uint64_t{1} << (p % 64);
    if (eviction.valid && eviction.dirty) {
      events.writebacks.emplace_back(p, eviction.addr);
    }
  }
  events.misses = cache.stats().misses;
  return events;
}

// Sweeps one (line, depth, axis) and checks every associativity against its
// own simulation. Returns the write-backs seen, so callers can insist that
// the dirty tracking was exercised.
std::size_t ExpectEventsMatch(const Stream& stream, std::uint32_t line_words,
                              std::uint32_t depth,
                              const std::vector<std::uint32_t>& assocs) {
  const std::vector<MissEvents> swept =
      LruEventsByAssoc(stream.addrs, stream.positions, stream.writes,
                       stream.n_positions, line_words, depth, assocs);
  EXPECT_EQ(swept.size(), assocs.size());
  std::size_t writebacks = 0;
  for (std::size_t a = 0; a < assocs.size(); ++a) {
    const std::string where = "line " + std::to_string(line_words) +
                              " depth " + std::to_string(depth) + " assoc " +
                              std::to_string(assocs[a]);
    const MissEvents expected =
        Simulate(stream, line_words, depth, assocs[a]);
    EXPECT_EQ(swept[a].misses, expected.misses) << where;
    EXPECT_EQ(swept[a].miss_bits, expected.miss_bits) << where;
    EXPECT_EQ(swept[a].writebacks, expected.writebacks) << where;
    writebacks += expected.writebacks.size();
  }
  return writebacks;
}

TEST(LruSweep, EventsEqualTheSimulatorGeometryByGeometry) {
  // A power-of-two axis, a non-power-of-two one and a one-value axis.
  const std::vector<std::vector<std::uint32_t>> axes = {
      {1, 2, 4}, {1, 3, 4}, {2}};
  std::size_t writebacks = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (std::uint32_t line : {1u, 2u, 4u}) {
      const Stream stream = RunStartStream(seed, line, 3000);
      for (std::uint32_t depth : {1u, 2u, 16u, 64u}) {
        for (const std::vector<std::uint32_t>& axis : axes) {
          writebacks += ExpectEventsMatch(stream, line, depth, axis);
        }
      }
    }
  }
  EXPECT_GT(writebacks, 1000u);
}

TEST(LruSweep, WideAxesSparseSetsAndHugeAssociativities) {
  const Stream stream = RunStartStream(42, 2, 4000);
  // More associativities than one pass has dirty bits.
  std::vector<std::uint32_t> wide;
  for (std::uint32_t assoc = 1; assoc <= 40; ++assoc) wide.push_back(assoc);
  EXPECT_GT(ExpectEventsMatch(stream, 2, 4, wide), 0u);

  // More sets than accesses, and more ways than accesses.
  const Stream tiny = RunStartStream(43, 1, 120);
  ASSERT_LT(tiny.addrs.size(), 1u << 14);
  ExpectEventsMatch(tiny, 1, 1u << 14, {1, 2});
  ExpectEventsMatch(tiny, 1, 1, {1, 4, 500});
}

TEST(LruSweep, EmptyStreamMissesNothing) {
  const std::vector<MissEvents> events = LruEventsByAssoc(
      {}, {}, {}, 100, 4, 16, std::vector<std::uint32_t>{1, 2});
  ASSERT_EQ(events.size(), 2u);
  for (const MissEvents& e : events) {
    EXPECT_EQ(e.misses, 0u);
    EXPECT_EQ(e.miss_bits, std::vector<std::uint64_t>(2, 0));
    EXPECT_TRUE(e.writebacks.empty());
  }
  EXPECT_EQ(LruMissesByAssoc({}, 1, 1, std::vector<std::uint32_t>{1}),
            std::vector<std::uint64_t>{0});
}

TEST(LruSweep, MissCountsEqualTheStackProfileOracle) {
  constexpr std::uint32_t kMaxBits = 6;
  const std::vector<std::uint32_t> assocs = {1, 2, 3, 4, 8, 16};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed * 1000 + 7);
    ces::trace::Trace trace;
    trace.refs = RandomAddresses(rng, 5000);
    for (std::uint32_t line : {1u, 2u, 4u, 8u}) {
      const ces::trace::StrippedTrace stripped =
          ces::trace::Strip(ces::trace::WithLineSize(trace, line));
      const std::vector<StackProfile> profiles =
          ComputeAllDepthProfiles(stripped, kMaxBits);
      for (std::uint32_t bits = 0; bits <= kMaxBits; ++bits) {
        const std::vector<std::uint64_t> misses =
            LruMissesByAssoc(trace.refs, line, 1u << bits, assocs);
        ASSERT_EQ(misses.size(), assocs.size());
        for (std::size_t a = 0; a < assocs.size(); ++a) {
          EXPECT_EQ(misses[a], profiles[bits].cold +
                                   profiles[bits].MissesAtAssoc(assocs[a]))
              << "line " << line << " depth " << (1u << bits) << " assoc "
              << assocs[a];
        }
      }
    }
  }
}

}  // namespace
