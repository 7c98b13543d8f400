// Differential and adversarial tests of the tandem-repeat collapse
// (analytic/collapse.hpp) and the weighted fused traversal that scans it.
//
// Every seeded generator runs with the collapse forced on, forced off and
// left to the cost model, at jobs 1/2/8 and at every available kernel
// level, against the per-depth oracle cache::ComputeAllDepthProfiles. The
// detector's own contract is pinned beside it: weights sum to N, cold
// entries keep weight 1, block compares stay linear on traces built to
// make them fail, and the deterministic metrics do not depend on the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analytic/collapse.hpp"
#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "cache/stack.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

namespace {

using ces::analytic::CollapseMode;
using ces::analytic::CollapseRepeats;
using ces::analytic::CollapseStats;
using ces::analytic::CollapseIfWorthwhile;
using ces::analytic::WeightedIds;
using ces::trace::Trace;
namespace simd = ces::support::simd;

void Emit(Trace& trace, std::uint32_t base, std::uint32_t from,
          std::uint32_t length) {
  for (std::uint32_t i = 0; i < length; ++i) {
    trace.refs.push_back(base + from + i);
  }
}

// A three-deep loop nest of straight-line code, as an instruction fetch
// stream. Trip counts are drawn per loop entry, so outer iterations that
// look alike after one pass can still differ in their weights.
Trace NestedLoops(ces::Rng& rng, std::uint32_t outer, std::uint32_t base,
                  std::uint32_t stride = 1, std::uint32_t inner_trips = 3) {
  Trace trace;
  trace.kind = ces::trace::StreamKind::kInstruction;
  const auto emit = [&](std::uint32_t from, std::uint32_t length) {
    for (std::uint32_t i = 0; i < length; ++i) {
      trace.refs.push_back(base + (from + i) * stride);
    }
  };
  emit(0, 6);
  for (std::uint32_t o = 0; o < outer; ++o) {
    emit(10, 3);
    const auto middle = static_cast<std::uint32_t>(rng.NextInRange(2, 4));
    for (std::uint32_t m = 0; m < middle; ++m) {
      emit(20, 4);
      const auto inner = static_cast<std::uint32_t>(
          rng.NextInRange(inner_trips, inner_trips + 2));
      for (std::uint32_t k = 0; k < inner; ++k) emit(40, 5);
      emit(30, 2);
    }
    emit(60, 4);
  }
  emit(80, 3);
  return trace;
}

// Blocks of `period` sequential words whose last word is fresh in every
// copy: each copy matches the one before it up to its last element.
Trace AlmostTandemLast(std::uint32_t period, std::uint32_t length) {
  Trace trace;
  std::uint32_t fresh = 1u << 20;
  while (trace.refs.size() < length) {
    Emit(trace, 0, 0, period - 1);
    trace.refs.push_back(fresh++);
  }
  return trace;
}

// Almost-periodic blocks whose one fresh word moves from copy to copy, so
// a compare can fail anywhere in the block: the shape that maximises
// failed compares for the skip rule.
Trace AlmostTandemMoving(std::uint32_t period, std::uint32_t length) {
  Trace trace;
  std::uint32_t fresh = 1u << 20;
  for (std::uint64_t copy = 0; trace.refs.size() < length; ++copy) {
    const auto at = static_cast<std::uint32_t>((copy * 7919) % period);
    for (std::uint32_t t = 0; t < period; ++t) {
      trace.refs.push_back(t == at ? fresh++ : t);
    }
  }
  return trace;
}

// Runs of one word (period 1) over a small working set.
Trace PeriodOneRuns(ces::Rng& rng, std::uint32_t length) {
  Trace trace;
  while (trace.refs.size() < length) {
    const auto word = static_cast<std::uint32_t>(rng.NextBounded(16));
    const auto run = static_cast<std::uint32_t>(rng.NextInRange(1, 50));
    for (std::uint32_t i = 0; i < run; ++i) trace.refs.push_back(word);
  }
  return trace;
}

Trace OneHotLine(std::uint32_t length) {
  Trace trace;
  trace.refs.assign(length, 0x1234u);
  return trace;
}

// N' close to N: fresh words, with an occasional immediate repeat of a
// short block so the detector still finds something to merge.
Trace NearlyUnique(ces::Rng& rng, std::uint32_t length) {
  Trace trace;
  std::uint32_t next = 0;
  while (trace.refs.size() < length) {
    const std::size_t at = trace.refs.size();
    const auto block = static_cast<std::uint32_t>(rng.NextInRange(1, 6));
    for (std::uint32_t i = 0; i < block; ++i) trace.refs.push_back(next++);
    if (rng.NextBounded(8) == 0) {
      for (std::uint32_t i = 0; i < block; ++i) {
        trace.refs.push_back(trace.refs[at + i]);
      }
    }
  }
  return trace;
}

// The Fibonacci word over two lines: squares of every Fibonacci length and
// no long runs of them, so most attempts compare a while and then fail.
Trace FibonacciWord(std::uint32_t length) {
  std::string a = "0";
  std::string b = "01";
  while (b.size() < length) {
    std::string c = b + a;
    a = std::move(b);
    b = std::move(c);
  }
  Trace trace;
  for (std::uint32_t i = 0; i < length; ++i) {
    trace.refs.push_back(static_cast<std::uint32_t>(b[i] - '0'));
  }
  return trace;
}

// Loops over the two lines of a 1-bit address space.
Trace OneAddressBit(ces::Rng& rng, std::uint32_t length) {
  Trace trace;
  trace.address_bits = 1;
  while (trace.refs.size() < length) {
    const auto trips = static_cast<std::uint32_t>(rng.NextInRange(1, 40));
    for (std::uint32_t i = 0; i < trips; ++i) {
      trace.refs.push_back(0);
      trace.refs.push_back(1);
    }
    trace.refs.push_back(static_cast<std::uint32_t>(rng.NextBounded(2)));
  }
  return trace;
}

struct Case {
  std::string name;
  Trace trace;
  std::uint32_t max_bits;
};

std::vector<Case> Cases() {
  ces::Rng rng(20261020);
  std::vector<Case> cases;
  cases.push_back({"nested-loops", NestedLoops(rng, 400, 0x400), 10});
  cases.push_back({"almost-tandem-last", AlmostTandemLast(37, 20000), 10});
  cases.push_back({"almost-tandem-moving", AlmostTandemMoving(64, 20000), 10});
  cases.push_back({"period-one-runs", PeriodOneRuns(rng, 20000), 6});
  cases.push_back({"one-hot-line", OneHotLine(5000), 4});
  cases.push_back({"nearly-unique", NearlyUnique(rng, 20000), 10});
  cases.push_back({"fibonacci", FibonacciWord(20000), 2});
  cases.push_back({"address-bits-1", OneAddressBit(rng, 20000), 1});
  {
    // Code at the top of the 32-bit word space, wrapping past 2^32, with
    // consecutive words 2^13 + 3 apart: every address bit varies.
    Trace trace = NestedLoops(rng, 300, 0xfffc0000u, (1u << 13) + 3);
    trace.address_bits = 32;
    cases.push_back({"address-bits-32", std::move(trace), 16});
  }
  return cases;
}

void ExpectSameProfiles(const std::vector<ces::cache::StackProfile>& got,
                        const std::vector<ces::cache::StackProfile>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index_bits, want[i].index_bits);
    EXPECT_EQ(got[i].cold, want[i].cold);
    ASSERT_EQ(got[i].hist, want[i].hist) << "depth 2^" << i;
  }
}

std::vector<simd::Level> KernelLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::KernelsFor(simd::Level::kAvx2).level == simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

// Restores the process-wide kernel selection when a test forced one.
class ForcedLevelGuard {
 public:
  ForcedLevelGuard() : had_(simd::ForcedLevel(&saved_)) {}
  ~ForcedLevelGuard() {
    if (had_) {
      simd::ForceLevel(saved_);
    } else {
      simd::ClearForcedLevel();
    }
  }

 private:
  simd::Level saved_ = simd::Level::kScalar;
  bool had_;
};

TEST(CollapseTest, WeightsSumToNAndColdEntriesKeepWeightOne) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const auto stripped = ces::trace::Strip(c.trace);
    const WeightedIds collapsed = CollapseRepeats(
        stripped.ids.data(), stripped.size(), stripped.unique_count());
    ASSERT_EQ(collapsed.weights.size(), collapsed.size());
    std::uint64_t total = 0;
    std::vector<bool> seen(stripped.unique_count(), false);
    for (std::size_t i = 0; i < collapsed.size(); ++i) {
      ASSERT_LT(collapsed.ids[i], stripped.unique_count());
      ASSERT_GE(collapsed.weights[i], 1u);
      total += collapsed.weights[i];
      if (!seen[collapsed.ids[i]]) {
        EXPECT_EQ(collapsed.weights[i], 1u) << "cold entry " << i;
        seen[collapsed.ids[i]] = true;
      }
    }
    EXPECT_EQ(total, stripped.size());
    EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
              static_cast<std::ptrdiff_t>(stripped.unique_count()));
  }
}

// (P I^k S)^m with a fixed trip count: pass 1 leaves every outer iteration
// as P I I' S, and pass 2 merges the iterations, so the whole loop nest
// becomes the prologue plus two copies of the collapsed body.
TEST(CollapseTest, NestedLoopCollapsesToTwoCopiesOfItsBody) {
  std::vector<std::uint32_t> ids = {0, 1, 2, 3};
  for (int outer = 0; outer < 6; ++outer) {
    ids.insert(ids.end(), {4, 5});
    for (int inner = 0; inner < 32; ++inner) {
      for (std::uint32_t id = 6; id <= 24; ++id) ids.push_back(id);
    }
    for (std::uint32_t id = 25; id <= 31; ++id) ids.push_back(id);
  }
  const WeightedIds collapsed = CollapseRepeats(ids.data(), ids.size(), 32);
  // Prologue 4, then 2 + 19 + 19 + 7 entries per copy of the body.
  ASSERT_EQ(collapsed.size(), 4u + 2 * 47u);
  const std::size_t second = 4 + 47;
  EXPECT_EQ(collapsed.weights[4 + 21], 31u);   // first body: I at 31
  EXPECT_EQ(collapsed.weights[second], 5u);    // body copies 2..6
  EXPECT_EQ(collapsed.weights[second + 2], 5u);
  EXPECT_EQ(collapsed.weights[second + 21], 5u * 31u);
  EXPECT_EQ(collapsed.weights.back(), 5u);
}

TEST(CollapseTest, ProfilesMatchThePerDepthOracleInEveryMode) {
  ForcedLevelGuard guard;
  ces::support::ThreadPool pool2(2);
  ces::support::ThreadPool pool8(8);
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    const auto stripped = ces::trace::Strip(c.trace);
    const auto oracle =
        ces::cache::ComputeAllDepthProfiles(stripped, c.max_bits);
    const std::size_t collapsed_size =
        CollapseRepeats(stripped.ids.data(), stripped.size(),
                        stripped.unique_count())
            .size();
    for (const CollapseMode mode :
         {CollapseMode::kAlways, CollapseMode::kNever,
          CollapseMode::kCostModel}) {
      SCOPED_TRACE(static_cast<int>(mode));
      std::string expected_metrics;
      for (const simd::Level level : KernelLevels()) {
        simd::ForceLevel(level);
        for (ces::support::ThreadPool* pool :
             {static_cast<ces::support::ThreadPool*>(nullptr), &pool2,
              &pool8}) {
          ces::support::MetricsRegistry metrics;
          ces::analytic::FusedPreludeOptions options;
          options.pool = pool;
          options.metrics = &metrics;
          options.collapse = mode;
          ExpectSameProfiles(ces::analytic::ComputeMissProfilesFused(
                                 stripped, c.max_bits, options),
                             oracle);
          const std::uint64_t scanned =
              metrics.counter("explore.collapsed_refs");
          if (mode == CollapseMode::kAlways) {
            EXPECT_EQ(scanned, collapsed_size);
          } else if (mode == CollapseMode::kNever) {
            EXPECT_EQ(scanned, stripped.size());
          }
          const std::string json = metrics.ToJson(/*include_volatile=*/false);
          if (expected_metrics.empty()) {
            expected_metrics = json;
          } else {
            EXPECT_EQ(json, expected_metrics)
                << "jobs " << (pool == nullptr ? 1u : pool->jobs())
                << " kernel " << simd::LevelName(level);
          }
        }
      }
    }
  }
}

// The skip rule is what keeps a pass linear: on traces built so that
// attempts compare a long way and then fail, the detector still compares
// each entry about once per pass.
TEST(CollapseTest, DetectorComparesStayLinearOnAdversarialTraces) {
  std::vector<std::pair<std::string, Trace>> traces;
  for (const std::uint32_t period : {2u, 7u, 64u, 1000u}) {
    traces.emplace_back("last-" + std::to_string(period),
                        AlmostTandemLast(period, 200000));
    traces.emplace_back("moving-" + std::to_string(period),
                        AlmostTandemMoving(period, 200000));
  }
  traces.emplace_back("fibonacci", FibonacciWord(200000));
  for (const auto& [name, trace] : traces) {
    SCOPED_TRACE(name);
    const auto stripped = ces::trace::Strip(trace);
    CollapseStats stats;
    (void)CollapseRepeats(stripped.ids.data(), stripped.size(),
                          stripped.unique_count(), &stats);
    EXPECT_LE(stats.compares, 3 * stripped.size());
    EXPECT_GE(stats.passes, 1u);
    EXPECT_LE(stats.passes, ces::analytic::kCollapseMaxPasses);
  }
}

TEST(CollapseTest, CostModelCollapsesLoopsAndSkipsTracesWithoutRepeats) {
  const auto worthwhile = [](const ces::trace::StrippedTrace& s) {
    return CollapseIfWorthwhile(s.ids.data(), s.size(), s.unique_count());
  };
  ces::Rng rng(7);
  const auto loops =
      ces::trace::Strip(NestedLoops(rng, 2000, 0, 1, /*inner_trips=*/20));
  const auto collapsed = worthwhile(loops);
  ASSERT_TRUE(collapsed.has_value());
  // Past the sample, the whole trace is collapsed, not just its prefix.
  EXPECT_EQ(collapsed->size(),
            CollapseRepeats(loops.ids.data(), loops.size(),
                            loops.unique_count())
                .size());
  EXPECT_FALSE(worthwhile(
      ces::trace::Strip(ces::trace::RandomWorkingSet(rng, 4096, 100000))));
  EXPECT_FALSE(worthwhile(ces::trace::StrippedTrace{}));
  // A trace that collapses to half its length costs more in weighted
  // entries than it saves (docs/ALGORITHM.md): random blocks, each run four
  // times, keep two entries of every four.
  ces::trace::Trace halves;
  std::vector<std::uint32_t> block(8);
  while (halves.refs.size() < 100000) {
    for (std::uint32_t& word : block) {
      word = static_cast<std::uint32_t>(rng.NextBounded(4096));
    }
    for (int copy = 0; copy < 4; ++copy) {
      halves.refs.insert(halves.refs.end(), block.begin(), block.end());
    }
  }
  const auto halved = ces::trace::Strip(halves);
  EXPECT_NEAR(static_cast<double>(CollapseRepeats(halved.ids.data(),
                                                  halved.size(),
                                                  halved.unique_count())
                                      .size()) /
                  static_cast<double>(halved.size()),
              0.5, 0.05);
  EXPECT_FALSE(worthwhile(halved));
  // bench/micro_prelude's default trace must keep running the per-reference
  // traversal it measures.
  ces::Rng micro(20260806);
  EXPECT_FALSE(worthwhile(ces::trace::Strip(
      ces::trace::LocalityMix(micro, 256, 2048, 1200000, 0.85))));
}

// Through the Explorer, on a real instruction trace the cost model
// collapses: the answer and the deterministic metrics surface are the same
// at every jobs value, and the root scans far fewer entries than N.
TEST(CollapseTest, ExplorerOnAnInstructionTraceIsJobsInvariant) {
  const auto* workload = ces::workloads::FindWorkload("crc");
  ASSERT_NE(workload, nullptr);
  const Trace trace = ces::workloads::Run(*workload).instruction_trace;
  const auto stripped = ces::trace::Strip(trace);
  const auto oracle = ces::cache::ComputeAllDepthProfiles(
      stripped, std::min(16u, ces::trace::SignificantAddressBits(stripped)));
  std::string expected;
  for (const std::uint32_t jobs : {1u, 2u, 8u}) {
    ces::support::MetricsRegistry metrics;
    const ces::analytic::Explorer explorer(
        trace, {.jobs = jobs, .metrics = &metrics});
    ExpectSameProfiles(explorer.profiles(), oracle);
    EXPECT_LT(metrics.counter("explore.collapsed_refs") * 10, stripped.size());
    EXPECT_EQ(metrics.counter("explore.trace_refs"), stripped.size());
    const std::string json = metrics.ToJson(/*include_volatile=*/false);
    if (expected.empty()) {
      expected = json;
    } else {
      EXPECT_EQ(json, expected) << "jobs " << jobs;
    }
  }
}

}  // namespace
