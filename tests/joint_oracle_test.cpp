// Differential oracle for the pruned joint explorer (satellite 1): on a
// corpus of >= 50 random small traces — spanning trace shapes, replacement
// policies and write mixes — the pruned explorer must produce Pareto fronts
// byte-identical to the exhaustive reference, at jobs 1, 2 and 8.
//
// This is the test that makes the pruning layers safe to trust: the
// lower-bound dominance rule and the associativity-threshold rule are each
// easy to get subtly wrong (a bound that is not actually a lower bound, a
// threshold rule applied when write-backs make L2 streams diverge), and any
// such bug shows up here as a front difference on some corpus seed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace ces::explore;
using ces::Rng;
using ces::cache::ReplacementPolicy;
using ces::trace::Access;
using ces::trace::AccessSequence;
using ces::trace::StreamKind;
using ces::trace::Trace;

AccessSequence CorpusTrace(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  Trace instr;
  switch (rng.NextBounded(3)) {
    case 0:
      instr = ces::trace::SequentialLoop(
          static_cast<std::uint32_t>(rng.NextBounded(64)),
          static_cast<std::uint32_t>(8 + rng.NextBounded(56)),
          static_cast<std::uint32_t>(2 + rng.NextBounded(5)));
      break;
    case 1:
      instr = ces::trace::StridedSweep(
          0, static_cast<std::uint32_t>(1 + rng.NextBounded(9)),
          static_cast<std::uint32_t>(8 + rng.NextBounded(24)),
          static_cast<std::uint32_t>(2 + rng.NextBounded(4)));
      break;
    default:
      instr = ces::trace::LocalityMix(
          rng, 32, 256, static_cast<std::uint32_t>(80 + rng.NextBounded(120)));
      break;
  }
  instr.kind = StreamKind::kInstruction;
  Trace data;
  if (rng.NextBool(0.5)) {
    data = ces::trace::RandomWorkingSet(
        rng, static_cast<std::uint32_t>(8 + rng.NextBounded(56)),
        static_cast<std::uint32_t>(40 + rng.NextBounded(160)),
        /*base=*/4096);
  } else {
    data = ces::trace::LocalityMix(
        rng, 24, 128, static_cast<std::uint32_t>(60 + rng.NextBounded(100)));
    for (std::uint32_t& ref : data.refs) ref += 4096;
  }
  AccessSequence merged = InterleaveProportional(instr, data);
  // Half the corpus carries writes, so the write-gated threshold rule and
  // the write-back-aware lower bound both face hostile inputs.
  if (seed % 2 == 1) {
    for (Access& access : merged) {
      if (access.kind == StreamKind::kData) {
        access.is_write = rng.NextBool(0.4);
      }
    }
  }
  return merged;
}

JointSpace CorpusSpace(std::uint64_t seed) {
  JointSpace space = JointSpace::Small();
  // A quarter of the corpus swaps in non-LRU policies: pruning must stay
  // sound when the analytical bounds degrade to compulsory floors.
  switch (seed % 4) {
    case 1:
      space.l2_policy = ReplacementPolicy::kFifo;
      break;
    case 2:
      space.l1d_policy = ReplacementPolicy::kPlru;
      break;
    case 3:
      space.l1i_policy = ReplacementPolicy::kFifo;
      space.l2_policy = ReplacementPolicy::kPlru;
      break;
    default:
      break;
  }
  return space;
}

std::string FrontJson(const JointResult& result) {
  std::string out = "[";
  for (std::size_t i = 0; i < result.front.size(); ++i) {
    if (i > 0) out += ',';
    out += JointPointJson(result.front[i]);
  }
  out += "]";
  return out;
}

TEST(JointOracle, PrunedMatchesExhaustiveOn50RandomTraces) {
  int with_pruning_effect = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const AccessSequence accesses = CorpusTrace(seed);
    const JointSpace space = CorpusSpace(seed);

    JointOptions exhaustive;
    exhaustive.prune = false;
    const JointResult reference = ExploreJoint(accesses, space, exhaustive);
    const std::string reference_front = FrontJson(reference);
    ASSERT_FALSE(reference.front.empty()) << "seed " << seed;

    std::string pruned_report_at_jobs1;
    for (std::uint32_t jobs : {1u, 2u, 8u}) {
      JointOptions options;
      options.jobs = jobs;
      const JointResult pruned = ExploreJoint(accesses, space, options);
      // The tentpole guarantee: byte-identical fronts, not merely equal
      // metric values.
      ASSERT_EQ(FrontJson(pruned), reference_front)
          << "seed " << seed << " jobs " << jobs;
      // And the whole report — including every pruning counter — must be
      // independent of the worker count.
      const std::string report = JointReportJson(pruned, space);
      if (jobs == 1) {
        pruned_report_at_jobs1 = report;
        ASSERT_EQ(pruned.valid_configs, reference.valid_configs);
        ASSERT_EQ(pruned.evaluated_configs + pruned.pruned_configs,
                  pruned.valid_configs)
            << "seed " << seed;
        if (pruned.pruned_configs > 0) ++with_pruning_effect;
      } else {
        ASSERT_EQ(report, pruned_report_at_jobs1)
            << "seed " << seed << " jobs " << jobs;
      }
    }
  }
  // The corpus must actually exercise the pruning path, not vacuously pass.
  EXPECT_GT(with_pruning_effect, 10);
}

// The lower-bound rule's L2 floor comes from the first evaluated pair's L2
// stream; it must equal the merged stream's distinct L2 line count, the
// compulsory misses of any L2 behind any L1 pair.
TEST(JointOracle, L2FloorIsTheMergedStreamsDistinctL2Lines) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const AccessSequence accesses = CorpusTrace(seed);
    const JointSpace space = CorpusSpace(seed);
    Trace merged;
    for (const Access& access : accesses) merged.refs.push_back(access.addr);
    for (bool prune : {true, false}) {
      JointOptions options;
      options.prune = prune;
      const JointResult result = ExploreJoint(accesses, space, options);
      ASSERT_EQ(result.l2_floor.size(), space.l2.lines.size())
          << "seed " << seed;
      for (std::uint32_t line : space.l2.lines) {
        const std::uint64_t distinct =
            ces::trace::ComputeStats(ces::trace::WithLineSize(merged, line))
                .n_unique;
        EXPECT_EQ(result.l2_floor.at(line), distinct)
            << "seed " << seed << " line " << line << " prune " << prune;
      }
    }
  }
}

TEST(JointOracle, ThresholdPruningTriggersOnWriteFreeLruTraces) {
  // A loop larger than any Small-space L1 keeps miss counts saturated across
  // associativities, which is exactly when the threshold rule fires.
  Trace instr = ces::trace::SequentialLoop(0, 48, 6);
  instr.kind = StreamKind::kInstruction;
  const Trace data = ces::trace::SequentialLoop(4096, 48, 4);
  const AccessSequence accesses = InterleaveProportional(instr, data);

  const JointResult pruned = ExploreJoint(accesses, JointSpace::Small());
  EXPECT_GT(pruned.threshold_pruned_pairs, 0u);

  JointOptions exhaustive;
  exhaustive.prune = false;
  const JointResult reference =
      ExploreJoint(accesses, JointSpace::Small(), exhaustive);
  EXPECT_EQ(FrontJson(pruned), FrontJson(reference));
}

}  // namespace
