// Joint L1I x L1D x L2 explorer: Pareto properties, derived-parameter
// validation, proportional interleave, stable report keys, the simulator
// cross-validation (>= 200 sampled configurations against cache/hierarchy,
// run-heavy streams with mid-run writes included), and a golden record of
// the pruning decisions on the 12 workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "cache/hierarchy.hpp"
#include "explore/joint.hpp"
#include "explore/pareto.hpp"
#include "explore/report.hpp"
#include "joint_golden_small.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "trace/synthetic.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ces::explore;
using ces::Rng;
using ces::cache::CacheConfig;
using ces::cache::HierarchyConfig;
using ces::cache::HierarchyStats;
using ces::cache::ReplacementPolicy;
using ces::cache::SimulateHierarchy;
using ces::cache::WritePolicy;
using ces::trace::Access;
using ces::trace::AccessSequence;
using ces::trace::StreamKind;
using ces::trace::Trace;

AccessSequence TestStream(std::uint64_t seed, std::size_t scale = 1,
                          double write_fraction = 0.0) {
  Rng rng(seed);
  const Trace instr = ces::trace::SequentialLoop(
      0, static_cast<std::uint32_t>(24 + rng.NextBounded(40)),
      static_cast<std::uint32_t>(4 * scale));
  const Trace data = ces::trace::RandomWorkingSet(
      rng, static_cast<std::uint32_t>(16 + rng.NextBounded(48)),
      static_cast<std::uint32_t>(120 * scale), /*base=*/4096);
  AccessSequence merged = InterleaveProportional(instr, data);
  if (write_fraction > 0.0) {
    for (Access& access : merged) {
      if (access.kind == StreamKind::kData) {
        access.is_write = rng.NextBool(write_fraction);
      }
    }
  }
  return merged;
}

// A run-heavy stream: the data side walks random blocks word by word,
// touching every word twice in a row, so consecutive same-line data accesses
// form runs at line sizes 1, 2 and 4 and the writes land inside them; the
// instruction loop forms runs at line sizes 2 and 4.
AccessSequence RunHeavyStream(std::uint64_t seed, double write_fraction) {
  Rng rng(seed);
  const Trace instr = ces::trace::SequentialLoop(0, 40, 6);
  Trace data;
  for (int block = 0; block < 48; ++block) {
    const auto base =
        static_cast<std::uint32_t>(4096 + 8 * rng.NextBounded(32));
    const auto length = static_cast<std::uint32_t>(2 + rng.NextBounded(14));
    for (std::uint32_t i = 0; i < length; ++i) {
      data.refs.push_back(base + i / 2);
    }
  }
  AccessSequence merged = InterleaveProportional(instr, data);
  for (Access& access : merged) {
    if (access.kind == StreamKind::kData) {
      access.is_write = rng.NextBool(write_fraction);
    }
  }
  return merged;
}

// Every valid configuration of a space, scored through the same path the
// explorer uses — the ground-truth candidate set for the front properties.
std::vector<JointPoint> AllPoints(const AccessSequence& accesses,
                                  const JointSpace& space) {
  std::vector<JointPoint> points;
  for (std::uint32_t line : space.l1i.lines) {
    for (std::uint32_t di : space.l1i.depths) {
      for (std::uint32_t ai : space.l1i.assocs) {
        for (std::uint32_t dd : space.l1d.depths) {
          for (std::uint32_t ad : space.l1d.assocs) {
            for (std::uint32_t l2_line : space.l2.lines) {
              for (std::uint32_t d2 : space.l2.depths) {
                for (std::uint32_t a2 : space.l2.assocs) {
                  HierarchyConfig config;
                  config.l1i = CacheConfig{di, ai, line, space.l1i_policy,
                                           WritePolicy::kWriteBackAllocate};
                  config.l1d = CacheConfig{dd, ad, line, space.l1d_policy,
                                           WritePolicy::kWriteBackAllocate};
                  config.l2 = CacheConfig{d2, a2, l2_line, space.l2_policy,
                                          WritePolicy::kWriteBackAllocate};
                  if (!ValidateJointConfig(config)) continue;
                  points.push_back(
                      JointPoint{config, EvaluateJointConfig(accesses, config)});
                }
              }
            }
          }
        }
      }
    }
  }
  return points;
}

TEST(JointValidation, DerivedParameterRules) {
  HierarchyConfig config;
  config.l1i = CacheConfig{4, 1, 2};
  config.l1d = CacheConfig{4, 2, 2};
  config.l2 = CacheConfig{32, 2, 4};
  EXPECT_TRUE(ValidateJointConfig(config));

  HierarchyConfig bad = config;
  bad.l1d.line_words = 4;  // split L1s must share one line size
  EXPECT_FALSE(ValidateJointConfig(bad));

  bad = config;
  bad.l2.line_words = 1;  // L2 line must be >= L1 line
  EXPECT_FALSE(ValidateJointConfig(bad));

  bad = config;
  bad.l2 = CacheConfig{4, 1, 2};  // L2 smaller than the L1s it backs
  EXPECT_FALSE(ValidateJointConfig(bad));

  bad = config;
  bad.l1i.depth = 3;  // non-power-of-two depth
  EXPECT_FALSE(ValidateJointConfig(bad));

  bad = config;
  bad.l1d.replacement = ReplacementPolicy::kPlru;
  bad.l1d.assoc = 3;  // PLRU needs a power-of-two associativity
  EXPECT_FALSE(ValidateJointConfig(bad));

  EXPECT_THROW(EvaluateJointConfig({}, bad), ces::support::Error);
}

TEST(JointValidation, SpaceAndPolicyNames) {
  EXPECT_GT(JointSpaceByName("default").TotalConfigs(), 0u);
  EXPECT_GT(JointSpaceByName("small").TotalConfigs(), 0u);
  EXPECT_THROW(JointSpaceByName("huge"), ces::support::Error);
  EXPECT_EQ(ReplacementPolicyByName("plru"), ReplacementPolicy::kPlru);
  EXPECT_THROW(ReplacementPolicyByName("mru"), ces::support::Error);
}

TEST(JointInterleave, ProportionalMergeIsDeterministicAndFair) {
  Trace instr;
  instr.kind = StreamKind::kInstruction;
  for (std::uint32_t i = 0; i < 30; ++i) instr.refs.push_back(i);
  Trace data;
  for (std::uint32_t i = 0; i < 10; ++i) data.refs.push_back(1000 + i);

  const AccessSequence merged = InterleaveProportional(instr, data);
  ASSERT_EQ(merged.size(), 40u);
  // Relative order within each stream is preserved and the instruction
  // stream leads at every prefix by the 3:1 ratio (within one access).
  std::uint64_t seen_instr = 0;
  std::uint64_t seen_data = 0;
  std::uint32_t next_instr = 0;
  std::uint32_t next_data = 1000;
  for (const Access& access : merged) {
    EXPECT_FALSE(access.is_write);
    if (access.kind == StreamKind::kInstruction) {
      EXPECT_EQ(access.addr, next_instr++);
      ++seen_instr;
    } else {
      EXPECT_EQ(access.addr, next_data++);
      ++seen_data;
    }
    // i * Nd <= d * Ni + Ni: the merge never lets either stream lag.
    EXPECT_LE(seen_data * 3, seen_instr + 3);
  }
  EXPECT_EQ(seen_instr, 30u);
  EXPECT_EQ(seen_data, 10u);
  const AccessSequence again = InterleaveProportional(instr, data);
  ASSERT_EQ(again.size(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(again[i].addr, merged[i].addr);
    EXPECT_EQ(again[i].kind, merged[i].kind);
  }
}

TEST(JointPareto, FrontMembersAreMutuallyNonDominated) {
  const AccessSequence accesses = TestStream(1);
  const JointResult result = ExploreJoint(accesses, JointSpace::Small());
  ASSERT_FALSE(result.front.empty());
  for (const JointPoint& a : result.front) {
    for (const JointPoint& b : result.front) {
      EXPECT_FALSE(JointDominates(a.metrics, b.metrics))
          << JointConfigKey(a.config) << " dominates "
          << JointConfigKey(b.config);
    }
  }
}

TEST(JointPareto, EveryDominatedCandidateIsExcluded) {
  const AccessSequence accesses = TestStream(2);
  const JointSpace space = JointSpace::Small();
  const std::vector<JointPoint> all = AllPoints(accesses, space);
  const JointResult result = ExploreJoint(accesses, space);

  const auto on_front = [&](const HierarchyConfig& config) {
    const std::string key = JointConfigKey(config);
    return std::any_of(result.front.begin(), result.front.end(),
                       [&](const JointPoint& p) {
                         return JointConfigKey(p.config) == key;
                       });
  };
  for (const JointPoint& candidate : all) {
    const bool dominated =
        std::any_of(all.begin(), all.end(), [&](const JointPoint& other) {
          return JointDominates(other.metrics, candidate.metrics);
        });
    EXPECT_EQ(on_front(candidate.config), !dominated)
        << JointConfigKey(candidate.config);
  }
}

TEST(JointPareto, FrontInvariantToInsertionOrder) {
  const AccessSequence accesses = TestStream(3);
  std::vector<JointPoint> points =
      AllPoints(accesses, JointSpace::Small());
  ASSERT_GT(points.size(), 4u);
  const std::vector<JointPoint> front = JointParetoFront(points);

  Rng rng(99);
  for (int round = 0; round < 5; ++round) {
    // Fisher-Yates with the repo Rng: std::shuffle is implementation-defined.
    for (std::size_t i = points.size(); i > 1; --i) {
      std::swap(points[i - 1], points[rng.NextBounded(i)]);
    }
    const std::vector<JointPoint> again = JointParetoFront(points);
    ASSERT_EQ(again.size(), front.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
      EXPECT_EQ(JointConfigKey(again[i].config),
                JointConfigKey(front[i].config));
    }
  }
}

TEST(JointPareto, FrontAndCountersInvariantToJobs) {
  const AccessSequence accesses = TestStream(4, 2);
  const JointSpace space = JointSpace::Small();
  JointOptions options;
  options.jobs = 1;
  const JointResult base = ExploreJoint(accesses, space, options);
  const std::string base_json = JointReportJson(base, space);
  for (std::uint32_t jobs : {2u, 8u}) {
    options.jobs = jobs;
    const JointResult result = ExploreJoint(accesses, space, options);
    EXPECT_EQ(JointReportJson(result, space), base_json) << "jobs=" << jobs;
  }
}

TEST(JointReport, StableKeyOrderAcrossEngines) {
  const AccessSequence accesses = TestStream(5);
  const JointSpace space = JointSpace::Small();
  const std::string fused =
      JointReportJson(ExploreJoint(accesses, space), space);

  // Fixed explicit key order — no map iteration anywhere in the emitters.
  const char* ordered[] = {"\"schema\"", "\"space\"",  "\"counts\"",
                           "\"front\"",  "\"config\"", "\"key\"",
                           "\"l1i\"",    "\"depth\"",  "\"assoc\"",
                           "\"line_words\"", "\"policy\"", "\"metrics\"",
                           "\"l1i_misses\"", "\"amat_ns\"", "\"energy_nj\""};
  std::size_t at = 0;
  for (const char* key : ordered) {
    at = fused.find(key, at);
    ASSERT_NE(at, std::string::npos) << key;
  }
}

TEST(JointReport, RenderIncludesPruningWinLine) {
  const AccessSequence accesses = TestStream(6);
  const JointResult result = ExploreJoint(accesses, JointSpace::Small());
  const std::string text = RenderJointFront(result);
  EXPECT_NE(text.find("pruning win: skipped "), std::string::npos);
  EXPECT_NE(text.find("Pareto front"), std::string::npos);
  const std::string csv = JointFrontCsv(result.front);
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            result.front.size() + 1);
}

// --- simulator cross-validation (satellite: >= 200 sampled configs) ---

struct PolicyCase {
  ReplacementPolicy l1;
  ReplacementPolicy l2;
};

HierarchyConfig SampleConfig(Rng& rng, const PolicyCase& policies) {
  for (;;) {
    const std::uint32_t line = 1u << rng.NextBounded(3);        // 1/2/4
    const std::uint32_t l2_line = line << rng.NextBounded(2);   // >= line
    HierarchyConfig config;
    config.l1i = CacheConfig{1u << rng.NextBounded(5), 1u << rng.NextBounded(3),
                             line, policies.l1,
                             WritePolicy::kWriteBackAllocate};
    config.l1d = CacheConfig{1u << rng.NextBounded(5), 1u << rng.NextBounded(3),
                             line, policies.l1,
                             WritePolicy::kWriteBackAllocate};
    config.l2 = CacheConfig{1u << (3 + rng.NextBounded(5)),
                            1u << rng.NextBounded(3), l2_line, policies.l2,
                            WritePolicy::kWriteBackAllocate};
    if (ValidateJointConfig(config)) return config;
  }
}

// The L2 reference stream the hierarchy produces for this L1 pair (refill,
// then the dirty victim's write-back), replayed through the functional cache
// model — an independent reconstruction of the analytic path's input.
Trace CaptureL2Stream(const AccessSequence& accesses,
                      const HierarchyConfig& config) {
  ces::cache::Cache l1i(config.l1i);
  ces::cache::Cache l1d(config.l1d);
  Trace stream;
  for (const Access& access : accesses) {
    ces::cache::Cache& l1 =
        access.kind == StreamKind::kInstruction ? l1i : l1d;
    ces::cache::Eviction eviction;
    const ces::cache::AccessOutcome outcome =
        l1.Access(access.addr, access.is_write, &eviction);
    if (outcome != ces::cache::AccessOutcome::kHit) {
      stream.refs.push_back(access.addr);
    }
    if (eviction.valid && eviction.dirty) stream.refs.push_back(eviction.addr);
  }
  return stream;
}

TEST(JointCrossValidation, MatchesHierarchySimulatorOn200Configs) {
  const PolicyCase cases[] = {
      {ReplacementPolicy::kLru, ReplacementPolicy::kLru},
      {ReplacementPolicy::kLru, ReplacementPolicy::kFifo},
      {ReplacementPolicy::kLru, ReplacementPolicy::kPlru},
      {ReplacementPolicy::kFifo, ReplacementPolicy::kLru},
      {ReplacementPolicy::kPlru, ReplacementPolicy::kLru},
      {ReplacementPolicy::kRandom, ReplacementPolicy::kLru},
  };
  const AccessSequence traces[] = {TestStream(7, 2, 0.0),
                                   TestStream(8, 2, 0.3),
                                   TestStream(9, 1, 0.5),
                                   RunHeavyStream(11, 0.3)};
  Rng rng(0xC0FFEE);
  int checked = 0;
  // Every (policy case, trace) combination, 11 sampled configurations each.
  for (int i = 0; i < 264; ++i) {
    const PolicyCase& policies = cases[i % 6];
    const AccessSequence& accesses = traces[(i / 6) % 4];
    const HierarchyConfig config = SampleConfig(rng, policies);
    const JointMetrics metrics = EvaluateJointConfig(accesses, config);
    const HierarchyStats sim = SimulateHierarchy(accesses, config);

    // L1s are simulated functionally: exact for every policy, writes
    // included.
    ASSERT_EQ(metrics.l1i_misses, sim.l1i.misses) << JointConfigKey(config);
    ASSERT_EQ(metrics.l1d_misses, sim.l1d.misses) << JointConfigKey(config);
    ASSERT_EQ(metrics.l1d_writebacks, sim.l1d.writebacks)
        << JointConfigKey(config);
    ASSERT_EQ(metrics.l2_accesses, sim.l2.accesses) << JointConfigKey(config);

    if (policies.l2 == ReplacementPolicy::kLru) {
      // LRU L2: the stack profile of the captured L2 stream is exact.
      ASSERT_EQ(metrics.l2_misses, sim.l2.misses) << JointConfigKey(config);
    } else {
      // Non-LRU L2: the estimate and the simulation both lie in the
      // documented bracket [cold, cold + warm_LRU(D2, 1)] — cold misses are
      // policy-independent, and any demand policy hits every per-set
      // stack-distance-0 access (see docs/JOINT_DSE.md).
      const Trace l2_stream = CaptureL2Stream(accesses, config);
      ASSERT_EQ(sim.l2.accesses, l2_stream.refs.size());
      if (l2_stream.refs.empty()) {
        ASSERT_EQ(sim.l2.misses, 0u);
        ASSERT_EQ(metrics.l2_misses, 0u);
        continue;
      }
      ces::analytic::ExplorerOptions options;
      options.line_words = config.l2.line_words;
      options.max_index_bits = std::max(1u, config.l2.index_bits());
      const ces::analytic::Explorer explorer(l2_stream, options);
      const std::uint32_t bits =
          std::min(config.l2.index_bits(), explorer.max_index_bits());
      const ces::cache::StackProfile& profile = explorer.profiles()[bits];
      const std::uint64_t cold = profile.cold;
      const std::uint64_t upper = cold + profile.MissesAtAssoc(1);
      ASSERT_GE(sim.l2.misses, cold) << JointConfigKey(config);
      ASSERT_LE(sim.l2.misses, upper) << JointConfigKey(config);
      ASSERT_GE(metrics.l2_misses, cold) << JointConfigKey(config);
      ASSERT_LE(metrics.l2_misses, upper) << JointConfigKey(config);
    }
    ++checked;
  }
  EXPECT_GE(checked, 200);
}

// --- golden pruning record (tests/joint_golden_small.hpp) ---

// The workloads' merged streams, interleaved as `cachedse explore-joint
// --trace=NAME` does.
std::vector<std::pair<std::string, AccessSequence>> SmallWorkloadStreams() {
  std::vector<std::pair<std::string, AccessSequence>> streams;
  for (const ces::workloads::Workload& workload :
       ces::workloads::AllWorkloads(ces::workloads::Scale::kSmall)) {
    const ces::workloads::WorkloadRun run = ces::workloads::Run(workload);
    EXPECT_TRUE(run.output_matches) << workload.name;
    streams.emplace_back(workload.name,
                         InterleaveProportional(run.instruction_trace,
                                                run.data_trace));
  }
  return streams;
}

TEST(JointGolden, PruningDecisionsAndFrontsMatchTheRecordAtEveryJobCount) {
  const char* const counters[] = {
      "explore.joint_space",           "explore.joint_valid",
      "explore.joint_evaluated",       "explore.joint_pruned",
      "explore.joint_pairs",           "explore.joint_pairs_evaluated",
      "explore.joint_pairs_pruned",    "explore.joint_pairs_threshold",
      "explore.joint_seeds",           "explore.joint_front"};
  const JointSpace space = JointSpace::Default();
  const auto axis = [](const LevelAxes& a) {
    return a.depths.size() * a.assocs.size() * a.lines.size();
  };
  const std::uint64_t max_l1_sims = axis(space.l1i) + axis(space.l1d);
  const auto streams = SmallWorkloadStreams();
  ASSERT_EQ(streams.size(), 12u);

  std::vector<std::uint64_t> l1_sims_at_jobs1;
  for (std::uint32_t jobs : {1u, 2u, 8u}) {
    std::string text;
    for (std::size_t w = 0; w < streams.size(); ++w) {
      const auto& [name, accesses] = streams[w];
      ces::support::MetricsRegistry metrics;
      JointOptions options;
      options.jobs = jobs;
      options.metrics = &metrics;
      const JointResult result = ExploreJoint(accesses, space, options);
      text += "== " + name + "\n";
      for (const char* counter : counters) {
        text += std::string(counter) + " " +
                std::to_string(metrics.counter(counter)) + "\n";
      }
      text += JointFrontCsv(result.front);

      // Each L1 geometry is simulated at most once, whatever the job count.
      EXPECT_EQ(metrics.counter("explore.joint_l1_sims"), result.l1_sims);
      EXPECT_GT(result.l1_sims, 0u) << name;
      EXPECT_LE(result.l1_sims, max_l1_sims) << name;
      if (jobs == 1) {
        l1_sims_at_jobs1.push_back(result.l1_sims);
        // The exhaustive reference scores every pair off the same
        // once-per-geometry simulations and lands on the same front.
        JointOptions exhaustive;
        exhaustive.prune = false;
        const JointResult reference = ExploreJoint(accesses, space, exhaustive);
        EXPECT_EQ(JointFrontCsv(reference.front), JointFrontCsv(result.front))
            << name;
        EXPECT_EQ(reference.l1_sims, max_l1_sims) << name;
      } else {
        EXPECT_EQ(result.l1_sims, l1_sims_at_jobs1[w]) << name;
      }
    }
    EXPECT_EQ(text, joint_golden::kSmallDefaultSpace) << "jobs=" << jobs;
  }
}

TEST(JointMetricsTest, DerivedObjectivesAreConsistent) {
  const AccessSequence accesses = TestStream(10);
  HierarchyConfig config;
  config.l1i = CacheConfig{8, 1, 1};
  config.l1d = CacheConfig{8, 2, 1};
  config.l2 = CacheConfig{64, 2, 2};
  const JointMetrics metrics = EvaluateJointConfig(accesses, config);
  EXPECT_EQ(metrics.l2_accesses, metrics.l1i_misses + metrics.l1d_misses +
                                     metrics.l1d_writebacks);
  EXPECT_EQ(metrics.misses,
            metrics.l1i_misses + metrics.l1d_misses + metrics.l2_misses);
  EXPECT_EQ(metrics.size_words, config.l1i.size_words() +
                                    config.l1d.size_words() +
                                    config.l2.size_words());
  const ces::cache::LatencyModel latency = DeriveLatency(config);
  EXPECT_GT(latency.l1_ns, 0.0);
  EXPECT_GT(latency.l2_ns, 4.0);
  EXPECT_DOUBLE_EQ(latency.memory_ns, 60.0);
  EXPECT_GE(metrics.amat_ns, latency.l1_ns);
  EXPECT_GT(metrics.energy_nj, 0.0);
}

}  // namespace
