// Determinism of every parallel layer: output with jobs=4 must be
// element-for-element identical to jobs=1 — same points, same histograms,
// same coverage counters — on synthetic traces and a real workload trace.
// This is the contract that lets --jobs default to the hardware concurrency
// without perturbing any recorded experiment.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "cache/stack.hpp"
#include "cache/sweep.hpp"
#include "explore/strategy.hpp"
#include "fused_sweep_traces.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"
#include "workloads/workloads.hpp"

namespace {

using ces::cache::StackProfile;

std::vector<ces::trace::Trace> TestTraces() {
  std::vector<ces::trace::Trace> traces;
  traces.push_back(ces::trace::PaperExampleTrace());
  traces.push_back(ces::trace::SequentialLoop(0x40, 96, 5));
  traces.push_back(ces::trace::StridedSweep(0, 64, 48, 6));
  {
    ces::Rng rng(2026);
    traces.push_back(ces::trace::RandomWorkingSet(rng, 300, 4000));
  }
  {
    ces::Rng rng(7);
    traces.push_back(ces::trace::LocalityMix(rng, 64, 2048, 3000));
  }
  return traces;
}

// A real workload trace (crc at the small scale), cached across tests.
const ces::trace::Trace& WorkloadTrace() {
  static const ces::trace::Trace trace = [] {
    const auto* workload =
        ces::workloads::FindWorkload("crc", ces::workloads::Scale::kSmall);
    CES_CHECK(workload != nullptr);
    auto run = ces::workloads::Run(*workload);
    CES_CHECK(run.output_matches);
    return run.data_trace;
  }();
  return trace;
}

void ExpectSameProfile(const StackProfile& a, const StackProfile& b) {
  EXPECT_EQ(a.index_bits, b.index_bits);
  EXPECT_EQ(a.cold, b.cold);
  ASSERT_EQ(a.hist, b.hist);
}

void ExpectSamePoints(const std::vector<ces::analytic::DesignPoint>& a,
                      const std::vector<ces::analytic::DesignPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].depth, b[i].depth) << "depth slot " << i;
    EXPECT_EQ(a[i].assoc, b[i].assoc) << "depth slot " << i;
    EXPECT_EQ(a[i].warm_misses, b[i].warm_misses) << "depth slot " << i;
  }
}

TEST(ParallelDeterminismTest, ExhaustiveSweepPointsAndCoverage) {
  auto traces = TestTraces();
  traces.push_back(WorkloadTrace());
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const bool stop_at_zero : {true, false}) {
      ces::cache::SweepCoverage serial_cov;
      ces::cache::SweepCoverage parallel_cov;
      const auto serial = ces::cache::ExhaustiveSweep(
          traces[t], 5, 4, ces::cache::ReplacementPolicy::kLru, stop_at_zero,
          /*jobs=*/1, &serial_cov);
      const auto parallel = ces::cache::ExhaustiveSweep(
          traces[t], 5, 4, ces::cache::ReplacementPolicy::kLru, stop_at_zero,
          /*jobs=*/4, &parallel_cov);
      ASSERT_EQ(serial.size(), parallel.size())
          << "trace " << t << " stop_at_zero=" << stop_at_zero;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].depth, parallel[i].depth);
        EXPECT_EQ(serial[i].assoc, parallel[i].assoc);
        EXPECT_EQ(serial[i].stats.misses, parallel[i].stats.misses);
        EXPECT_EQ(serial[i].stats.cold_misses, parallel[i].stats.cold_misses);
      }
      EXPECT_EQ(serial_cov.requested, parallel_cov.requested);
      EXPECT_EQ(serial_cov.simulated, parallel_cov.simulated);
      EXPECT_EQ(serial_cov.skipped_invalid, parallel_cov.skipped_invalid);
      EXPECT_EQ(serial_cov.pruned_by_stop, parallel_cov.pruned_by_stop);
    }
  }
}

TEST(ParallelDeterminismTest, AllDepthProfilesDepthPartitioning) {
  ces::support::ThreadPool pool(4);
  for (const auto& trace : TestTraces()) {
    const auto stripped = ces::trace::Strip(trace);
    for (const bool use_tree : {false, true}) {
      const auto serial = ces::cache::ComputeAllDepthProfiles(
          stripped, 6, nullptr, use_tree);
      const auto parallel = ces::cache::ComputeAllDepthProfiles(
          stripped, 6, &pool, use_tree);
      ASSERT_EQ(serial.size(), parallel.size());
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ExpectSameProfile(serial[i], parallel[i]);
      }
    }
  }
}

TEST(ParallelDeterminismTest, EveryStrategyIsJobsInvariant) {
  const auto strategies = ces::explore::AllStrategies();
  auto traces = TestTraces();
  traces.push_back(WorkloadTrace());
  for (const auto& trace : traces) {
    for (const auto& strategy : strategies) {
      const auto serial = strategy->Explore(trace, 12, 5, /*jobs=*/1);
      const auto parallel = strategy->Explore(trace, 12, 5, /*jobs=*/4);
      SCOPED_TRACE(strategy->name());
      ExpectSamePoints(serial.points, parallel.points);
      EXPECT_EQ(serial.simulated_references, parallel.simulated_references);
    }
  }
}

TEST(ParallelDeterminismTest, ExplorerProfilesAreJobsInvariant) {
  for (const auto& trace : TestTraces()) {
    for (const auto engine :
         {ces::analytic::Engine::kFused, ces::analytic::Engine::kReference}) {
      const ces::analytic::Explorer serial(
          trace, {.engine = engine, .max_index_bits = 6, .jobs = 1});
      const ces::analytic::Explorer parallel(
          trace, {.engine = engine, .max_index_bits = 6, .jobs = 4});
      ASSERT_EQ(serial.profiles().size(), parallel.profiles().size());
      for (std::size_t i = 0; i < serial.profiles().size(); ++i) {
        ExpectSameProfile(serial.profiles()[i], parallel.profiles()[i]);
      }
      for (const std::uint64_t k : {0ull, 3ull, 25ull}) {
        ExpectSamePoints(serial.Solve(k).points, parallel.Solve(k).points);
      }
    }
  }
}

// The parallel Explorer prelude against the per-depth MTF oracle (the one
// perfbench checks answers with), computed depth-parallel on its own pool.
TEST(ParallelDeterminismTest, PerDepthPreludeMatchesFusedTraversal) {
  ces::support::ThreadPool pool(4);
  for (const auto& trace : TestTraces()) {
    const ces::analytic::Explorer fused(trace,
                                        {.max_index_bits = 6, .jobs = 4});
    const auto stripped = ces::trace::Strip(trace);
    const auto per_depth = ces::cache::ComputeAllDepthProfiles(
        stripped, fused.max_index_bits(), &pool);
    ASSERT_EQ(fused.profiles().size(), per_depth.size());
    for (std::size_t i = 0; i < per_depth.size(); ++i) {
      ExpectSameProfile(fused.profiles()[i], per_depth[i]);
    }
  }
}

// Differential sweep for the parallel fused prelude, jobs in {1, 2, 8},
// over the paper example, 100 small random traces and the scan-mix traces
// of fused_sweep_traces.hpp. Profiles must equal the per-depth oracle, and
// the deterministic metrics surface (the explore.fused_* work counters and
// their explore.scan_* split) must be byte-identical to the serial
// traversal's — the cut level, task order and merge may never leak into
// results. The scan-mix traces must also run both scans, and at least one
// must scan more Bennett-Kruskal references than the trace holds: the root
// scans each reference once, so that trace ran the scan below the root too.
// There, at jobs 2 and 8, a node runs on whichever lane takes it, with that
// lane's own per-id records.
TEST(ParallelDeterminismTest, FusedSubtreeParallelDifferentialSweep) {
  ces::support::ThreadPool pool2(2);
  ces::support::ThreadPool pool8(8);
  bool fenwick_below_root = false;
  for (const ces_test::SweepTrace& sweep : ces_test::FusedSweepTraces()) {
    SCOPED_TRACE(sweep.name);
    const auto stripped = ces::trace::Strip(sweep.trace);
    const auto oracle = ces::cache::ComputeAllDepthProfiles(
        stripped, sweep.max_bits, nullptr, /*use_tree=*/true);
    std::string expected_metrics;
    for (ces::support::ThreadPool* pool :
         {static_cast<ces::support::ThreadPool*>(nullptr), &pool2, &pool8}) {
      const unsigned jobs = pool == nullptr ? 1u : pool->jobs();
      ces::support::MetricsRegistry metrics;
      ces::analytic::FusedPreludeOptions options;
      options.pool = pool;
      options.metrics = &metrics;
      const auto profiles = ces::analytic::ComputeMissProfilesFused(
          stripped, sweep.max_bits, options);
      ASSERT_EQ(profiles.size(), oracle.size());
      for (std::size_t i = 0; i < profiles.size(); ++i) {
        ExpectSameProfile(profiles[i], oracle[i]);
      }
      const std::string json = metrics.ToJson(/*include_volatile=*/false);
      if (pool == nullptr) {
        expected_metrics = json;
        const std::uint64_t mtf = metrics.counter("explore.scan_mtf_refs");
        const std::uint64_t fenwick =
            metrics.counter("explore.scan_fenwick_refs");
        EXPECT_EQ(mtf + fenwick, metrics.counter("explore.fused_refs"));
        if (sweep.scan_mix) {
          EXPECT_GT(mtf, 0u);
          EXPECT_GT(fenwick, 0u);
          fenwick_below_root |= fenwick > stripped.size();
        }
      } else {
        EXPECT_EQ(json, expected_metrics) << "jobs " << jobs;
      }
    }
  }
  EXPECT_TRUE(fenwick_below_root);
}

// The deterministic metrics surface — counters AND histograms — must be
// byte-identical across jobs values; this is what lets CI diff
// --metrics=json between --jobs=1/2/8 runs.
TEST(ParallelDeterminismTest, MetricsJsonIsJobsAndEngineInvariant) {
  for (const auto& trace : TestTraces()) {
    std::string expected;
    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
      ces::support::MetricsRegistry metrics;
      const ces::analytic::Explorer explorer(
          trace, {.max_index_bits = 6, .jobs = jobs, .metrics = &metrics});
      (void)explorer.Solve(3);
      const std::string json = metrics.ToJson(/*include_volatile=*/false);
      EXPECT_NE(json.find("\"histograms\""), std::string::npos);
      if (expected.empty()) {
        expected = json;
      } else {
        EXPECT_EQ(json, expected) << "jobs " << jobs;
      }
    }
  }
}

TEST(ParallelDeterminismTest, SweepMetricsJsonIsJobsInvariant) {
  const auto& trace = WorkloadTrace();
  std::string expected;
  for (const std::uint32_t jobs : {1u, 2u, 8u}) {
    ces::support::MetricsRegistry metrics;
    (void)ces::cache::ExhaustiveSweep(trace, 5, 4,
                                      ces::cache::ReplacementPolicy::kLru,
                                      /*stop_at_zero=*/true, jobs,
                                      /*coverage=*/nullptr, &metrics);
    const std::string json = metrics.ToJson(/*include_volatile=*/false);
    EXPECT_NE(json.find("\"sweep.shard_configs\""), std::string::npos);
    EXPECT_NE(json.find("\"sweep.warm_misses\""), std::string::npos);
    if (expected.empty()) {
      expected = json;
    } else {
      EXPECT_EQ(json, expected) << "jobs " << jobs;
    }
  }
}

// jobs=0 (hardware concurrency, whatever it is on the host) must also match.
TEST(ParallelDeterminismTest, HardwareConcurrencyDefaultMatchesSerial) {
  const auto& trace = WorkloadTrace();
  const auto serial =
      ces::explore::OnePassStackStrategy().Explore(trace, 20, 5, /*jobs=*/1);
  const auto hw =
      ces::explore::OnePassStackStrategy().Explore(trace, 20, 5, /*jobs=*/0);
  ExpectSamePoints(serial.points, hw.points);
  EXPECT_EQ(serial.simulated_references, hw.simulated_references);
}

}  // namespace
