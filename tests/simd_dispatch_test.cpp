// The SIMD dispatch layer contract (support/simd.hpp): the cpuid probe is
// internally consistent, the CES_SIMD/--simd precedence rule is exactly
// "flag beats env beats detection, clamped to what the host supports", and
// every vectorized kernel is bit-exact against its scalar twin — including
// never writing outside the output runs the stable partition owns. The
// forced-path differential sweep then pins the end-to-end guarantee: forcing
// scalar vs AVX2 leaves profiles, solve results and the deterministic
// metrics surface byte-identical over 100 traces at jobs 1/2/8.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "cache/stack.hpp"
#include "fused_sweep_traces.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

namespace simd = ces::support::simd;
using ces::cache::StackProfile;

// RAII guard: saves the process-wide forced level on entry, restores it on
// exit, so tests can force freely without leaking state into each other.
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

// True when the AVX2 kernel table is actually runnable here: the host
// detects AVX2 and the -mavx2 translation unit was compiled in. KernelsFor
// degrades in either failure case, so this is one query.
bool Avx2KernelsAvailable() {
  return simd::KernelsFor(simd::Level::kAvx2).level == simd::Level::kAvx2;
}

TEST(SimdDispatchTest, ProbeShapeIsConsistent) {
  const simd::CpuFeatures features = simd::ProbeCpu();
  // AVX2 without OS-enabled YMM state would fault on the first vector op;
  // the probe must never report that combination.
  if (features.avx2) {
    EXPECT_TRUE(features.os_avx);
  }
  EXPECT_EQ(simd::DetectedLevel(),
            features.avx2 ? simd::Level::kAvx2 : simd::Level::kScalar);
  // Cached: repeated probes agree.
  EXPECT_EQ(simd::DetectedLevel(), simd::DetectedLevel());
  const simd::CpuFeatures again = simd::ProbeCpu();
  EXPECT_EQ(features.os_avx, again.os_avx);
  EXPECT_EQ(features.avx2, again.avx2);
}

TEST(SimdDispatchTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
  for (const simd::Level level : {simd::Level::kScalar, simd::Level::kAvx2}) {
    simd::Level parsed = simd::Level::kScalar;
    ASSERT_TRUE(simd::ParseLevel(simd::LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  for (const char* bad : {"", "AVX2", "Scalar", "sse", "avx", "scalar ",
                          "avx2\n", "2"}) {
    simd::Level untouched = simd::Level::kAvx2;
    EXPECT_FALSE(simd::ParseLevel(bad, &untouched)) << "'" << bad << "'";
    EXPECT_EQ(untouched, simd::Level::kAvx2) << "'" << bad << "'";
  }
}

TEST(SimdDispatchTest, ResolvePrecedenceIsFlagOverEnvOverDetection) {
  const simd::Level scalar = simd::Level::kScalar;
  const simd::Level avx2 = simd::Level::kAvx2;

  // No overrides: plain detection.
  EXPECT_EQ(simd::Resolve(avx2, nullptr, nullptr), avx2);
  EXPECT_EQ(simd::Resolve(scalar, nullptr, nullptr), scalar);

  // Env beats detection, downward.
  EXPECT_EQ(simd::Resolve(avx2, "scalar", nullptr), scalar);
  // Unparseable env is ignored, not an error.
  EXPECT_EQ(simd::Resolve(avx2, "turbo", nullptr), avx2);
  EXPECT_EQ(simd::Resolve(avx2, "", nullptr), avx2);

  // Flag beats env.
  EXPECT_EQ(simd::Resolve(avx2, "scalar", &avx2), avx2);
  EXPECT_EQ(simd::Resolve(avx2, "avx2", &scalar), scalar);

  // Requests above detection clamp down instead of failing — env and flag
  // alike. This is the graceful-fallback contract.
  EXPECT_EQ(simd::Resolve(scalar, "avx2", nullptr), scalar);
  EXPECT_EQ(simd::Resolve(scalar, nullptr, &avx2), scalar);
  EXPECT_EQ(simd::Resolve(scalar, "scalar", &avx2), scalar);
}

TEST(SimdDispatchTest, ForceLevelWinsUntilCleared) {
  ForcedLevelGuard guard;

  simd::ForceLevel(simd::Level::kScalar);
  simd::Level forced = simd::Level::kAvx2;
  ASSERT_TRUE(simd::ForcedLevel(&forced));
  EXPECT_EQ(forced, simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveKernels().level, simd::Level::kScalar);

  // Forcing above detection degrades to the detected level via the clamp.
  simd::ForceLevel(simd::Level::kAvx2);
  EXPECT_EQ(simd::ActiveLevel(),
            simd::DetectedLevel() == simd::Level::kAvx2 ? simd::Level::kAvx2
                                                        : simd::Level::kScalar);

  simd::ClearForcedLevel();
  EXPECT_FALSE(simd::ForcedLevel(&forced));
}

TEST(SimdDispatchTest, KernelTablesDegradeAndSelfDescribe) {
  const simd::Kernels& scalar = simd::KernelsFor(simd::Level::kScalar);
  EXPECT_EQ(scalar.level, simd::Level::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_NE(scalar.count_zero_bits, nullptr);
  EXPECT_NE(scalar.partition_pair, nullptr);
  EXPECT_NE(scalar.gather, nullptr);

  const simd::Kernels& best = simd::KernelsFor(simd::Level::kAvx2);
  // Never above what the host (or the build) can run.
  EXPECT_LE(static_cast<std::uint32_t>(best.level),
            static_cast<std::uint32_t>(simd::DetectedLevel()));
  EXPECT_STREQ(best.name, simd::LevelName(best.level));
  EXPECT_NE(best.count_zero_bits, nullptr);
  EXPECT_NE(best.partition_pair, nullptr);
  EXPECT_NE(best.gather, nullptr);
}

// Bit-exactness of each kernel against a naive reference, over sizes that
// exercise the empty case, sub-vector tails, exact vector multiples and
// large ragged arrays. Canary slots beyond each output run verify the
// masked-store discipline: the partition must never touch bytes outside the
// two runs it owns, because sibling subtree segments are scanned
// concurrently by pool workers.
TEST(SimdDispatchTest, KernelsMatchNaiveReference) {
  constexpr std::uint32_t kCanary = 0xA5A5A5A5u;
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (Avx2KernelsAvailable()) levels.push_back(simd::Level::kAvx2);

  ces::Rng rng(20260809);
  const std::uint32_t table_size = 4096;
  std::vector<std::uint32_t> table(table_size);
  for (auto& slot : table) {
    slot = static_cast<std::uint32_t>(rng.NextInRange(0, 0xFFFFFFFFull));
  }

  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
        std::size_t{8}, std::size_t{9}, std::size_t{16}, std::size_t{31},
        std::size_t{100}, std::size_t{1000}, std::size_t{4097}}) {
    std::vector<std::uint32_t> ids(n);
    std::vector<std::uint32_t> addrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<std::uint32_t>(rng.NextInRange(0, table_size - 1));
      addrs[i] = static_cast<std::uint32_t>(rng.NextInRange(0, 0xFFFFFFFFull));
    }
    for (const std::uint32_t shift : {0u, 1u, 5u, 17u, 31u}) {
      // Naive references.
      std::size_t naive_zeros = 0;
      std::vector<std::uint32_t> naive_ids_left, naive_addrs_left;
      std::vector<std::uint32_t> naive_ids_right, naive_addrs_right;
      for (std::size_t i = 0; i < n; ++i) {
        if (((addrs[i] >> shift) & 1u) == 0) {
          ++naive_zeros;
          naive_ids_left.push_back(ids[i]);
          naive_addrs_left.push_back(addrs[i]);
        } else {
          naive_ids_right.push_back(ids[i]);
          naive_addrs_right.push_back(addrs[i]);
        }
      }
      std::vector<std::uint32_t> naive_gather(n);
      for (std::size_t i = 0; i < n; ++i) naive_gather[i] = table[ids[i]];

      for (const simd::Level level : levels) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " n=" +
                     std::to_string(n) + " shift=" + std::to_string(shift));
        const simd::Kernels& kernels = simd::KernelsFor(level);
        ASSERT_EQ(kernels.level, level);

        EXPECT_EQ(kernels.count_zero_bits(addrs.data(), n, shift),
                  naive_zeros);

        constexpr std::size_t kPad = 16;
        std::vector<std::uint32_t> ids_left(naive_zeros + kPad, kCanary);
        std::vector<std::uint32_t> addrs_left(naive_zeros + kPad, kCanary);
        std::vector<std::uint32_t> ids_right(n - naive_zeros + kPad, kCanary);
        std::vector<std::uint32_t> addrs_right(n - naive_zeros + kPad,
                                               kCanary);
        kernels.partition_pair(ids.data(), addrs.data(), n, shift,
                               ids_left.data(), addrs_left.data(),
                               ids_right.data(), addrs_right.data());
        for (std::size_t i = 0; i < naive_zeros; ++i) {
          ASSERT_EQ(ids_left[i], naive_ids_left[i]) << "left slot " << i;
          ASSERT_EQ(addrs_left[i], naive_addrs_left[i]) << "left slot " << i;
        }
        for (std::size_t i = 0; i < n - naive_zeros; ++i) {
          ASSERT_EQ(ids_right[i], naive_ids_right[i]) << "right slot " << i;
          ASSERT_EQ(addrs_right[i], naive_addrs_right[i])
              << "right slot " << i;
        }
        for (std::size_t i = 0; i < kPad; ++i) {
          ASSERT_EQ(ids_left[naive_zeros + i], kCanary)
              << "write past the left run at +" << i;
          ASSERT_EQ(addrs_left[naive_zeros + i], kCanary)
              << "write past the left run at +" << i;
          ASSERT_EQ(ids_right[n - naive_zeros + i], kCanary)
              << "write past the right run at +" << i;
          ASSERT_EQ(addrs_right[n - naive_zeros + i], kCanary)
              << "write past the right run at +" << i;
        }

        std::vector<std::uint32_t> gathered(n + kPad, kCanary);
        kernels.gather(ids.data(), n, table.data(), gathered.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(gathered[i], naive_gather[i]) << "gather slot " << i;
        }
        for (std::size_t i = 0; i < kPad; ++i) {
          ASSERT_EQ(gathered[n + i], kCanary)
              << "write past the gather output at +" << i;
        }
      }
    }
  }
}

// The traversal reports which kernel ran as the volatile gauge
// "explore.simd_kernel" (numeric Level value) — present in the full metrics
// snapshot, absent from the deterministic surface, so kernel selection can
// never perturb a byte-identity diff.
TEST(SimdDispatchTest, GaugeRecordsKernelAndStaysOutOfDeterministicJson) {
  const auto stripped = ces::trace::Strip(ces::trace::PaperExampleTrace());
  ces::support::MetricsRegistry metrics;
  ces::analytic::FusedPreludeOptions options;
  options.metrics = &metrics;
  (void)ces::analytic::ComputeMissProfilesFused(stripped, 3, options);
  EXPECT_EQ(metrics.gauge("explore.simd_kernel"),
            static_cast<std::uint64_t>(simd::ActiveKernels().level));
  EXPECT_NE(metrics.ToJson(/*include_volatile=*/true)
                .find("\"explore.simd_kernel\""),
            std::string::npos);
  EXPECT_EQ(metrics.ToJson(/*include_volatile=*/false)
                .find("\"explore.simd_kernel\""),
            std::string::npos);
}

void ExpectSameProfile(const StackProfile& a, const StackProfile& b) {
  EXPECT_EQ(a.index_bits, b.index_bits);
  EXPECT_EQ(a.cold, b.cold);
  ASSERT_EQ(a.hist, b.hist);
}

// The end-to-end identity gate: force scalar, then force AVX2, over the
// trace set of fused_sweep_traces.hpp (the paper example, 100 small random
// traces and the scan-mix traces), jobs 1/2/8. Profiles must equal the
// per-depth oracle and the deterministic metrics surface must be
// byte-identical across levels — kernel selection is an implementation
// detail that may never reach results. Mirrors
// FusedSubtreeParallelDifferentialSweep, with the kernel level as the
// differential axis instead of the pool size.
TEST(SimdDispatchTest, ForcedPathDifferentialSweep) {
  if (!Avx2KernelsAvailable()) {
    GTEST_SKIP() << "AVX2 kernels unavailable (detected="
                 << simd::LevelName(simd::DetectedLevel())
                 << "); nothing to differentiate against scalar";
  }
  ForcedLevelGuard guard;

  ces::support::ThreadPool pool2(2);
  ces::support::ThreadPool pool8(8);
  for (const ces_test::SweepTrace& sweep : ces_test::FusedSweepTraces()) {
    SCOPED_TRACE(sweep.name);
    const auto stripped = ces::trace::Strip(sweep.trace);
    const auto oracle = ces::cache::ComputeAllDepthProfiles(
        stripped, sweep.max_bits, nullptr, /*use_tree=*/true);
    for (ces::support::ThreadPool* pool :
         {static_cast<ces::support::ThreadPool*>(nullptr), &pool2, &pool8}) {
      const unsigned jobs = pool == nullptr ? 1u : pool->jobs();
      std::string expected_metrics;
      for (const simd::Level level :
           {simd::Level::kScalar, simd::Level::kAvx2}) {
        simd::ForceLevel(level);
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
        if (sweep.scan_mix) {
          EXPECT_GT(metrics.counter("explore.scan_mtf_refs"), 0u);
          EXPECT_GT(metrics.counter("explore.scan_fenwick_refs"), 0u);
        }
        const std::string json = metrics.ToJson(/*include_volatile=*/false);
        if (expected_metrics.empty()) {
          expected_metrics = json;
        } else {
          EXPECT_EQ(json, expected_metrics) << "jobs " << jobs;
        }
      }
    }
  }
}

// Solve results ride on the profiles, so they inherit identity — but pin it
// directly anyway: the optimal (D, A) schedule for several budgets must not
// depend on the kernel level.
TEST(SimdDispatchTest, SolveIsKernelLevelInvariant) {
  if (!Avx2KernelsAvailable()) {
    GTEST_SKIP() << "AVX2 kernels unavailable (detected="
                 << simd::LevelName(simd::DetectedLevel()) << ")";
  }
  ForcedLevelGuard guard;

  ces::Rng rng(42);
  std::vector<ces::trace::Trace> traces;
  traces.push_back(ces::trace::PaperExampleTrace());
  traces.push_back(ces::trace::RandomWorkingSet(rng, 300, 4000));
  traces.push_back(ces::trace::LocalityMix(rng, 64, 2048, 3000));

  for (const auto& trace : traces) {
    simd::ForceLevel(simd::Level::kScalar);
    const ces::analytic::Explorer scalar(trace,
                                         {.max_index_bits = 6, .jobs = 2});
    simd::ForceLevel(simd::Level::kAvx2);
    const ces::analytic::Explorer avx2(trace, {.max_index_bits = 6, .jobs = 2});
    ASSERT_EQ(scalar.profiles().size(), avx2.profiles().size());
    for (std::size_t i = 0; i < scalar.profiles().size(); ++i) {
      ExpectSameProfile(scalar.profiles()[i], avx2.profiles()[i]);
    }
    for (const std::uint64_t k : {0ull, 3ull, 25ull}) {
      const auto a = scalar.Solve(k);
      const auto b = avx2.Solve(k);
      ASSERT_EQ(a.points.size(), b.points.size());
      for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].depth, b.points[i].depth);
        EXPECT_EQ(a.points[i].assoc, b.points[i].assoc);
        EXPECT_EQ(a.points[i].warm_misses, b.points[i].warm_misses);
      }
    }
  }
}

}  // namespace
