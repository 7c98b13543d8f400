// Prelude microbenchmark: the fused traversal (serial and parallel)
// against the one-pass-per-depth baseline on a large synthetic trace. It
// checks three claims:
//
//   * wall clock — parallel fused must beat serial fused;
//   * total refs scanned — the fused traversal's honest work counter
//     (explore.fused_refs, the sum of *active* node subsequence lengths)
//     must undercut the per-depth baseline's (depths + 1) * N
//     (stack.refs_scanned), because pruned subtrees scan nothing;
//   * allocations after setup — the fused traversal performs none (the
//     global operator new below counts them, armed via the after_setup
//     hook, mirroring tests/fused_alloc_test.cpp).
//
// The bench also owns the SIMD dispatch scoreboard (docs/SIMD.md): every
// row reports the kernel level it ran (the Kernel column) and its scan
// throughput (refs/sec, also the `refs_per_sec` counter in the JSON report
// — what tools/bench_diff gates on in CI), and a dispatch section re-runs
// the serial fused traversal under every level the host supports so one
// invocation prints the scalar-vs-avx2 comparison directly.
//
// Flags: --refs=1200000  --max-bits=14  --jobs=0 (0 = hardware concurrency)
//        --repeats=3  --json=PATH (ces-bench-v1, docs/OBSERVABILITY.md)
//        --simd=scalar|avx2 (force a dispatch level, beats CES_SIMD)
//        --per-depth=false (skip the per-depth baseline rows)
//        --simd-probe (print "detected=L active=L" and exit — CI uses this
//                      to decide whether an avx2 run is possible)
//
// Note on wall clock: the parallel-vs-serial fused comparison needs real
// hardware concurrency; on a single-core host the speedup is ~1.0x by
// construction while the refs-scanned and allocation columns still hold.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "analytic/fast.hpp"
#include "bench_util.hpp"
#include "cache/stack.hpp"
#include "support/cli.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct Measurement {
  std::vector<double> wall_seconds;
  std::map<std::string, std::uint64_t> counters;
  double best() const {
    return *std::min_element(wall_seconds.begin(), wall_seconds.end());
  }
};

Measurement RunFused(const ces::trace::StrippedTrace& stripped,
                     std::uint32_t max_bits, ces::support::ThreadPool* pool,
                     int repeats) {
  Measurement m;
  for (int r = 0; r < repeats; ++r) {
    ces::support::MetricsRegistry metrics;
    ces::analytic::FusedPreludeOptions options;
    options.pool = pool;
    options.metrics = &metrics;
    ces::Stopwatch watch;
    const auto profiles =
        ces::analytic::ComputeMissProfilesFused(stripped, max_bits, options);
    (void)profiles;
    m.wall_seconds.push_back(watch.ElapsedSeconds());
    m.counters = {
        {"fused_nodes", metrics.counter("explore.fused_nodes")},
        {"refs_scanned", metrics.counter("explore.fused_refs")},
    };
  }
  // One untimed metrics-free pass for the allocation counter: with a null
  // registry nothing after the setup hook may touch the heap (the registry's
  // own name/map bookkeeping would otherwise show up in the count).
  {
    ces::analytic::FusedPreludeOptions options;
    options.pool = pool;
    options.after_setup = [] {
      g_allocations.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
    };
    const auto profiles =
        ces::analytic::ComputeMissProfilesFused(stripped, max_bits, options);
    g_counting.store(false, std::memory_order_relaxed);
    (void)profiles;
    m.counters["allocations_after_setup"] =
        g_allocations.load(std::memory_order_relaxed);
  }
  return m;
}

Measurement RunPerDepth(const ces::trace::StrippedTrace& stripped,
                        std::uint32_t max_bits, ces::support::ThreadPool* pool,
                        int repeats) {
  Measurement m;
  for (int r = 0; r < repeats; ++r) {
    ces::support::MetricsRegistry metrics;
    ces::Stopwatch watch;
    const auto profiles = ces::cache::ComputeAllDepthProfiles(
        stripped, max_bits, pool, /*use_tree=*/false, &metrics);
    m.wall_seconds.push_back(watch.ElapsedSeconds());
    (void)profiles;
    m.counters = {{"refs_scanned", metrics.counter("stack.refs_scanned")}};
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  namespace simd = ces::support::simd;
  const ces::ArgParser args(argc, argv);
  if (args.Has("simd-probe")) {
    std::printf("detected=%s active=%s\n",
                simd::LevelName(simd::DetectedLevel()),
                simd::LevelName(simd::ActiveLevel()));
    return 0;
  }
  if (args.Has("simd")) {
    simd::Level forced;
    const std::string name = args.GetString("simd", "");
    if (!simd::ParseLevel(name.c_str(), &forced)) {
      std::fprintf(stderr, "invalid --simd=%s (want scalar|avx2)\n",
                   name.c_str());
      return 2;
    }
    simd::ForceLevel(forced);
  }
  const auto refs = static_cast<std::uint32_t>(args.GetInt("refs", 1200000));
  const auto max_bits =
      static_cast<std::uint32_t>(args.GetInt("max-bits", 14));
  const auto jobs_flag = static_cast<std::uint32_t>(args.GetInt("jobs", 0));
  const std::uint32_t jobs =
      jobs_flag == 0 ? ces::support::HardwareConcurrency() : jobs_flag;
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));
  const bool run_per_depth = args.GetBool("per-depth", true);
  ces::bench::BenchReporter reporter("micro_prelude", args);

  // A large embedded-style trace: a hot region with sequential runs plus a
  // cold region. The working set (~2.3k lines) is much smaller than the
  // deepest explored depth (2^max_bits sets), so from ~level log2(N') on
  // every index class holds at most one line and the fused traversal prunes
  // the whole subtree — that gap is exactly what the per-depth baseline,
  // which rescans all N refs once per depth, cannot exploit.
  ces::Rng rng(20260806);
  const auto stripped = ces::trace::Strip(
      ces::trace::LocalityMix(rng, 256, 2048, refs, /*hot_fraction=*/0.85));
  std::fprintf(stderr,
               "[setup] trace: N=%zu N'=%llu max-bits=%u jobs=%u "
               "simd: detected=%s active=%s\n",
               stripped.size(),
               static_cast<unsigned long long>(stripped.unique_count()),
               max_bits, jobs, simd::LevelName(simd::DetectedLevel()),
               simd::LevelName(simd::ActiveLevel()));

  ces::support::ThreadPool pool(jobs);
  ces::AsciiTable table({"Variant", "Jobs", "Kernel", "Wall (best)",
                         "Refs scanned", "Refs/sec", "Allocs post-setup"});
  std::map<std::string, double> best;
  std::map<std::string, std::uint64_t> refs_scanned;

  // Rows are keyed "<variant>/<jobs>" in the JSON report so every result
  // name is unique — tools/bench_diff matches rows by name across runs.
  const auto report = [&](const std::string& name, std::uint32_t j,
                          const Measurement& m) {
    const std::string kernel = simd::ActiveKernels().name;
    const auto scanned = m.counters.count("refs_scanned")
                             ? m.counters.at("refs_scanned")
                             : 0;
    Measurement with_rate = m;
    with_rate.counters["refs_per_sec"] = static_cast<std::uint64_t>(
        m.best() > 0 ? static_cast<double>(scanned) / m.best() : 0.0);
    std::map<std::string, std::string> params = {
        {"refs", std::to_string(refs)},
        {"max_bits", std::to_string(max_bits)},
        {"jobs", std::to_string(j)},
        {"simd", kernel}};
    reporter.Add(name + "/" + std::to_string(j), std::move(params), repeats,
                 with_rate.wall_seconds, with_rate.counters);
    const auto allocs =
        m.counters.count("allocations_after_setup")
            ? std::to_string(m.counters.at("allocations_after_setup"))
            : std::string("-");
    table.AddRow({name, std::to_string(j), kernel,
                  ces::FormatSeconds(m.best()),
                  ces::FormatWithThousands(scanned),
                  ces::FormatWithThousands(
                      with_rate.counters.at("refs_per_sec")),
                  allocs});
    best[name + "/" + std::to_string(j)] = m.best();
    refs_scanned[name] = scanned;
  };

  report("fused", 1, RunFused(stripped, max_bits, nullptr, repeats));
  report("fused", jobs, RunFused(stripped, max_bits, &pool, repeats));
  if (run_per_depth) {
    report("per_depth", jobs, RunPerDepth(stripped, max_bits, &pool, repeats));
  }

  // Dispatch scoreboard: the serial fused traversal re-runs under every
  // level the host supports (ForceLevel beats CES_SIMD, so this works even
  // inside a forced run); the rows land in the JSON as dispatch/fused/
  // <level> and the summary line prints the scalar->avx2 ratio.
  double scalar_rate = 0, avx2_rate = 0;
  {
    simd::Level saved;
    const bool had_forced = simd::ForcedLevel(&saved);
    std::vector<simd::Level> levels = {simd::Level::kScalar};
    if (simd::DetectedLevel() == simd::Level::kAvx2) {
      levels.push_back(simd::Level::kAvx2);
    }
    for (const simd::Level level : levels) {
      simd::ForceLevel(level);
      const Measurement m = RunFused(stripped, max_bits, nullptr, repeats);
      const auto scanned = m.counters.at("refs_scanned");
      const double rate =
          m.best() > 0 ? static_cast<double>(scanned) / m.best() : 0.0;
      (level == simd::Level::kAvx2 ? avx2_rate : scalar_rate) = rate;
      reporter.Add(std::string("dispatch/fused/") + simd::LevelName(level),
                   {{"refs", std::to_string(refs)},
                    {"max_bits", std::to_string(max_bits)},
                    {"jobs", "1"},
                    {"simd", simd::LevelName(level)}},
                   repeats, m.wall_seconds,
                   {{"refs_scanned", scanned},
                    {"refs_per_sec", static_cast<std::uint64_t>(rate)}});
    }
    if (had_forced) {
      simd::ForceLevel(saved);
    } else {
      simd::ClearForcedLevel();
    }
  }

  std::printf("== micro_prelude: fused traversal vs per-depth baseline "
              "(N=%u, depths<=2^%u) ==\n",
              refs, max_bits);
  std::fputs(table.ToString().c_str(), stdout);
  std::printf("fused: parallel speedup %.2fx over serial",
              best["fused/1"] / best["fused/" + std::to_string(jobs)]);
  if (run_per_depth) {
    std::printf("; refs scanned %.1f%% of per-depth baseline",
                100.0 * static_cast<double>(refs_scanned["fused"]) /
                    static_cast<double>(refs_scanned["per_depth"]));
  }
  std::printf("\n");
  if (simd::DetectedLevel() == simd::Level::kAvx2) {
    std::printf(
        "dispatch fused: scalar %.3gM refs/s -> avx2 %.3gM refs/s (%.2fx)\n",
        scalar_rate / 1e6, avx2_rate / 1e6,
        scalar_rate > 0 ? avx2_rate / scalar_rate : 0.0);
  } else {
    std::printf("dispatch: avx2 unavailable on this host (detected=%s)\n",
                simd::LevelName(simd::DetectedLevel()));
  }
  reporter.Write();
  return 0;
}
