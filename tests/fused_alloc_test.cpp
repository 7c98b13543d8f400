// Pins the fused prelude's allocation-freedom contract: once
// FusedPreludeOptions::after_setup has fired, the traversal — node scans,
// partitions, subtree fan-out, histogram merge and canonicalisation — runs
// without touching the heap. The serial path must be exactly zero
// allocations; the parallel path is allowed the pool-dispatch constant
// (std::function wrappers are small enough for SBO on the toolchains we
// build with, but the bound keeps the test honest rather than
// stdlib-version-brittle).
//
// The same binary pins that a prelude build's memory does not grow with
// 2^max_index_bits: the setup pre-sizes from the N' unique lines only.
//
// The counter lives in a replaced global operator new, which is why this
// contract has its own binary: counting is only armed inside the traversal,
// so gtest's own allocations never pollute the measurement.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "analytic/explorer.hpp"
#include "analytic/fast.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
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

std::uint64_t CountTraversalAllocations(
    const ces::trace::StrippedTrace& s, ces::support::ThreadPool* pool,
    ces::analytic::CollapseMode collapse =
        ces::analytic::CollapseMode::kCostModel) {
  ces::analytic::FusedPreludeOptions options;
  options.pool = pool;
  options.collapse = collapse;
  options.after_setup = [] {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  };
  const auto profiles = ces::analytic::ComputeMissProfilesFused(s, 8, options);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(profiles.size(), 9u);
  return g_allocations.load(std::memory_order_relaxed);
}

// N' is about 2.2k, so the top of the tree takes the Bennett-Kruskal scan
// (window renumberings included) and the bottom the move-to-front scan.
ces::trace::StrippedTrace TestStripped() {
  ces::Rng rng(42);
  return ces::trace::Strip(ces::trace::LocalityMix(rng, 128, 2048, 50000));
}

// Pins that the counted traversals below exercise both scans; counted
// separately because recording metrics allocates.
TEST(FusedAllocTest, TestTraceRunsBothScans) {
  ces::support::MetricsRegistry metrics;
  ces::analytic::FusedPreludeOptions options;
  options.metrics = &metrics;
  (void)ces::analytic::ComputeMissProfilesFused(TestStripped(), 8, options);
  EXPECT_GT(metrics.counter("explore.scan_fenwick_refs"), 0u);
  EXPECT_GT(metrics.counter("explore.scan_mtf_refs"), 0u);
}

TEST(FusedAllocTest, SerialTraversalIsAllocationFree) {
  EXPECT_EQ(CountTraversalAllocations(TestStripped(), nullptr), 0u);
}

TEST(FusedAllocTest, ParallelTraversalAllocatesAtMostDispatchConstant) {
  const auto stripped = TestStripped();
  ces::support::ThreadPool pool(8);
  EXPECT_LE(CountTraversalAllocations(stripped, &pool), 16u);
}

// The collapse runs before the hook, and the weighted traversal's scratch
// (the weight lanes included) is sized by the collapsed length up front.
TEST(FusedAllocTest, CollapsedTraversalIsAllocationFree) {
  ces::trace::Trace loops;
  for (int outer = 0; outer < 300; ++outer) {
    for (std::uint32_t word = 0; word < 8; ++word) loops.refs.push_back(word);
    for (int inner = 0; inner < 20 + outer % 3; ++inner) {
      for (std::uint32_t word = 64; word < 80; ++word) {
        loops.refs.push_back(word);
      }
    }
  }
  const auto stripped = ces::trace::Strip(loops);
  ces::support::ThreadPool pool(8);
  for (const auto mode : {ces::analytic::CollapseMode::kCostModel,
                          ces::analytic::CollapseMode::kAlways}) {
    EXPECT_EQ(CountTraversalAllocations(stripped, nullptr, mode), 0u);
    EXPECT_LE(CountTraversalAllocations(stripped, &pool, mode), 16u);
  }
  EXPECT_EQ(CountTraversalAllocations(TestStripped(), nullptr,
                                      ces::analytic::CollapseMode::kAlways),
            0u);
}

// 12 references whose lines differ in bit 27, so the build explores
// 2^28 sets. With a metrics registry, as the daemon passes on every cold
// build, the prelude and its per-set histograms together stay far below
// one byte per set.
TEST(FusedAllocTest, PreludeBuildMemoryIsIndependentOfSetCount) {
  ces::trace::Trace trace;
  for (std::uint32_t address : {0u, 1u << 27, 5u, 0u, 9u, 1u << 27, 5u, 3u,
                                (1u << 27) + 3, 9u, 0u, 3u}) {
    trace.refs.push_back(address);
  }
  ces::support::MetricsRegistry metrics;
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const ces::analytic::Explorer explorer(
      trace, {.max_index_bits = 28, .jobs = 1, .metrics = &metrics});
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_EQ(explorer.max_index_bits(), 28u);
  EXPECT_LE(g_bytes.load(std::memory_order_relaxed), std::uint64_t{1} << 20);
  EXPECT_EQ(metrics.histogram("explore.set_accesses").count,
            std::uint64_t{1} << 28);
  EXPECT_EQ(metrics.histogram("explore.set_accesses").sum, 12u);
  EXPECT_EQ(metrics.histogram("explore.set_cold_misses").sum, 6u);
}

}  // namespace
