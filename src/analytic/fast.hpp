// Fused prelude/postlude engine (paper section 2.4).
//
// The paper notes that a real implementation combines Algorithms 1 and 3:
// the BCAT is traversed depth-first without ever being materialised, which
// drops the space complexity from exponential in the tree depth to linear in
// the trace. This engine does exactly that — and does it iteratively and
// allocation-free. The bit-split of Algorithm 1 is a stable binary radix
// partition: each implicit tree node owns a contiguous segment of a shared
// reference buffer, scans it once to record the per-set LRU stack distance
// of every non-cold occurrence into the per-level histogram, then
// partitions the segment into a ping-pong twin buffer so both children are
// again contiguous subranges. Each node picks its scan by a cost model
// (docs/ALGORITHM.md): a move-to-front stack where stacks are shallow, a
// Bennett-Kruskal mark count over a window of 2x the level's distinct
// bound where they are deep. All scratch — the two id buffers, the explicit
// DFS stack, the scan state, the task queue and every histogram (pre-sized
// from per-level residue-class population bounds) — is allocated before
// the first node scan; the traversal itself performs zero heap
// allocations, which tests/fused_alloc_test.cpp pins down.
//
// With a thread pool the top of the tree runs as node tasks: the root is
// split, then every node above a cut level L ~ log2(4 * jobs) is scanned,
// split and queues its children, each level-L subtree runs to the leaves as
// one task, and the root's scan runs beside them. Each pool chunk tallies
// into a private partial histogram; the merged integer sums are
// byte-identical to the serial traversal for every jobs value
// (docs/PARALLEL.md has the argument).
//
// The per-element hot loops — the split-bit count, the stable radix
// partition, and the SoA address-lane fill that lets both stream instead of
// gathering — run through the runtime-dispatched kernels of
// support/simd.hpp (scalar or AVX2, CES_SIMD/--simd override, docs/SIMD.md).
// Kernel selection never changes a byte of the output: the forced-path
// differential sweep in tests/simd_dispatch_test.cpp pins scalar-vs-AVX2
// identity of profiles and deterministic metrics at jobs 1/2/8.
//
// The result is the same vector of per-depth miss histograms the reference
// engine produces, from which the optimal (D, A) set for ANY miss budget K
// follows in O(levels * max distance) — an "all K" capability the explicit
// engine shares but at far higher cost.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/stack.hpp"
#include "trace/strip.hpp"

namespace ces::support {
class MetricsRegistry;
class ThreadPool;
}  // namespace ces::support

namespace ces::analytic {

struct FusedPreludeOptions {
  // Worker pool for the node tasks. Null (or a one-job pool) selects the
  // single-threaded whole-tree traversal; the histograms are byte-identical
  // either way.
  support::ThreadPool* pool = nullptr;
  // When provided, records the deterministic work counters
  // "explore.fused_nodes" (BCAT nodes scanned) and "explore.fused_refs"
  // (references scanned across all node subsequences — the fused engine's
  // honest total, <= (levels+1) * N and strictly less whenever subtrees
  // prune), its split by node scan "explore.scan_mtf_refs" /
  // "explore.scan_fenwick_refs", plus the volatile gauges
  // "explore.cut_level" (the chosen cut depends on the pool size) and
  // "explore.simd_kernel" (the support::simd::Level that ran —
  // host-dependent); both are excluded from the deterministic metrics
  // surface.
  support::MetricsRegistry* metrics = nullptr;
  // Test/bench hook: invoked exactly once, after every scratch buffer has
  // been allocated and before the first node scan. Code running after the
  // hook performs no heap allocation on the serial path (the pool dispatch
  // itself may allocate O(1) per batch); the allocation-counting test and
  // micro_prelude's allocation counter measure from this point.
  std::function<void()> after_setup;
};

// Histograms for depths 2^0 .. 2^max_index_bits, identical (including the
// distance-0 bucket and cold counts) to cache::ComputeAllDepthProfiles and
// to the reference ComputeMissProfiles, for every pool size.
std::vector<cache::StackProfile> ComputeMissProfilesFused(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    const FusedPreludeOptions& options = {});

}  // namespace ces::analytic
