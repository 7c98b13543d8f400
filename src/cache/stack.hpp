// One-pass per-set LRU stack-distance analysis (Mattson et al. [17],
// generalised to set-associative caches by partitioning on the index bits).
//
// For a fixed depth D = 2^index_bits a single pass over the trace yields the
// histogram of per-set stack distances; the number of non-cold misses of a
// D x A LRU cache is then the histogram's tail sum for distances >= A, for
// EVERY A at once. This is the strongest of the "one-pass" baselines the
// paper cites ([16][17]) and doubles as an independent oracle for the
// analytical engine: both must produce identical numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/strip.hpp"

namespace ces::support {
class MetricsRegistry;
class ThreadPool;
}  // namespace ces::support

namespace ces::cache {

struct StackProfile {
  std::uint32_t index_bits = 0;  // depth = 1 << index_bits
  // hist[d] = number of non-cold accesses whose per-set LRU stack distance is
  // exactly d (d = count of distinct same-set lines touched since the
  // previous access to this line). d == 0 accesses hit in any cache.
  std::vector<std::uint64_t> hist;
  std::uint64_t cold = 0;
  // Optional solve cache: miss_tail[a] = sum of hist[d] for d >= a (size
  // hist.size() + 1, non-increasing). Built once by FinalizeSolveCache();
  // empty until then. Not part of the profile's identity — engines compare
  // profiles by hist/cold.
  std::vector<std::uint64_t> miss_tail;

  std::uint32_t depth() const { return 1u << index_bits; }

  // Builds the miss_tail suffix sums so MissesAtAssoc is O(1) and
  // MinAssocFor is O(log hist) — the steady-state hot path when a service
  // batches many K queries against one prelude. Call after hist is final
  // (it caches hist verbatim); idempotent, and must not race with queries,
  // so build it before sharing the profile across threads.
  void FinalizeSolveCache();

  // Non-cold misses of a (depth, assoc) LRU cache. O(1) with the solve
  // cache, O(hist) without.
  std::uint64_t MissesAtAssoc(std::uint32_t assoc) const;

  // Smallest associativity whose non-cold miss count is <= k. This is the
  // paper's per-depth answer. O(log hist) with the solve cache, O(hist)
  // without.
  std::uint32_t MinAssocFor(std::uint64_t k) const;

  // Smallest associativity with zero non-cold misses (the paper's A_zero).
  std::uint32_t ZeroMissAssoc() const { return MinAssocFor(0); }

  // Total non-cold accesses recorded.
  std::uint64_t WarmAccesses() const;
};

// Single pass over the stripped trace for one depth (move-to-front stacks;
// O(N * mean stack depth), the fastest choice for embedded traces whose
// reuse distances are short).
StackProfile ComputeStackProfile(const trace::StrippedTrace& stripped,
                                 std::uint32_t index_bits);

// Same result via the Bennett-Kruskal algorithm: per-set subsequences with a
// Fenwick tree of "most recent occurrence" marks, O(N log N) regardless of
// stack depth. Preferable when working sets are large and reuse distances
// long; bench/ablation_engines quantifies the crossover.
StackProfile ComputeStackProfileTree(const trace::StrippedTrace& stripped,
                                     std::uint32_t index_bits);

// Profiles for every depth 2^0 .. 2^max_index_bits (one pass each): the
// per-depth oracle the fused prelude is tested and benchmarked against. With
// a pool, depths are computed concurrently (each depth's pass stays serial);
// `use_tree` selects the Bennett-Kruskal scan. Scan
// scratch (per-set buckets, per-reference bookkeeping, Fenwick storage) is
// reused across the depths of a chunk, so after warm-up the passes allocate
// nothing per depth.
// When `metrics` is provided, records "stack.passes" (one per depth) and
// "stack.refs_scanned" (trace length x depths — the work a one-pass-per-depth
// prelude performs) plus the wall-clock span "stack.all_depths_seconds".
std::vector<StackProfile> ComputeAllDepthProfiles(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    support::ThreadPool* pool = nullptr, bool use_tree = false,
    support::MetricsRegistry* metrics = nullptr);

}  // namespace ces::cache
