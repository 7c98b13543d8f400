#include "cache/stack.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"
#include "support/fenwick.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/trace_event.hpp"

namespace ces::cache {

void StackProfile::FinalizeSolveCache() {
  miss_tail.assign(hist.size() + 1, 0);
  for (std::size_t d = hist.size(); d-- > 0;) {
    miss_tail[d] = miss_tail[d + 1] + hist[d];
  }
}

std::uint64_t StackProfile::MissesAtAssoc(std::uint32_t assoc) const {
  CES_CHECK(assoc >= 1);
  if (!miss_tail.empty()) {
    return assoc < miss_tail.size() ? miss_tail[assoc] : 0;
  }
  std::uint64_t misses = 0;
  for (std::size_t d = assoc; d < hist.size(); ++d) misses += hist[d];
  return misses;
}

std::uint32_t StackProfile::MinAssocFor(std::uint64_t k) const {
  if (!miss_tail.empty()) {
    // miss_tail is non-increasing over a >= 1 and miss_tail[hist.size()] is
    // zero, so the smallest admissible associativity is a binary search away.
    std::uint32_t lo = 1;
    auto hi = static_cast<std::uint32_t>(miss_tail.size() - 1);
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (miss_tail[mid] <= k) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  }
  // Walk the histogram tail from the largest distance down, accumulating the
  // miss count a given associativity would leave; stop at the first A whose
  // tail exceeds k.
  std::uint64_t tail = 0;
  std::uint32_t assoc = hist.empty() ? 1 : static_cast<std::uint32_t>(hist.size());
  for (std::size_t d = hist.size(); d-- > 1;) {
    tail += hist[d];
    if (tail > k) return static_cast<std::uint32_t>(d + 1);
    assoc = static_cast<std::uint32_t>(d);
  }
  return std::max(assoc, 1u);
}

std::uint64_t StackProfile::WarmAccesses() const {
  std::uint64_t total = 0;
  for (std::uint64_t h : hist) total += h;
  return total;
}

namespace {

// Reusable scan state. One instance lives across all the depths a caller (or
// pool chunk) computes, so after the first pass warms it up the per-depth
// baseline allocates nothing per pass: the per-set buckets keep their
// capacity, the per-reference arrays are epoch-stamped instead of cleared,
// and the Fenwick storage is a single high-water-mark buffer.
struct ScanScratch {
  // Per-set MTF stacks (move-to-front scan) or per-set subsequences
  // (Bennett-Kruskal scan), indexed by set.
  std::vector<std::vector<std::uint32_t>> buckets;
  std::vector<std::size_t> last;        // per id: position in its sequence
  std::vector<std::uint32_t> epoch_of;  // per id: epoch of last sighting
  std::uint32_t epoch = 0;
  std::vector<std::int64_t> fenwick;    // backing store for FenwickView

  void PrepareBuckets(std::size_t count) {
    if (buckets.size() < count) buckets.resize(count);
    for (std::size_t i = 0; i < count; ++i) buckets[i].clear();
  }

  // A fresh epoch distinct from every stamp in epoch_of; `ids` entries must
  // cover at least [0, ids). Handles (the purely theoretical) counter wrap.
  void NextEpoch(std::size_t ids) {
    if (epoch_of.size() < ids) epoch_of.resize(ids, 0);
    if (last.size() < ids) last.resize(ids, 0);
    if (epoch == ~0u) {
      std::fill(epoch_of.begin(), epoch_of.end(), 0);
      epoch = 0;
    }
    ++epoch;
  }
};

// Move-to-front pass over every set of the depth selected by `mask`.
void ScanSets(const trace::StrippedTrace& stripped, std::uint32_t mask,
              StackProfile& profile, ScanScratch& scratch) {
  // One move-to-front stack of reference ids per set. Distances in embedded
  // traces are small, so the linear scan beats an order-statistics tree.
  scratch.PrepareBuckets(std::size_t{mask} + 1);
  for (std::size_t j = 0; j < stripped.ids.size(); ++j) {
    const std::uint32_t id = stripped.ids[j];
    auto& stack = scratch.buckets[stripped.unique[id] & mask];
    if (stripped.is_first[j]) {
      ++profile.cold;
      stack.insert(stack.begin(), id);
      continue;
    }
    // Found whenever is_first marks every first occurrence, as Strip's
    // output does. StrippedTrace is a plain struct any caller can fill, so
    // this is checked rather than assumed: a miss would rotate past end().
    const auto it = std::find(stack.begin(), stack.end(), id);
    CES_CHECK(it != stack.end());
    const auto distance = static_cast<std::size_t>(it - stack.begin());
    if (distance >= profile.hist.size()) profile.hist.resize(distance + 1, 0);
    ++profile.hist[distance];
    std::rotate(stack.begin(), it, it + 1);
  }
}

// Bennett-Kruskal pass over every set of the depth selected by `mask`:
// per-set subsequences scanned with a Fenwick tree of "most recent
// occurrence" marks, so the number of distinct references between two
// occurrences is a range sum.
void ScanSetsTree(const trace::StrippedTrace& stripped, std::uint32_t mask,
                  StackProfile& profile, ScanScratch& scratch) {
  const std::size_t sets = std::size_t{mask} + 1;
  scratch.PrepareBuckets(sets);
  for (const std::uint32_t id : stripped.ids) {
    scratch.buckets[stripped.unique[id] & mask].push_back(id);
  }

  for (std::size_t bucket = 0; bucket < sets; ++bucket) {
    const auto& sequence = scratch.buckets[bucket];
    if (sequence.empty()) continue;
    // Epoch stamping makes the per-reference "seen this set yet?" state
    // reusable without any reset loop; ids are disjoint across sets.
    scratch.NextEpoch(stripped.unique_count());
    if (scratch.fenwick.size() < sequence.size() + 1) {
      scratch.fenwick.resize(sequence.size() + 1, 0);
    }
    FenwickView marks(scratch.fenwick.data(), sequence.size());
    for (std::size_t t = 0; t < sequence.size(); ++t) {
      const std::uint32_t id = sequence[t];
      if (scratch.epoch_of[id] == scratch.epoch) {
        const std::size_t p = scratch.last[id];
        const auto distance = static_cast<std::size_t>(
            t >= p + 2 ? marks.RangeSum(p + 1, t - 1) : 0);
        if (distance >= profile.hist.size()) profile.hist.resize(distance + 1, 0);
        ++profile.hist[distance];
        marks.Add(p, -1);
      } else {
        ++profile.cold;
        scratch.epoch_of[id] = scratch.epoch;
      }
      marks.Add(t, +1);
      scratch.last[id] = t;
    }
    marks.Clear();
  }
}

template <typename Scan>
StackProfile ComputeWithScan(const trace::StrippedTrace& stripped,
                             std::uint32_t index_bits, Scan scan,
                             ScanScratch& scratch) {
  StackProfile profile;
  profile.index_bits = index_bits;
  scan(stripped, (1u << index_bits) - 1, profile, scratch);
  // Canonical form: hist always has at least the distance-0 bucket so that
  // profiles from different engines compare equal structurally.
  if (profile.hist.empty()) profile.hist.resize(1, 0);
  return profile;
}

}  // namespace

StackProfile ComputeStackProfile(const trace::StrippedTrace& stripped,
                                 std::uint32_t index_bits) {
  ScanScratch scratch;
  return ComputeWithScan(stripped, index_bits, ScanSets, scratch);
}

StackProfile ComputeStackProfileTree(const trace::StrippedTrace& stripped,
                                     std::uint32_t index_bits) {
  ScanScratch scratch;
  return ComputeWithScan(stripped, index_bits, ScanSetsTree, scratch);
}

std::vector<StackProfile> ComputeAllDepthProfiles(
    const trace::StrippedTrace& stripped, std::uint32_t max_index_bits,
    support::ThreadPool* pool, bool use_tree,
    support::MetricsRegistry* metrics) {
  support::ScopedSpan span(metrics, "stack.all_depths_seconds");
  support::ScopedTraceSpan trace_span("stack.all_depths");
  std::vector<StackProfile> profiles(max_index_bits + 1);
  const auto compute = [&](std::size_t bits, ScanScratch& scratch) {
    const auto index_bits = static_cast<std::uint32_t>(bits);
    // One profile span per depth: on the parallel path these land on the
    // worker tracks, which is exactly the per-depth load-balance picture.
    support::ScopedTraceSpan depth_span("stack.scan(bits=" +
                                        std::to_string(index_bits) + ")");
    // Each depth's pass is serial: depth-level slots keep the output
    // placement independent of scheduling. The chunk's scratch carries over
    // between depths.
    profiles[bits] =
        use_tree ? ComputeWithScan(stripped, index_bits, ScanSetsTree, scratch)
                 : ComputeWithScan(stripped, index_bits, ScanSets, scratch);
  };
  if (pool != nullptr && pool->jobs() > 1) {
    std::vector<ScanScratch> scratches(pool->jobs());
    pool->ParallelForChunks(
        profiles.size(),
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          for (std::size_t bits = begin; bits < end; ++bits) {
            compute(bits, scratches[chunk]);
          }
        });
  } else {
    ScanScratch scratch;
    for (std::size_t bits = 0; bits < profiles.size(); ++bits) {
      compute(bits, scratch);
    }
  }
  support::MetricsRegistry::Add(metrics, "stack.passes", profiles.size());
  support::MetricsRegistry::Add(
      metrics, "stack.refs_scanned",
      static_cast<std::uint64_t>(profiles.size()) * stripped.size());
  return profiles;
}

}  // namespace ces::cache
