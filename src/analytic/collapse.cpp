#include "analytic/collapse.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace ces::analytic {
namespace {

// The last failed compare at one period: an attempt at that period from an
// input position <= `until` would stop at the same mismatch.
struct Failure {
  std::size_t period = 0;
  std::size_t until = 0;
};

// Failures are remembered per period in a small direct-mapped table; a
// collision only forgets a skip, it never skips a compare wrongly.
constexpr std::size_t kFailureSlots = 64;

// A hard ceiling on the compares of one pass, in units of its input length.
// The skip rule keeps every trace measured so far far below it (the suite's
// traces need under 2n); the ceiling only bounds what a hostile trace can
// cost. Exhausting it ends the pass's attempts, never its exactness.
constexpr std::uint64_t kCompareBudget = 8;

// Length of the common prefix of in[0..period) and anchor[0..period),
// comparing ids and, when `in_weights` is set, weights too. Entry 0's ids
// always match (the period comes from its id's last occurrence), and most
// failed attempts stop by entry 1, so those are checked before memcmp.
std::size_t CommonPrefix(const std::uint32_t* in_ids,
                         const std::uint32_t* in_weights,
                         const std::uint32_t* anchor_ids,
                         const std::uint32_t* anchor_weights,
                         std::size_t period) {
  if (in_weights != nullptr && in_weights[0] != anchor_weights[0]) return 0;
  if (period > 1 &&
      (in_ids[1] != anchor_ids[1] ||
       (in_weights != nullptr && in_weights[1] != anchor_weights[1]))) {
    return 1;
  }
  const std::size_t bytes = period * sizeof(std::uint32_t);
  if (std::memcmp(in_ids, anchor_ids, bytes) == 0 &&
      (in_weights == nullptr ||
       std::memcmp(in_weights, anchor_weights, bytes) == 0)) {
    return period;
  }
  std::size_t t = 0;
  while (in_ids[t] == anchor_ids[t] &&
         (in_weights == nullptr || in_weights[t] == anchor_weights[t])) {
    ++t;
  }
  return t;
}

// One greedy round over in[0..n) into `out`. `weights` null means every
// entry has weight 1 (pass 1): the compare then reads ids only, and an
// anchor qualifies only while it holds no weighted entry. `last` holds one
// slot per id, reset here: the id's last output position + 1, 0 while the
// id has not been emitted.
void CollapsePass(const std::uint32_t* ids, const std::uint32_t* weights,
                  std::size_t n, std::vector<std::uint32_t>& last,
                  WeightedIds& out, std::uint64_t& compares) {
  // Sized once: the output never outgrows the input, and regrowing would
  // touch fresh pages on every doubling.
  out.ids.clear();
  out.weights.clear();
  out.ids.reserve(n);
  out.weights.reserve(n);
  std::fill(last.begin(), last.end(), 0u);
  Failure failures[kFailureSlots];
  const std::uint64_t budget = kCompareBudget * n;
  std::uint64_t spent = 0;
  std::size_t weighted_end = 0;  // output position + 1 of the last weight > 1
  std::size_t i = 0;
  while (i < n) {
    const std::uint32_t id = ids[i];
    const std::size_t o = out.ids.size();
    std::size_t copies = 0;
    std::size_t period = 0;
    if (last[id] != 0 && spent < budget) {
      period = o - (last[id] - 1);
      Failure& failure = failures[period % kFailureSlots];
      // The anchor is the output's last `period` entries, and the copies
      // must equal it in ids and weights: then it is a verbatim copy of the
      // block, which is what the exactness argument needs.
      const bool skipped = (failure.period == period && i <= failure.until) ||
                           (weights == nullptr && weighted_end > o - period);
      const std::uint32_t* anchor_ids = out.ids.data() + (o - period);
      const std::uint32_t* anchor_weights = out.weights.data() + (o - period);
      for (std::size_t at = i; !skipped && at + period <= n; at += period) {
        const std::size_t common =
            CommonPrefix(ids + at, weights == nullptr ? nullptr : weights + at,
                         anchor_ids, anchor_weights, period);
        spent += std::min(common + 1, period);
        if (common < period) {
          if (copies == 0) failure = {period, i + common};
          break;
        }
        ++copies;
      }
    }
    if (copies == 0) {
      out.ids.push_back(id);
      out.weights.push_back(weights == nullptr ? 1u : weights[i]);
      last[id] = static_cast<std::uint32_t>(o + 1);
      ++i;
      continue;
    }
    // Copies 1..copies of the anchor become one copy carrying all of their
    // weight. Every one of its ids occurs in the anchor, so none is cold.
    const auto factor = static_cast<std::uint32_t>(copies);
    for (std::size_t t = 0; t < period; ++t) {
      const std::uint32_t copy_id = ids[i + t];
      out.ids.push_back(copy_id);
      out.weights.push_back((weights == nullptr ? 1u : weights[i + t]) *
                            factor);
      last[copy_id] = static_cast<std::uint32_t>(o + t + 1);
    }
    if (factor > 1) weighted_end = o + period;
    i += copies * period;
  }
  compares += spent;
}

}  // namespace

WeightedIds CollapseRepeats(const std::uint32_t* ids, std::size_t n,
                            std::size_t id_count, CollapseStats* stats) {
  // The weights of one pass sum to n, so they fit in 32 bits.
  CES_CHECK(n <= 0xffffffffu);
  std::vector<std::uint32_t> last(id_count);
  std::uint64_t compares = 0;
  WeightedIds current;
  CollapsePass(ids, nullptr, n, last, current, compares);
  std::uint32_t passes = 1;
  std::size_t before = n;
  WeightedIds next;
  while (passes < kCollapseMaxPasses && 10 * current.size() <= 9 * before) {
    CollapsePass(current.ids.data(), current.weights.data(), current.size(),
                 last, next, compares);
    ++passes;
    before = current.size();
    std::swap(current, next);
  }
  if (stats != nullptr) {
    stats->compares += compares;
    stats->passes += passes;
  }
  return current;
}

std::optional<WeightedIds> CollapseIfWorthwhile(const std::uint32_t* ids,
                                                std::size_t n,
                                                std::size_t id_count) {
  const std::size_t sample = std::min(n, kCollapseSample);
  if (sample == 0) return std::nullopt;
  // Stripped ids are numbered by first appearance, so a prefix's ids stay
  // below its length; the max keeps the table small and exact regardless.
  const std::uint32_t top = *std::max_element(ids, ids + sample);
  // Most traces without loops are turned away by a quarter of the sample:
  // when pass 1 over it keeps over 90% of the entries, no further pass
  // runs, and the rest of the sample rarely differs.
  const std::size_t probe = std::min(sample, kCollapseProbe);
  if (10 * CollapseRepeats(ids, probe, std::size_t{top} + 1).size() >
      9 * probe) {
    return std::nullopt;
  }
  WeightedIds collapsed = CollapseRepeats(ids, sample, std::size_t{top} + 1);
  if (kCollapseMinShrink * collapsed.size() > sample) return std::nullopt;
  if (sample == n) return collapsed;
  return CollapseRepeats(ids, n, id_count);
}

}  // namespace ces::analytic
