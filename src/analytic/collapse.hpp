// Tandem-repeat collapse of a stripped id sequence (docs/ALGORITHM.md).
//
// Stripping (paper section 2.2) removes repeated addresses; this removes
// repeated loop iterations. A block w that the sequence repeats c >= 2 times
// in a row becomes w at its own weights followed by one copy of w whose
// weights are multiplied by c - 1. Every reference of copies 2..c has the
// same per-set LRU stack distance as its twin in copy 2, at every depth and
// associativity, and no reference after the block sees a different one, so
// the weighted histograms of the collapsed sequence equal the unweighted
// histograms of the original. Cold entries always keep weight 1.
//
// The detector is one greedy linear pass per round: the candidate period at
// an entry is its distance to the id's last occurrence in the output, the
// copy is checked by block compare against the output's last `period`
// entries (so the anchor copy is always verbatim in the output), extended
// over every further matching copy, and emitted once. A failed compare at
// period p that mismatched at input position q skips period-p attempts up
// to q — they would fail at the same place — which keeps the compares
// linear in the input length.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace ces::analytic {

// The collapsed sequence: entry i stands for weights[i] occurrences of
// ids[i], all with the same per-set stack distance.
struct WeightedIds {
  std::vector<std::uint32_t> ids;
  std::vector<std::uint32_t> weights;

  std::size_t size() const { return ids.size(); }
};

// Work done by CollapseRepeats, for the tests' linearity bound.
struct CollapseStats {
  std::uint64_t compares = 0;  // entries compared by block compares
  std::uint32_t passes = 0;
};

// Collapses ids[0..n) (every id < id_count, n < 2^32 so weights fit in 32
// bits): pass 1 compares ids, later passes ids and weights, and passes
// repeat while one still shrinks the sequence by at least 10%, at most
// kCollapseMaxPasses of them.
constexpr std::uint32_t kCollapseMaxPasses = 4;
WeightedIds CollapseRepeats(const std::uint32_t* ids, std::size_t n,
                            std::size_t id_count,
                            CollapseStats* stats = nullptr);

// The cost model: collapses the first min(n, kCollapseSample) ids and, when
// that keeps at most one entry in kCollapseMinShrink, returns the collapse
// of all n ids (reusing the sample's when it is the whole trace); otherwise
// nullopt, and the traversal scans the references themselves. A first
// probe of kCollapseProbe ids that pass 1 shrinks by less than 10% ends
// the decision early. A weighted
// entry costs the traversal about twice what a reference does, so a
// smaller gain would not pay for the pass (docs/ALGORITHM.md has the
// measurements). The decision reads only the trace's content, so it and
// every counter after it are the same for every jobs value.
constexpr std::size_t kCollapseSample = std::size_t{1} << 16;
constexpr std::size_t kCollapseProbe = std::size_t{1} << 14;
constexpr std::size_t kCollapseMinShrink = 3;
std::optional<WeightedIds> CollapseIfWorthwhile(const std::uint32_t* ids,
                                                std::size_t n,
                                                std::size_t id_count);

}  // namespace ces::analytic
