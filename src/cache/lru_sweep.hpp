// One-pass LRU simulation of every associativity of one cache depth.
//
// LRU has the inclusion property (Mattson et al. [17]): an A-way set holds
// exactly the A most recently used lines of its per-set LRU stack. So one
// pass that keeps per-set stacks, capped at the largest associativity of an
// axis, decides every cache on the axis at once: an access found at stack
// position p (0 = most recent) hits every A-way cache with A > p and misses
// every one with A <= p; an access absent from the capped stack misses them
// all. This is the one-pass multi-configuration economy of DEW, which does
// the same for FIFO.
//
// Write-backs follow from the same stacks. A miss in the A-way cache evicts
// the entry at position A-1 when the set holds at least A lines, and that
// entry leaves the A-way cache (it slides to position A or, at the cap, out
// of the stack). Each entry carries one dirty bit per associativity: OR-ed
// from the write flag on every access (on a miss the bit was already clear,
// so that is the refill's flag), cleared when the entry is evicted. Misses,
// victims and dirty write-backs thus equal those of cache::Cache with LRU
// replacement and write-back/allocate, geometry by geometry
// (tests/lru_sweep_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace ces::cache {

// What one write-back/allocate cache does on a stream of accesses.
struct MissEvents {
  std::vector<std::uint64_t> miss_bits;  // bit q set: access q misses
  // (position, first word address of the dirty victim) per dirty eviction,
  // in position order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> writebacks;
  std::uint64_t misses = 0;  // incl. cold
};

// Misses (incl. cold) of every assocs[a]-way LRU cache with `depth` sets and
// `line_words`-word lines on the word addresses `addrs`. `depth` and
// `line_words` are powers of two; `assocs` is strictly ascending and > 0.
std::vector<std::uint64_t> LruMissesByAssoc(
    std::span<const std::uint32_t> addrs, std::uint32_t line_words,
    std::uint32_t depth, std::span<const std::uint32_t> assocs);

// The same pass with events, for write-back/allocate caches. Access i reads
// or writes (writes[i] != 0) word address addrs[i] and is numbered
// positions[i] in the miss bitmaps and write-back lists; positions are
// strictly ascending and below `n_positions`. Result a belongs to the
// assocs[a]-way cache.
std::vector<MissEvents> LruEventsByAssoc(
    std::span<const std::uint32_t> addrs,
    std::span<const std::uint32_t> positions,
    std::span<const std::uint8_t> writes, std::size_t n_positions,
    std::uint32_t line_words, std::uint32_t depth,
    std::span<const std::uint32_t> assocs);

}  // namespace ces::cache
