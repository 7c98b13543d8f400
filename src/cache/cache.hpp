// Functional set-associative cache model.
//
// This is the "cache simulator" box of the traditional design-simulate-
// analyze loop (Figure 1a of the paper). It models tags, validity, dirt and
// the replacement policy; it does not model timing. Cold (compulsory) misses
// are tracked separately because the paper's miss budget K explicitly
// excludes them.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cache/config.hpp"
#include "support/rng.hpp"

namespace ces::cache {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       // includes cold misses
  std::uint64_t cold_misses = 0;  // first touch of a line address
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;       // dirty victims (write-back policy)
  std::uint64_t write_throughs = 0;   // per-write traffic (write-through)

  std::uint64_t warm_misses() const { return misses - cold_misses; }
  double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / accesses;
  }
};

enum class AccessOutcome : std::uint8_t { kHit, kColdMiss, kConflictMiss };

// Reports what a miss pushed out, so multi-level hierarchies can propagate
// dirty victims downstream.
struct Eviction {
  bool valid = false;
  bool dirty = false;
  std::uint32_t addr = 0;  // word address of the evicted line's first word
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Performs one access to byte-less word address `addr` (the library's
  // traces are word-addressed); `is_write` drives the write-back dirt
  // tracking. When `eviction` is non-null it receives the victim line
  // displaced by a miss (valid=false on hits or fills of empty ways).
  AccessOutcome Access(std::uint32_t addr, bool is_write = false,
                       Eviction* eviction = nullptr);

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

  // Drops all contents and statistics.
  void Reset();

 private:
  struct Way {
    std::uint32_t tag = 0;
    bool valid = false;
    bool dirty = false;
  };

  // Picks the victim way within [set*assoc, set*assoc+assoc). Invalid ways
  // are always preferred.
  std::uint32_t PickVictim(std::uint32_t set);
  void TouchOnHit(std::uint32_t set, std::uint32_t way);
  void TouchOnFill(std::uint32_t set, std::uint32_t way);

  CacheConfig config_;
  // Derived from config_ once, not per access.
  std::uint32_t line_bits_;
  std::uint32_t index_bits_;
  std::uint32_t plru_levels_;  // tree depth: log2(assoc)
  CacheStats stats_;
  std::vector<Way> ways_;  // set-major: ways_[set * assoc + way]

  // LRU/FIFO: per-set recency/insertion order, most recent (or newest) first.
  std::vector<std::uint32_t> order_;
  // PLRU: per-set tree bits (assoc - 1 internal nodes packed per set).
  std::vector<std::uint8_t> plru_bits_;
  Rng rng_;
  std::unordered_set<std::uint32_t> touched_lines_;
};

}  // namespace ces::cache
