#include "cache/cache.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ces::cache {

const char* ToString(WritePolicy policy) {
  return policy == WritePolicy::kWriteBackAllocate ? "wb" : "wt";
}

const char* ToString(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kRandom:
      return "random";
    case ReplacementPolicy::kPlru:
      return "plru";
  }
  return "?";
}

std::string CacheConfig::ToString() const {
  return "D=" + std::to_string(depth) + " A=" + std::to_string(assoc) +
         " L=" + std::to_string(line_words) + " " +
         ces::cache::ToString(replacement) + "/" +
         ces::cache::ToString(write_policy);
}

Cache::Cache(const CacheConfig& config)
    : config_(config),
      line_bits_(config.line_bits()),
      index_bits_(config.index_bits()),
      plru_levels_(CeilLog2(config.assoc)),
      rng_(0xCACE5EED) {
  CES_CHECK(config_.IsValid());
  ways_.assign(static_cast<std::size_t>(config_.depth) * config_.assoc, Way{});
  order_.resize(ways_.size());
  for (std::uint32_t set = 0; set < config_.depth; ++set) {
    for (std::uint32_t way = 0; way < config_.assoc; ++way) {
      order_[static_cast<std::size_t>(set) * config_.assoc + way] = way;
    }
  }
  if (config_.replacement == ReplacementPolicy::kPlru) {
    plru_bits_.assign(static_cast<std::size_t>(config_.depth) * config_.assoc,
                      0);
  }
}

void Cache::Reset() { *this = Cache(config_); }

AccessOutcome Cache::Access(std::uint32_t addr, bool is_write,
                            Eviction* eviction) {
  if (eviction != nullptr) *eviction = Eviction{};
  ++stats_.accesses;
  const std::uint32_t line = addr >> line_bits_;
  const std::uint32_t set = line & (config_.depth - 1);
  const std::uint32_t tag = line >> index_bits_;
  const std::size_t base = static_cast<std::size_t>(set) * config_.assoc;

  const bool write_through =
      config_.write_policy == WritePolicy::kWriteThroughNoAllocate;
  if (write_through && is_write) ++stats_.write_throughs;

  for (std::uint32_t way = 0; way < config_.assoc; ++way) {
    Way& entry = ways_[base + way];
    if (entry.valid && entry.tag == tag) {
      ++stats_.hits;
      if (is_write && !write_through) entry.dirty = true;
      TouchOnHit(set, way);
      return AccessOutcome::kHit;
    }
  }

  ++stats_.misses;
  const bool cold = touched_lines_.insert(line).second;
  if (cold) ++stats_.cold_misses;

  if (write_through && is_write) {
    // No-allocate: the write went straight to memory; the set is untouched.
    return cold ? AccessOutcome::kColdMiss : AccessOutcome::kConflictMiss;
  }

  const std::uint32_t victim = PickVictim(set);
  Way& entry = ways_[base + victim];
  if (entry.valid) {
    ++stats_.evictions;
    if (entry.dirty) ++stats_.writebacks;
    if (eviction != nullptr) {
      eviction->valid = true;
      eviction->dirty = entry.dirty;
      eviction->addr = ((entry.tag << index_bits_) | set) << line_bits_;
    }
  }
  entry = Way{.tag = tag, .valid = true, .dirty = is_write};
  TouchOnFill(set, victim);
  return cold ? AccessOutcome::kColdMiss : AccessOutcome::kConflictMiss;
}

std::uint32_t Cache::PickVictim(std::uint32_t set) {
  const std::size_t base = static_cast<std::size_t>(set) * config_.assoc;
  for (std::uint32_t way = 0; way < config_.assoc; ++way) {
    if (!ways_[base + way].valid) return way;
  }
  switch (config_.replacement) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo:
      return order_[base + config_.assoc - 1];
    case ReplacementPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.NextBounded(config_.assoc));
    case ReplacementPolicy::kPlru: {
      std::uint32_t node = 1;
      while (node < config_.assoc) {
        node = node * 2 + plru_bits_[base + node];
      }
      return node - config_.assoc;
    }
  }
  return 0;
}

// The std::find in both touches below always finds `way`: every order_ row
// starts as a permutation of 0..assoc-1 (constructor; Reset rebuilds), and
// std::rotate is the only write to a row, so it stays one; and `way` is
// below assoc, whether it comes from Access's way loop or from PickVictim
// (an invalid way's index, a row entry, a draw below assoc, or a PLRU leaf
// minus assoc).
void Cache::TouchOnHit(std::uint32_t set, std::uint32_t way) {
  // FIFO ignores hits; random keeps no state.
  if (config_.replacement == ReplacementPolicy::kLru) {
    const std::size_t base = static_cast<std::size_t>(set) * config_.assoc;
    auto begin = order_.begin() + static_cast<std::ptrdiff_t>(base);
    auto it = std::find(begin, begin + config_.assoc, way);
    std::rotate(begin, it, it + 1);
  } else if (config_.replacement == ReplacementPolicy::kPlru) {
    TouchOnFill(set, way);
  }
}

void Cache::TouchOnFill(std::uint32_t set, std::uint32_t way) {
  const std::size_t base = static_cast<std::size_t>(set) * config_.assoc;
  switch (config_.replacement) {
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo: {
      auto begin = order_.begin() + static_cast<std::ptrdiff_t>(base);
      auto it = std::find(begin, begin + config_.assoc, way);
      std::rotate(begin, it, it + 1);
      break;
    }
    case ReplacementPolicy::kRandom:
      break;
    case ReplacementPolicy::kPlru: {
      std::uint32_t node = 1;
      for (std::uint32_t l = plru_levels_; l-- > 0;) {
        const std::uint32_t direction = (way >> l) & 1u;
        plru_bits_[base + node] = static_cast<std::uint8_t>(direction ^ 1u);
        node = node * 2 + direction;
      }
      break;
    }
  }
}

}  // namespace ces::cache
