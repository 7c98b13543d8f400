// Cache organisation parameters.
//
// The paper's design space is (depth D, associativity A) with a fixed line
// size and fixed LRU/write-back policies; this struct carries the two swept
// axes plus the fixed axes so the simulator substrate can also serve the
// replacement-policy and line-size extension studies.
#pragma once

#include <cstdint>
#include <string>

namespace ces::cache {

enum class ReplacementPolicy : std::uint8_t {
  kLru = 0,
  kFifo = 1,
  kRandom = 2,
  kPlru = 3,  // tree pseudo-LRU; associativity must be a power of two
};

// The paper fixes write-back; write-through/no-allocate is provided for the
// policy-study extension (it trades dirty-victim traffic for per-write
// memory traffic and never allocates on write misses).
enum class WritePolicy : std::uint8_t {
  kWriteBackAllocate = 0,
  kWriteThroughNoAllocate = 1,
};

const char* ToString(ReplacementPolicy policy);
const char* ToString(WritePolicy policy);

// Smallest b with 2^b >= value (log2 of a power of two).
inline std::uint32_t CeilLog2(std::uint32_t value) {
  std::uint32_t bits = 0;
  while ((1u << bits) < value) ++bits;
  return bits;
}

struct CacheConfig {
  std::uint32_t depth = 1;       // number of sets; power of two
  std::uint32_t assoc = 1;       // ways per set
  std::uint32_t line_words = 1;  // words per line; power of two
  ReplacementPolicy replacement = ReplacementPolicy::kLru;
  WritePolicy write_policy = WritePolicy::kWriteBackAllocate;

  std::uint32_t index_bits() const { return CeilLog2(depth); }
  std::uint32_t line_bits() const { return CeilLog2(line_words); }

  std::uint64_t size_words() const {
    return static_cast<std::uint64_t>(depth) * assoc * line_words;
  }

  bool IsValid() const {
    const auto pow2 = [](std::uint32_t v) { return v && (v & (v - 1)) == 0; };
    if (!pow2(depth) || !pow2(line_words) || assoc == 0) return false;
    if (replacement == ReplacementPolicy::kPlru && !pow2(assoc)) return false;
    return true;
  }

  std::string ToString() const;
};

}  // namespace ces::cache
