#include "cache/lru_sweep.hpp"

#include <algorithm>
#include <functional>

#include "cache/config.hpp"
#include "support/check.hpp"

namespace ces::cache {

namespace {

bool PowerOfTwo(std::uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

void CheckAxis(std::uint32_t line_words, std::uint32_t depth,
               std::span<const std::uint32_t> assocs) {
  CES_CHECK(PowerOfTwo(line_words) && PowerOfTwo(depth));
  CES_CHECK(!assocs.empty() && assocs.front() > 0);
  CES_CHECK(std::adjacent_find(assocs.begin(), assocs.end(),
                               std::greater_equal<>()) == assocs.end());
}

// The set of every access. With more sets than accesses the occupied sets
// are numbered densely, so the stacks' memory follows the stream, not the
// geometry.
class SetIndex {
 public:
  SetIndex(std::span<const std::uint32_t> addrs, std::uint32_t line_bits,
           std::uint32_t depth)
      : mask_(depth - 1), count_(depth) {
    if (depth <= addrs.size()) return;
    dense_.resize(addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      dense_[i] = (addrs[i] >> line_bits) & mask_;
    }
    std::vector<std::uint32_t> occupied = dense_;
    std::sort(occupied.begin(), occupied.end());
    occupied.erase(std::unique(occupied.begin(), occupied.end()),
                   occupied.end());
    for (std::uint32_t& set : dense_) {
      set = static_cast<std::uint32_t>(
          std::lower_bound(occupied.begin(), occupied.end(), set) -
          occupied.begin());
    }
    count_ = static_cast<std::uint32_t>(occupied.size());
  }

  std::uint32_t count() const { return count_; }
  std::uint32_t operator()(std::size_t i, std::uint32_t line) const {
    return dense_.empty() ? line & mask_ : dense_[i];
  }

 private:
  std::uint32_t mask_;
  std::uint32_t count_;
  std::vector<std::uint32_t> dense_;
};

// A stack entry: a line and its dirty bits (bit a: dirty in the cache of the
// pass's a-th associativity).
struct Entry {
  std::uint32_t line = 0;
  std::uint32_t dirty = 0;
};

// Per-set LRU stacks, most recent first, capped at `cap` entries. A set can
// never hold more lines than the stream has accesses, so the cap is at most
// the stream length: a larger associativity would only cost memory.
class CappedStacks {
 public:
  CappedStacks(std::uint32_t sets, std::uint32_t max_assoc, std::size_t n)
      : cap_(static_cast<std::uint32_t>(
            std::min<std::size_t>(max_assoc, n))),
        entries_(static_cast<std::size_t>(sets) * cap_),
        fill_(sets, 0) {}

  std::uint32_t cap() const { return cap_; }
  Entry* Stack(std::uint32_t set) {
    return &entries_[static_cast<std::size_t>(set) * cap_];
  }
  std::uint32_t Fill(std::uint32_t set) const { return fill_[set]; }

  // Position of `line` in `set`'s stack, or cap() when it is absent.
  std::uint32_t Find(std::uint32_t set, std::uint32_t line) const {
    const Entry* stack = &entries_[static_cast<std::size_t>(set) * cap_];
    for (std::uint32_t p = 0; p < fill_[set]; ++p) {
      if (stack[p].line == line) return p;
    }
    return cap_;
  }

  // Makes `line`, found at position p (p == cap(): absent), the most recent
  // entry of `set` with dirty bits `dirty`. The entries above p slide down
  // one place; an absent line pushes the whole stack down and drops the
  // last entry of a full one.
  void MoveToFront(std::uint32_t set, std::uint32_t p, std::uint32_t line,
                   std::uint32_t dirty) {
    Entry* stack = Stack(set);
    std::uint32_t from = p;
    if (p == cap_) {
      from = std::min(fill_[set], cap_ - 1);
      if (fill_[set] < cap_) ++fill_[set];
    }
    std::copy_backward(stack, stack + from, stack + from + 1);
    stack[0] = Entry{line, dirty};
  }

 private:
  std::uint32_t cap_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> fill_;
};

// One pass with events for at most 32 associativities (one dirty bit each).
void EventsPass(std::span<const std::uint32_t> addrs,
                std::span<const std::uint32_t> positions,
                std::span<const std::uint8_t> writes, std::uint32_t line_bits,
                const SetIndex& sets, std::span<const std::uint32_t> assocs,
                MissEvents* out) {
  CappedStacks stacks(sets.count(), assocs.back(), addrs.size());
  const std::uint32_t cap = stacks.cap();
  // missed[p]: how many caches of the axis miss an access found at stack
  // position p — those with A <= p; an absent access (p == cap) misses all.
  std::vector<std::uint32_t> missed(cap + 1);
  for (std::uint32_t p = 0; p < cap; ++p) {
    missed[p] = static_cast<std::uint32_t>(
        std::upper_bound(assocs.begin(), assocs.end(), p) - assocs.begin());
  }
  missed[cap] = static_cast<std::uint32_t>(assocs.size());
  const std::uint32_t all_dirty =
      assocs.size() == 32 ? ~0u : (1u << assocs.size()) - 1;

  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::uint32_t line = addrs[i] >> line_bits;
    const std::uint32_t set = sets(i, line);
    const std::uint32_t p = stacks.Find(set, line);
    Entry* stack = stacks.Stack(set);
    // A cache that misses had this line's bit clear (it was evicted, or the
    // line is new), so the refill's bit is the write flag, as on a hit.
    const std::uint32_t dirty =
        (p == cap ? 0 : stack[p].dirty) | (writes[i] != 0 ? all_dirty : 0);
    const std::uint32_t fill = stacks.Fill(set);
    const std::uint32_t position = positions[i];
    for (std::uint32_t a = 0; a < missed[p]; ++a) {
      MissEvents& events = out[a];
      ++events.misses;
      events.miss_bits[position / 64] |= std::uint64_t{1} << (position % 64);
      const std::uint32_t assoc = assocs[a];
      if (fill < assoc) continue;  // a free way takes the refill
      Entry& victim = stack[assoc - 1];
      const std::uint32_t bit = 1u << a;
      if ((victim.dirty & bit) != 0) {
        events.writebacks.emplace_back(position, victim.line << line_bits);
        victim.dirty &= ~bit;
      }
    }
    if (p == 0) {
      stack[0].dirty = dirty;
    } else {
      stacks.MoveToFront(set, p, line, dirty);
    }
  }
}

}  // namespace

std::vector<std::uint64_t> LruMissesByAssoc(
    std::span<const std::uint32_t> addrs, std::uint32_t line_words,
    std::uint32_t depth, std::span<const std::uint32_t> assocs) {
  CheckAxis(line_words, depth, assocs);
  std::vector<std::uint64_t> misses(assocs.size(), 0);
  if (addrs.empty()) return misses;
  const std::uint32_t line_bits = CeilLog2(line_words);
  const SetIndex sets(addrs, line_bits, depth);
  CappedStacks stacks(sets.count(), assocs.back(), addrs.size());
  const std::uint32_t cap = stacks.cap();
  // hist[p]: accesses found at stack position p; hist[cap]: absent ones.
  std::vector<std::uint64_t> hist(cap + 1, 0);
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    const std::uint32_t line = addrs[i] >> line_bits;
    const std::uint32_t set = sets(i, line);
    const std::uint32_t p = stacks.Find(set, line);
    ++hist[p];
    if (p != 0) stacks.MoveToFront(set, p, line, 0);
  }
  for (std::size_t a = 0; a < assocs.size(); ++a) {
    for (std::uint32_t p = std::min(assocs[a], cap); p <= cap; ++p) {
      misses[a] += hist[p];
    }
  }
  return misses;
}

std::vector<MissEvents> LruEventsByAssoc(
    std::span<const std::uint32_t> addrs,
    std::span<const std::uint32_t> positions,
    std::span<const std::uint8_t> writes, std::size_t n_positions,
    std::uint32_t line_words, std::uint32_t depth,
    std::span<const std::uint32_t> assocs) {
  CheckAxis(line_words, depth, assocs);
  CES_CHECK(positions.size() == addrs.size() && writes.size() == addrs.size());
  CES_CHECK(addrs.empty() || positions.back() < n_positions);
  std::vector<MissEvents> out(assocs.size());
  for (MissEvents& events : out) {
    events.miss_bits.assign((n_positions + 63) / 64, 0);
  }
  if (addrs.empty()) return out;
  const std::uint32_t line_bits = CeilLog2(line_words);
  const SetIndex sets(addrs, line_bits, depth);
  // Dirty bits are one 32-bit word per entry, so a wider axis takes one
  // pass per 32 associativities.
  for (std::size_t first = 0; first < assocs.size(); first += 32) {
    const std::size_t count = std::min<std::size_t>(32, assocs.size() - first);
    EventsPass(addrs, positions, writes, line_bits, sets,
               assocs.subspan(first, count), out.data() + first);
  }
  return out;
}

}  // namespace ces::cache
