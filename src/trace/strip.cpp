#include "trace/strip.hpp"

#include <bit>

#include "support/check.hpp"
#include "trace/trace_view.hpp"

namespace ces::trace {

namespace {

// The shift that re-blocks word addresses into line addresses.
std::uint32_t LineShift(std::uint32_t words_per_line) {
  CES_CHECK(words_per_line != 0);
  CES_CHECK((words_per_line & (words_per_line - 1)) == 0);
  std::uint32_t shift = 0;
  while ((1u << shift) < words_per_line) ++shift;
  return shift;
}

std::uint32_t BlockedAddressBits(std::uint32_t address_bits,
                                 std::uint32_t shift) {
  return address_bits > shift ? address_bits - shift : 1;
}

// Dense ids for line addresses, handed out 0, 1, 2, ... in order of first
// appearance (paper section 2.4: number the unique references with a hash
// table in O(N)). Open addressing with linear probing over a power-of-two
// array of (line, id + 1) slots, id + 1 == 0 marking a free slot; the array
// doubles by rehash once it is half full. A reference to the same line as
// the one before it skips the probe: at 8-word lines that is about 80% of
// the instruction fetches of the paper's workloads.
class IdTable {
 public:
  IdTable() : slots_(kInitialSlots) {}

  // Calls visit(i, id, inserted) for the line refs[i] >> shift of each
  // i < n in order; `inserted` is true where the line is seen first. The
  // probe state lives in locals for the whole slice: the caller's id stores
  // could otherwise alias the members and force a reload per reference.
  template <typename Visit>
  void Intern(const std::uint32_t* refs, std::size_t n, std::uint32_t shift,
              Visit&& visit) {
    const Slot* slots = slots_.data();
    std::size_t mask = slots_.size() - 1;
    std::uint32_t hash_shift = hash_shift_;
    std::uint32_t last_line = last_line_;
    std::uint32_t last_id = last_id_;
    bool have_last = size_ != 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t line = refs[i] >> shift;
      if (line == last_line && have_last) {
        visit(i, last_id, false);
        continue;
      }
      last_line = line;
      have_last = true;
      std::size_t at = Home(line, hash_shift);
      while (slots[at].id_plus_one != 0 && slots[at].line != line) {
        at = (at + 1) & mask;
      }
      if (slots[at].id_plus_one != 0) {
        last_id = slots[at].id_plus_one - 1;
        visit(i, last_id, false);
        continue;
      }
      last_id = Insert(line, at);
      slots = slots_.data();
      mask = slots_.size() - 1;
      hash_shift = hash_shift_;
      visit(i, last_id, true);
    }
    last_line_ = last_line;
    last_id_ = last_id;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kInitialSlots = 256;

  struct Slot {
    std::uint32_t line = 0;
    std::uint32_t id_plus_one = 0;
  };

  // Fibonacci hashing: the top bits of line * 2^32/phi spread the strided
  // and sequential line addresses of real traces over the whole array.
  static std::size_t Home(std::uint32_t line, std::uint32_t hash_shift) {
    return (line * 0x9e3779b9u) >> hash_shift;
  }

  // Gives `line` the next id in the free slot `at`, then keeps the array at
  // most half full.
  std::uint32_t Insert(std::uint32_t line, std::size_t at) {
    CES_CHECK(size_ < 0xffffffffu);  // ids must fit the id + 1 encoding
    const auto id = static_cast<std::uint32_t>(size_++);
    slots_[at] = Slot{line, id + 1};
    if (2 * size_ > slots_.size()) Grow();
    return id;
  }

  void Grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --hash_shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.id_plus_one == 0) continue;
      std::size_t at = Home(slot.line, hash_shift_);
      while (slots_[at].id_plus_one != 0) at = (at + 1) & mask;
      slots_[at] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::uint32_t hash_shift_ = 32 - std::countr_zero(kInitialSlots);
  std::size_t size_ = 0;
  std::uint32_t last_line_ = 0;
  std::uint32_t last_id_ = 0;
};

// One strip pass: ids written in place, is_first set at the N' cold
// positions only.
class StripPass {
 public:
  StripPass(std::size_t n, std::uint32_t address_bits, std::uint32_t shift)
      : shift_(shift) {
    out_.address_bits = address_bits;
    out_.ids.resize(n);
    out_.is_first.assign(n, false);
  }

  void Add(const std::uint32_t* refs, std::size_t n) {
    CES_CHECK(n <= out_.ids.size() - at_);
    std::uint32_t* ids = out_.ids.data() + at_;
    table_.Intern(refs, n, shift_,
                  [&](std::size_t i, std::uint32_t id, bool inserted) {
                    ids[i] = id;
                    if (inserted) {
                      out_.unique.push_back(refs[i] >> shift_);
                      out_.is_first[at_ + i] = true;
                    }
                  });
    at_ += n;
  }

  StrippedTrace Finish() {
    CES_CHECK(at_ == out_.ids.size());
    return std::move(out_);
  }

 private:
  StrippedTrace out_;
  IdTable table_;
  std::uint32_t shift_;
  std::size_t at_ = 0;
};

// The statistics of one pass with no per-reference state: ids differ
// exactly where lines do, and every first occurrence differs from its
// predecessor (position 0 from the "none" before it), so max_misses is the
// number of changes minus the N' cold ones among them.
class StatsPass {
 public:
  explicit StatsPass(std::uint32_t shift) : shift_(shift) {}

  void Add(const std::uint32_t* refs, std::size_t n) {
    std::uint32_t previous = previous_id_;
    std::uint64_t changes = 0;
    table_.Intern(refs, n, shift_,
                  [&](std::size_t, std::uint32_t id, bool) {
                    changes += id != previous ? 1 : 0;
                    previous = id;
                  });
    previous_id_ = previous;
    changes_ += changes;
    n_ += n;
  }

  TraceStats Finish() const {
    TraceStats stats;
    stats.n = n_;
    stats.n_unique = table_.size();
    stats.max_misses = changes_ - stats.n_unique;
    return stats;
  }

 private:
  IdTable table_;
  std::uint32_t shift_;
  std::uint64_t n_ = 0;
  std::uint64_t changes_ = 0;
  // No id takes this value (IdTable stops short of it), so position 0
  // always counts as a change.
  std::uint32_t previous_id_ = 0xffffffffu;
};

}  // namespace

Trace WithLineSize(const Trace& trace, std::uint32_t words_per_line) {
  const std::uint32_t shift = LineShift(words_per_line);
  Trace out;
  out.kind = trace.kind;
  out.name = trace.name;
  out.address_bits = BlockedAddressBits(trace.address_bits, shift);
  out.refs.reserve(trace.refs.size());
  for (std::uint32_t ref : trace.refs) out.refs.push_back(ref >> shift);
  return out;
}

StrippedTrace Strip(const Trace& trace) {
  StripPass pass(trace.refs.size(), trace.address_bits, 0);
  pass.Add(trace.refs.data(), trace.refs.size());
  return pass.Finish();
}

StrippedTrace Strip(const TraceView& view, std::uint32_t line_words) {
  const std::uint32_t shift = LineShift(line_words);
  StripPass pass(static_cast<std::size_t>(view.size()),
                 BlockedAddressBits(view.address_bits(), shift), shift);
  view.ForEachChunk([&pass](const std::uint32_t* refs, std::size_t n) {
    pass.Add(refs, n);
  });
  return pass.Finish();
}

TraceStats ComputeStats(const Trace& trace, std::uint32_t line_words) {
  StatsPass pass(LineShift(line_words));
  pass.Add(trace.refs.data(), trace.refs.size());
  return pass.Finish();
}

TraceStats ComputeStats(const TraceView& view, std::uint32_t line_words) {
  StatsPass pass(LineShift(line_words));
  view.ForEachChunk([&pass](const std::uint32_t* refs, std::size_t n) {
    pass.Add(refs, n);
  });
  return pass.Finish();
}

TraceStats ComputeStats(const StrippedTrace& stripped) {
  TraceStats stats;
  stats.n = stripped.size();
  stats.n_unique = stripped.unique_count();
  // A direct-mapped cache of depth 1 holds exactly the last reference, so a
  // non-cold access misses iff it differs from its immediate predecessor.
  // Every cold access after position 0 differs too (its id is new), so the
  // warm misses are the changes minus those N' - 1.
  if (stats.n_unique == 0) return stats;
  const std::vector<std::uint32_t>& ids = stripped.ids;
  std::uint64_t changes = 0;
  for (std::size_t j = 1; j < ids.size(); ++j) {
    changes += ids[j] != ids[j - 1] ? 1 : 0;
  }
  stats.max_misses = changes - (stats.n_unique - 1);
  return stats;
}

std::uint32_t SignificantAddressBits(const StrippedTrace& stripped) {
  if (stripped.unique.empty()) return 0;
  std::uint32_t differing = 0;
  const std::uint32_t base = stripped.unique.front();
  for (std::uint32_t addr : stripped.unique) differing |= addr ^ base;
  std::uint32_t bits = 0;
  while (differing >> bits) ++bits;
  return bits;
}

}  // namespace ces::trace
