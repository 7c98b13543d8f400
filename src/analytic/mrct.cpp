#include "analytic/mrct.hpp"

#include <algorithm>

#include "support/bitset.hpp"
#include "support/check.hpp"

namespace ces::analytic {

Mrct Mrct::Build(const trace::StrippedTrace& stripped) {
  Mrct table;
  table.conflicts_.resize(stripped.unique_count());

  // Global (fully associative) LRU stack of ids, most recent first.
  std::vector<std::uint32_t> stack;
  stack.reserve(stripped.unique_count());
  for (std::size_t j = 0; j < stripped.ids.size(); ++j) {
    const std::uint32_t id = stripped.ids[j];
    if (stripped.is_first[j]) {
      stack.insert(stack.begin(), id);
      continue;
    }
    // Found whenever is_first marks every first occurrence (see ScanSets in
    // cache/stack.cpp): checked, since a hand-built StrippedTrace may not.
    const auto it = std::find(stack.begin(), stack.end(), id);
    CES_CHECK(it != stack.end());
    ConflictSet conflict(stack.begin(), it);
    std::sort(conflict.begin(), conflict.end());
    table.conflicts_[id].push_back(std::move(conflict));
    std::rotate(stack.begin(), it, it + 1);
  }
  return table;
}

Mrct Mrct::BuildNaive(const trace::StrippedTrace& stripped) {
  Mrct table;
  const std::size_t n_unique = stripped.unique_count();
  table.conflicts_.resize(n_unique);

  // Algorithm 2: S_i accumulates the identifiers seen since the last
  // occurrence of U_i; on a re-occurrence S_i is emitted and reset. (The
  // printed pseudocode also emits on the cold occurrence; the prose and
  // Table 4 exclude it, so we reset without emitting there — see the
  // erratum notes in DESIGN.md.)
  std::vector<DynamicBitset> accumulators(n_unique,
                                          DynamicBitset(n_unique));
  std::vector<bool> seen(n_unique, false);
  for (std::size_t j = 0; j < stripped.ids.size(); ++j) {
    const std::uint32_t id = stripped.ids[j];
    if (seen[id]) {
      table.conflicts_[id].push_back(accumulators[id].ToVector());
    }
    accumulators[id].Clear();
    seen[id] = true;
    for (std::size_t other = 0; other < n_unique; ++other) {
      if (other != id) accumulators[other].Set(id);
    }
  }
  return table;
}

std::uint64_t Mrct::set_count() const {
  std::uint64_t total = 0;
  for (const auto& sets : conflicts_) total += sets.size();
  return total;
}

std::uint64_t Mrct::entry_count() const {
  std::uint64_t total = 0;
  for (const auto& sets : conflicts_) {
    for (const auto& set : sets) total += set.size();
  }
  return total;
}

}  // namespace ces::analytic
