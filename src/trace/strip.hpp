// Trace stripping (paper section 2.2, Tables 1-2).
//
// Stripping reduces a trace of N references to its N' unique references and
// rewrites the trace as a sequence of compact identifiers. Identifiers are
// assigned in order of first appearance, 0-based (the paper numbers them from
// 1 in its running example; reports add 1 when echoing the paper).
//
// Every entry point numbers lines with one flat id table (paper section 2.4:
// a hash table makes stripping O(N)): open addressing over a power-of-two
// array of (line, id) slots that doubles by rehash, with a fast path for a
// reference to the same line as the one before it. The statistics passes
// keep only that table, never an N-sized vector.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/trace.hpp"

namespace ces::trace {

struct StrippedTrace {
  // id -> original word address, in order of first appearance.
  std::vector<std::uint32_t> unique;
  // The trace rewritten as reference identifiers.
  std::vector<std::uint32_t> ids;
  // is_first[j] is true iff position j is the first (cold) occurrence of
  // ids[j]. Cold occurrences are excluded from all miss counts.
  std::vector<bool> is_first;
  std::uint32_t address_bits = 32;

  std::size_t size() const { return ids.size(); }
  std::size_t unique_count() const { return unique.size(); }

  // Number of non-cold positions: size() - unique_count().
  std::size_t warm_count() const { return size() - unique_count(); }
};

class TraceView;

// Strips a trace in O(N) expected time (the paper's section 2.4 recommends
// a hash table over the N log N sort). line_words > 1 re-blocks into lines
// inside the same pass; the result is field-for-field identical to
// Strip(WithLineSize(trace, line_words)) without the copy.
StrippedTrace Strip(const Trace& trace, std::uint32_t line_words = 1);

// Streaming strip over a TraceView: one bounded-chunk pass, never
// materialising the raw reference vector. line_words > 1 fuses the
// WithLineSize re-blocking into the same pass; the result is field-for-field
// identical to Strip(WithLineSize(Materialize(view), line_words)).
StrippedTrace Strip(const TraceView& view, std::uint32_t line_words = 1);

// Basic statistics reported by Tables 5-6 of the paper.
struct TraceStats {
  std::uint64_t n = 0;           // trace length N
  std::uint64_t n_unique = 0;    // unique references N'
  std::uint64_t max_misses = 0;  // non-cold misses of a depth-1 direct-mapped
                                 // cache (the paper's normalisation constant)
};

// The statistics of the trace re-blocked to `line_words`-word lines, in one
// pass with O(N') state (the id table) instead of the O(N) id/is_first
// vectors a full strip carries: identical results to
// ComputeStats(Strip(WithLineSize(trace, line_words))).
TraceStats ComputeStats(const Trace& trace, std::uint32_t line_words = 1);
TraceStats ComputeStats(const StrippedTrace& stripped);

// The same pass over a TraceView, so stats over an out-of-core trace keep
// the resident set flat. Identical results to
// ComputeStats(Strip(view, line_words)).
TraceStats ComputeStats(const TraceView& view, std::uint32_t line_words = 1);

// Number of address bits that can actually vary across the unique references
// of the trace; levels beyond this depth cannot split any BCAT node further.
std::uint32_t SignificantAddressBits(const StrippedTrace& stripped);

}  // namespace ces::trace
