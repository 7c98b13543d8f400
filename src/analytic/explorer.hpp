// Public API of the analytical cache design-space explorer (Figure 1b).
//
// Typical use:
//   ces::analytic::Explorer explorer(trace);
//   auto result = explorer.SolveFraction(0.05);  // K = 5% of max misses
//   for (const auto& p : result.points) { ... p.depth, p.assoc ... }
//
// Construction runs the prelude once (trace stripping + miss-histogram
// computation); each Solve call is then a cheap histogram query, so any
// number of miss budgets K can be explored without touching the trace again.
#pragma once

#include <cstdint>
#include <vector>

#include "analytic/model.hpp"
#include "cache/stack.hpp"
#include "trace/strip.hpp"
#include "trace/trace.hpp"

namespace ces::support {
class MetricsRegistry;
}  // namespace ces::support

namespace ces::analytic {

enum class Engine : std::uint8_t {
  // Explicit BCAT + MRCT data structures, as presented in sections 2.2-2.3.
  // Memory grows with the sum of reuse distances; intended for moderate
  // traces and for validating the fused engine.
  kReference = 0,
  // Fused depth-first engine of section 2.4: linear space, the default.
  // Each node picks the move-to-front or the windowed Bennett-Kruskal scan
  // by a cost model (docs/ALGORITHM.md).
  kFused = 1,
};

struct ExplorerOptions {
  Engine engine = Engine::kFused;
  // Largest depth explored is 2^max_index_bits; automatically lowered to the
  // number of address bits that actually vary in the trace (deeper caches
  // cannot reduce misses further).
  std::uint32_t max_index_bits = 16;
  // Cache line size in words (power of two). The paper fixes this at one
  // word; larger values re-block the trace first (the future-work line-size
  // axis), after which depths/misses are in units of lines.
  std::uint32_t line_words = 1;
  // Worker threads for the prelude. 1 (default) is the serial code path;
  // 0 picks the hardware concurrency. With jobs > 1 the fused engine runs
  // the *same* fused traversal, subtree-parallel: the tree is partitioned
  // serially down to a cut level and the independent subtrees fan out onto
  // a pool, with partial histograms merged in subtree order — profiles and
  // deterministic metrics are byte-identical to jobs = 1, which the
  // determinism tests assert. The reference engine's global BCAT/MRCT
  // structures are inherently sequential; it ignores this option.
  std::uint32_t jobs = 1;
  // Optional run-metrics sink. The prelude records "explore.depths",
  // "explore.trace_refs", "explore.unique_refs" (deterministic counters),
  // the "explore.prelude_seconds" span, and three deterministic histograms —
  // "stack.distance" (fully-associative LRU stack distances),
  // "explore.set_accesses" and "explore.set_cold_misses" (per-set load at
  // the deepest explored depth); each Solve adds "explore.solve_queries".
  // The fused traversal additionally records its honest work counters
  // "explore.fused_nodes" / "explore.fused_refs", split by scan into
  // "explore.scan_mtf_refs" / "explore.scan_fenwick_refs" (plus the
  // volatile gauge "explore.cut_level"). Counters and histograms are
  // byte-identical in ToJson for every jobs value. nullptr (default)
  // disables collection.
  //
  // Independently, with a global support::TraceSink installed the prelude
  // emits nested spans (explore.prelude / explore.strip / per-engine phase
  // spans) and with a global ProgressReporter it reports the prelude phase;
  // see docs/OBSERVABILITY.md.
  support::MetricsRegistry* metrics = nullptr;
};

struct ExplorationResult {
  std::uint64_t k = 0;               // the miss budget used
  std::vector<DesignPoint> points;   // one per depth 2^0..2^max
  double prelude_seconds = 0.0;      // one-off analysis time
  double solve_seconds = 0.0;        // per-query time

  // Smallest cache (in words) among the points, the natural pick when all
  // depths are otherwise equal.
  const DesignPoint* SmallestCache() const;
};

class Explorer {
 public:
  // Throws support::Error (kUsage) for invalid options: line_words that is
  // zero or not a power of two.
  explicit Explorer(const trace::Trace& trace, ExplorerOptions options = {});

  // Out-of-core construction: strips the trace in one bounded-chunk pass
  // over the view (an mmap-backed CTRC file never materialises its raw
  // reference vector). Profiles, stats and deterministic metrics are
  // byte-identical to the in-memory constructor on the same content.
  explicit Explorer(const trace::TraceView& view, ExplorerOptions options = {});

  // Optimal (D, A) pairs with non-cold misses <= k.
  ExplorationResult Solve(std::uint64_t k) const;

  // k = floor(fraction * max_misses); the paper's 5/10/15/20% sweeps.
  ExplorationResult SolveFraction(double fraction) const;

  const trace::TraceStats& stats() const { return stats_; }
  const std::vector<cache::StackProfile>& profiles() const { return profiles_; }
  std::uint32_t max_index_bits() const { return max_index_bits_; }
  double prelude_seconds() const { return prelude_seconds_; }

 private:
  // The engine dispatch shared by both constructors; everything after the
  // stripped trace exists is identical between the in-memory and the
  // streaming paths.
  void BuildPrelude(const trace::StrippedTrace& stripped,
                    const ExplorerOptions& options);

  trace::TraceStats stats_;
  std::vector<cache::StackProfile> profiles_;
  std::uint32_t max_index_bits_ = 0;
  double prelude_seconds_ = 0.0;
  support::MetricsRegistry* metrics_ = nullptr;
};

// One-shot convenience wrapper.
ExplorationResult Explore(const trace::Trace& trace, std::uint64_t k,
                          ExplorerOptions options = {});

}  // namespace ces::analytic
