#include "analytic/explorer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "analytic/bcat.hpp"
#include "analytic/fast.hpp"
#include "analytic/mrct.hpp"
#include "analytic/postlude.hpp"
#include "analytic/zeroone.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/progress.hpp"
#include "support/timer.hpp"
#include "support/trace_event.hpp"
#include "trace/trace_view.hpp"

namespace ces::analytic {
namespace {

// Deterministic distributional metrics of the prelude, recorded once on the
// construction thread from engine-independent inputs — every engine produces
// identical profiles and sees the same stripped trace, so the histograms are
// byte-identical across engines and jobs values.
void RecordPreludeHistograms(const trace::StrippedTrace& stripped,
                             const std::vector<cache::StackProfile>& profiles,
                             std::uint32_t max_index_bits,
                             support::MetricsRegistry* metrics) {
  if (metrics == nullptr) return;
  // Fully-associative LRU stack distances (the profile at index_bits = 0 is
  // the single-set pass): the classic reuse-distance spectrum.
  if (!profiles.empty()) {
    const cache::StackProfile& fa = profiles.front();
    for (std::size_t d = 0; d < fa.hist.size(); ++d) {
      metrics->ObserveHistogram("stack.distance", d, fa.hist[d]);
    }
  }
  // Per-set load at the deepest explored depth: accesses and cold misses
  // (unique lines) per set, the paper's conflict structure at a glance.
  // Only sets holding a unique line are non-empty, so those are grouped from
  // the N' lines and every empty set joins one weighted observation of 0:
  // the cost does not grow with the 2^max_index_bits sets.
  const std::uint32_t mask =
      max_index_bits >= 32 ? ~0u : (1u << max_index_bits) - 1;
  std::vector<std::uint64_t> occurrences(stripped.unique_count(), 0);
  for (std::uint32_t id : stripped.ids) ++occurrences[id];
  std::vector<std::pair<std::uint32_t, std::uint64_t>> lines;  // set, refs
  lines.reserve(stripped.unique_count());
  for (std::size_t id = 0; id < stripped.unique_count(); ++id) {
    lines.emplace_back(stripped.unique[id] & mask, occurrences[id]);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t occupied = 0;
  for (std::size_t i = 0; i < lines.size();) {
    std::uint64_t accesses = 0;
    std::uint64_t cold = 0;
    const std::uint32_t set = lines[i].first;
    for (; i < lines.size() && lines[i].first == set; ++i) {
      accesses += lines[i].second;
      ++cold;
    }
    metrics->ObserveHistogram("explore.set_accesses", accesses);
    metrics->ObserveHistogram("explore.set_cold_misses", cold);
    ++occupied;
  }
  const std::uint64_t empty = (std::uint64_t{1} << max_index_bits) - occupied;
  metrics->ObserveHistogram("explore.set_accesses", 0, empty);
  metrics->ObserveHistogram("explore.set_cold_misses", 0, empty);
}

void ValidateLineWords(std::uint32_t line_words) {
  if (line_words == 0 || (line_words & (line_words - 1)) != 0) {
    throw support::Error(support::ErrorCategory::kUsage, "explorer",
                         "line_words " + std::to_string(line_words) +
                             " is not a power of two");
  }
}

}  // namespace

const DesignPoint* ExplorationResult::SmallestCache() const {
  const DesignPoint* best = nullptr;
  for (const DesignPoint& point : points) {
    if (best == nullptr || point.size_words() < best->size_words()) {
      best = &point;
    }
  }
  return best;
}

Explorer::Explorer(const trace::Trace& trace, ExplorerOptions options)
    : metrics_(options.metrics) {
  ValidateLineWords(options.line_words);
  Stopwatch watch;
  support::ScopedTraceSpan prelude_span("explore.prelude");
  const trace::StrippedTrace stripped = [&] {
    support::ScopedTraceSpan span("explore.strip");
    return trace::Strip(trace, options.line_words);
  }();
  BuildPrelude(stripped, options);
  prelude_seconds_ = watch.ElapsedSeconds();
  if (support::TraceSink* sink = support::TraceSink::Global()) {
    sink->Instant("explore.prelude_done");
  }
  support::MetricsRegistry::Observe(metrics_, "explore.prelude_seconds",
                                    prelude_seconds_);
}

Explorer::Explorer(const trace::TraceView& view, ExplorerOptions options)
    : metrics_(options.metrics) {
  ValidateLineWords(options.line_words);
  Stopwatch watch;
  support::ScopedTraceSpan prelude_span("explore.prelude");
  const trace::StrippedTrace stripped = [&] {
    support::ScopedTraceSpan span("explore.strip");
    // The streaming strip fuses line re-blocking into its single pass, so
    // the raw reference vector never materialises even for line_words > 1.
    return trace::Strip(view, options.line_words);
  }();
  BuildPrelude(stripped, options);
  prelude_seconds_ = watch.ElapsedSeconds();
  if (support::TraceSink* sink = support::TraceSink::Global()) {
    sink->Instant("explore.prelude_done");
  }
  support::MetricsRegistry::Observe(metrics_, "explore.prelude_seconds",
                                    prelude_seconds_);
}

void Explorer::BuildPrelude(const trace::StrippedTrace& stripped,
                            const ExplorerOptions& options) {
  stats_ = trace::ComputeStats(stripped);
  max_index_bits_ =
      std::min(options.max_index_bits, trace::SignificantAddressBits(stripped));

  const std::uint32_t jobs =
      options.jobs == 0 ? support::HardwareConcurrency() : options.jobs;
  if (auto* progress = support::ProgressReporter::Global()) {
    progress->BeginPhase("prelude depths", max_index_bits_ + 1);
  }
  if (options.engine == Engine::kFused) {
    // The fused depth-first traversal (section 2.4) for every jobs value:
    // jobs > 1 runs its nodes in parallel, it does not change algorithms.
    support::ScopedTraceSpan span("explore.fused_traversal");
    std::optional<support::ThreadPool> pool;
    FusedPreludeOptions fused;
    fused.metrics = metrics_;
    if (jobs > 1) fused.pool = &pool.emplace(jobs, metrics_);
    profiles_ = ComputeMissProfilesFused(stripped, max_index_bits_, fused);
  } else {
    // The reference engine's explicit phases (sections 2.2-2.3), each its
    // own span so a profile shows where BCAT vs MRCT construction time goes.
    const ZeroOneSets sets = [&] {
      support::ScopedTraceSpan span("explore.zeroone");
      return BuildZeroOneSets(stripped, max_index_bits_);
    }();
    const Bcat bcat = [&] {
      support::ScopedTraceSpan span("explore.bcat");
      return Bcat::Build(sets, stripped.unique_count(), max_index_bits_);
    }();
    const Mrct mrct = [&] {
      support::ScopedTraceSpan span("explore.mrct");
      return Mrct::Build(stripped);
    }();
    support::ScopedTraceSpan span("explore.profiles");
    profiles_ = ComputeMissProfiles(bcat, mrct, stripped.warm_count(),
                                    stripped.unique_count(), max_index_bits_);
  }
  if (auto* progress = support::ProgressReporter::Global()) {
    // Both engines produce every depth in one traversal.
    progress->Tick(max_index_bits_ + 1);
    progress->EndPhase();
  }
  // Freeze the suffix-sum solve caches while the Explorer is still private
  // to this thread: Solve queries on a shared (service) Explorer are then
  // read-only O(log hist) lookups.
  for (cache::StackProfile& profile : profiles_) profile.FinalizeSolveCache();
  RecordPreludeHistograms(stripped, profiles_, max_index_bits_, metrics_);
  support::MetricsRegistry::Add(metrics_, "explore.depths", profiles_.size());
  support::MetricsRegistry::Add(metrics_, "explore.trace_refs", stats_.n);
  support::MetricsRegistry::Add(metrics_, "explore.unique_refs",
                                stats_.n_unique);
}

ExplorationResult Explorer::Solve(std::uint64_t k) const {
  Stopwatch watch;
  support::ScopedTraceSpan span("explore.solve");
  support::MetricsRegistry::Add(metrics_, "explore.solve_queries");
  ExplorationResult result;
  result.k = k;
  result.points.reserve(profiles_.size());
  for (const cache::StackProfile& profile : profiles_) {
    DesignPoint point;
    point.depth = profile.depth();
    point.assoc = profile.MinAssocFor(k);
    point.warm_misses = profile.MissesAtAssoc(point.assoc);
    result.points.push_back(point);
  }
  result.prelude_seconds = prelude_seconds_;
  result.solve_seconds = watch.ElapsedSeconds();
  return result;
}

ExplorationResult Explorer::SolveFraction(double fraction) const {
  const auto k = static_cast<std::uint64_t>(
      std::floor(fraction * static_cast<double>(stats_.max_misses)));
  return Solve(k);
}

ExplorationResult Explore(const trace::Trace& trace, std::uint64_t k,
                          ExplorerOptions options) {
  return Explorer(trace, options).Solve(k);
}

}  // namespace ces::analytic
