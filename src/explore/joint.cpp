#include "explore/joint.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "cache/cache.hpp"
#include "cache/energy.hpp"
#include "cache/lru_sweep.hpp"
#include "explore/pareto.hpp"
#include "support/check.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "trace/strip.hpp"

namespace ces::explore {

namespace {

using cache::CacheConfig;
using cache::HierarchyConfig;
using support::Error;
using support::ErrorCategory;

// Pairs admitted per pruning wave. Pruning decisions happen only at wave
// boundaries, in canonical order, so the wave size — not the job count —
// defines which configurations are skipped (JointGolden pins the result).
constexpr std::size_t kWavePairs = 8;

std::vector<std::uint32_t> SortedUnique(std::vector<std::uint32_t> values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

LevelAxes NormalizeAxes(const LevelAxes& axes) {
  return LevelAxes{SortedUnique(axes.depths), SortedUnique(axes.assocs),
                   SortedUnique(axes.lines)};
}

JointSpace NormalizeSpace(const JointSpace& space) {
  JointSpace norm = space;
  norm.l1i = NormalizeAxes(space.l1i);
  norm.l1d = NormalizeAxes(space.l1d);
  norm.l2 = NormalizeAxes(space.l2);
  return norm;
}

// Canonical total order over configurations: per-level (line, depth, assoc)
// tuples, L1I then L1D then L2. Front output and all merge steps use it so
// results never depend on evaluation order.
auto ConfigTuple(const HierarchyConfig& c) {
  return std::make_tuple(c.l1i.line_words, c.l1i.depth, c.l1i.assoc,
                         c.l1d.line_words, c.l1d.depth, c.l1d.assoc,
                         c.l2.line_words, c.l2.depth, c.l2.assoc);
}

bool ConfigLess(const HierarchyConfig& a, const HierarchyConfig& b) {
  return ConfigTuple(a) < ConfigTuple(b);
}

// One valid (L1I, L1D) pair. The L2 axes attach per pair via `valid_l2`.
struct Pair {
  CacheConfig l1i;
  CacheConfig l1d;
};

// Relational L2 rules given an L1 pair; the absolute per-level rules live in
// CacheConfig::IsValid. Kept in sync with ValidateJointConfig.
bool L2ValidFor(const CacheConfig& l2, const Pair& pair) {
  return l2.line_words >= pair.l1i.line_words &&
         l2.size_words() >= pair.l1i.size_words() + pair.l1d.size_words();
}

// Valid pairs in canonical order (shared L1 line, then L1I depth/assoc, then
// L1D depth/assoc — matching ConfigTuple).
std::vector<Pair> EnumeratePairs(const JointSpace& space) {
  std::vector<Pair> pairs;
  for (std::uint32_t line : space.l1i.lines) {
    if (std::find(space.l1d.lines.begin(), space.l1d.lines.end(), line) ==
        space.l1d.lines.end()) {
      continue;  // split L1s share one refill width
    }
    for (std::uint32_t di : space.l1i.depths) {
      for (std::uint32_t ai : space.l1i.assocs) {
        CacheConfig l1i{di, ai, line, space.l1i_policy,
                        cache::WritePolicy::kWriteBackAllocate};
        if (!l1i.IsValid()) continue;
        for (std::uint32_t dd : space.l1d.depths) {
          for (std::uint32_t ad : space.l1d.assocs) {
            CacheConfig l1d{dd, ad, line, space.l1d_policy,
                            cache::WritePolicy::kWriteBackAllocate};
            if (!l1d.IsValid()) continue;
            pairs.push_back(Pair{l1i, l1d});
          }
        }
      }
    }
  }
  return pairs;
}

std::vector<CacheConfig> EnumerateL2(const JointSpace& space) {
  std::vector<CacheConfig> configs;
  for (std::uint32_t line : space.l2.lines) {
    for (std::uint32_t depth : space.l2.depths) {
      for (std::uint32_t assoc : space.l2.assocs) {
        CacheConfig l2{depth, assoc, line, space.l2_policy,
                       cache::WritePolicy::kWriteBackAllocate};
        if (l2.IsValid()) configs.push_back(l2);
      }
    }
  }
  return configs;
}

// The accesses of one stream kind that can miss a write-back/allocate L1
// with a given line size: the first access of every run of consecutive
// same-line accesses of that kind (the other kind's accesses in between go
// to the other L1), in merged order. Every later access of a run hits the
// line its run start just touched, and under LRU, FIFO, PLRU and random
// replacement such a hit changes no replacement state. So the run starts
// alone, each carrying the OR of its run's write flags, reproduce every
// miss, victim and write-back of the full stream.
struct RunStarts {
  std::vector<std::uint32_t> addrs;      // run-start word addresses
  std::vector<std::uint32_t> positions;  // their merged-stream positions
  std::vector<std::uint8_t> writes;      // OR of each run's write flags
};

struct CollapsedStreams {
  RunStarts instr;
  RunStarts data;

  const RunStarts& Of(trace::StreamKind kind) const {
    return kind == trace::StreamKind::kInstruction ? instr : data;
  }
};

CollapsedStreams CollapseRuns(const trace::AccessSequence& accesses,
                              std::uint32_t line_words) {
  if (accesses.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw Error(ErrorCategory::kRange, "joint",
                "merged stream of " + std::to_string(accesses.size()) +
                    " accesses exceeds 2^32 - 1 positions");
  }
  const std::uint32_t line_bits = cache::CeilLog2(line_words);
  CollapsedStreams runs;
  std::uint32_t last_line[2] = {0, 0};
  for (std::size_t p = 0; p < accesses.size(); ++p) {
    const trace::Access& access = accesses[p];
    const bool instr = access.kind == trace::StreamKind::kInstruction;
    RunStarts& kind_runs = instr ? runs.instr : runs.data;
    const std::uint32_t line = access.addr >> line_bits;
    if (!kind_runs.positions.empty() && last_line[instr] == line) {
      kind_runs.writes.back() |= access.is_write ? 1 : 0;
      continue;
    }
    last_line[instr] = line;
    kind_runs.addrs.push_back(access.addr);
    kind_runs.positions.push_back(static_cast<std::uint32_t>(p));
    kind_runs.writes.push_back(access.is_write ? 1 : 0);
  }
  return runs;
}

// What one L1 geometry does on its own stream kind: which merged positions
// miss and the dirty victim each write-back sends to the L2, plus the lower
// bound on its misses that the pruning layers read — the exact count for
// LRU, the compulsory (cold) count for other policies.
struct L1Result {
  cache::MissEvents events;
  std::uint64_t floor = 0;
};

L1Result SimulateL1(const CacheConfig& config, const RunStarts& runs,
                    std::size_t n_accesses) {
  // The run collapse is exact only for write-back/allocate, the one L1
  // policy the joint space builds.
  CES_CHECK(config.write_policy == cache::WritePolicy::kWriteBackAllocate);
  cache::Cache l1(config);
  L1Result result;
  cache::MissEvents& events = result.events;
  events.miss_bits.assign((n_accesses + 63) / 64, 0);
  for (std::size_t r = 0; r < runs.positions.size(); ++r) {
    cache::Eviction eviction;
    if (l1.Access(runs.addrs[r], runs.writes[r] != 0, &eviction) ==
        cache::AccessOutcome::kHit) {
      continue;
    }
    const std::uint32_t p = runs.positions[r];
    events.miss_bits[p / 64] |= std::uint64_t{1} << (p % 64);
    if (eviction.valid && eviction.dirty) {
      events.writebacks.emplace_back(p, eviction.addr);
    }
  }
  events.misses = l1.stats().misses;
  result.floor = l1.stats().cold_misses;
  return result;
}

// Every associativity of one L1 (line, depth) on its stream kind's run
// starts, ascending `assocs`. LRU takes one stack pass for the whole axis;
// the other policies have no inclusion property, so each geometry is
// simulated on its own.
std::vector<L1Result> SweepL1(cache::ReplacementPolicy policy,
                              std::uint32_t line, std::uint32_t depth,
                              const std::vector<std::uint32_t>& assocs,
                              const RunStarts& runs, std::size_t n_accesses) {
  std::vector<L1Result> results(assocs.size());
  if (policy == cache::ReplacementPolicy::kLru) {
    std::vector<cache::MissEvents> events =
        cache::LruEventsByAssoc(runs.addrs, runs.positions, runs.writes,
                                n_accesses, line, depth, assocs);
    for (std::size_t a = 0; a < assocs.size(); ++a) {
      results[a].floor = events[a].misses;
      results[a].events = std::move(events[a]);
    }
    return results;
  }
  for (std::size_t a = 0; a < assocs.size(); ++a) {
    results[a] = SimulateL1(CacheConfig{depth, assocs[a], line, policy,
                                        cache::WritePolicy::kWriteBackAllocate},
                            runs, n_accesses);
  }
  return results;
}

// The L2 stream of one (L1I, L1D) pair in cache::TwoLevelCache order: at
// every merged position that misses its L1, the refill, then the dirty
// victim's write-back. The two L1s' miss positions are disjoint (each
// position has one kind). It is independent of the L2 geometry.
trace::Trace MergeL2Stream(const trace::AccessSequence& accesses,
                           const cache::MissEvents& instr,
                           const cache::MissEvents& data) {
  trace::Trace stream;
  stream.refs.reserve(instr.misses + data.misses + instr.writebacks.size() +
                 data.writebacks.size());
  auto next_i = instr.writebacks.begin();
  auto next_d = data.writebacks.begin();
  const auto push_writeback = [&](auto& next, const cache::MissEvents& events,
                                  std::uint32_t p) {
    if (next != events.writebacks.end() && next->first == p) {
      stream.refs.push_back((next++)->second);
    }
  };
  for (std::size_t w = 0; w < instr.miss_bits.size(); ++w) {
    for (std::uint64_t bits = instr.miss_bits[w] | data.miss_bits[w];
         bits != 0; bits &= bits - 1) {
      const auto p =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      stream.refs.push_back(accesses[p].addr);
      push_writeback(next_i, instr, p);
      push_writeback(next_d, data, p);
    }
  }
  return stream;
}

// LRU misses (incl. cold) of each L2 of `l2s` on a pair's L2 stream. `l2s`
// is in EnumerateL2 order, so each (line, depth) is a run of ascending
// associativities and takes one stack pass.
std::vector<std::uint64_t> L2Misses(const trace::Trace& stream,
                                    const std::vector<CacheConfig>& l2s) {
  std::vector<std::uint64_t> misses;
  misses.reserve(l2s.size());
  for (std::size_t begin = 0; begin < l2s.size();) {
    const CacheConfig& first = l2s[begin];
    std::vector<std::uint32_t> assocs;
    std::size_t end = begin;
    for (; end < l2s.size() && l2s[end].line_words == first.line_words &&
           l2s[end].depth == first.depth;
         ++end) {
      assocs.push_back(l2s[end].assoc);
    }
    const std::vector<std::uint64_t> group = cache::LruMissesByAssoc(
        stream.refs, first.line_words, first.depth, assocs);
    misses.insert(misses.end(), group.begin(), group.end());
    begin = end;
  }
  return misses;
}

void FinishDerived(JointMetrics& metrics, const HierarchyConfig& config,
                   std::uint64_t n_instr, std::uint64_t n_data) {
  metrics.misses =
      metrics.l1i_misses + metrics.l1d_misses + metrics.l2_misses;
  metrics.size_words = config.l1i.size_words() + config.l1d.size_words() +
                       config.l2.size_words();
  const double l1_accesses = static_cast<double>(n_instr + n_data);
  const cache::LatencyModel latency = DeriveLatency(config);
  metrics.amat_ns =
      l1_accesses == 0.0
          ? 0.0
          : latency.l1_ns +
                (latency.l2_ns * static_cast<double>(metrics.l2_accesses) +
                 latency.memory_ns * static_cast<double>(metrics.l2_misses)) /
                    l1_accesses;
  metrics.energy_nj =
      cache::EstimateEnergy(config.l1i).read_energy_nj *
          static_cast<double>(n_instr) +
      cache::EstimateEnergy(config.l1d).read_energy_nj *
          static_cast<double>(n_data) +
      cache::EstimateEnergy(config.l2).read_energy_nj *
          static_cast<double>(metrics.l2_accesses) +
      10.0 * static_cast<double>(metrics.l2_misses);
}

JointMetrics ScoreConfig(const cache::MissEvents& instr,
                         const cache::MissEvents& data,
                         const HierarchyConfig& config,
                         std::uint64_t l2_misses, std::uint64_t n_instr,
                         std::uint64_t n_data) {
  JointMetrics metrics;
  metrics.l1i_misses = instr.misses;
  metrics.l1d_misses = data.misses;
  metrics.l1d_writebacks = data.writebacks.size();
  metrics.l2_accesses =
      metrics.l1i_misses + metrics.l1d_misses + metrics.l1d_writebacks;
  metrics.l2_misses = l2_misses;
  FinishDerived(metrics, config, n_instr, n_data);
  return metrics;
}

Objectives ToObjectives(const JointMetrics& metrics) {
  return Objectives{metrics.misses, metrics.amat_ns, metrics.energy_nj};
}

}  // namespace

JointSpace JointSpace::Default() {
  JointSpace space;
  space.l1i = LevelAxes{{16, 32, 64, 128}, {1, 2, 4}, {4}};
  space.l1d = LevelAxes{{16, 32, 64, 128}, {1, 2, 4}, {4}};
  space.l2 = LevelAxes{{256, 512, 1024}, {2, 4, 8}, {8}};
  return space;
}

JointSpace JointSpace::Small() {
  JointSpace space;
  space.l1i = LevelAxes{{2, 4, 8}, {1, 2}, {1}};
  space.l1d = LevelAxes{{2, 4, 8}, {1, 2}, {1}};
  space.l2 = LevelAxes{{16, 32}, {1, 2}, {1, 2}};
  return space;
}

std::uint64_t JointSpace::TotalConfigs() const {
  const JointSpace norm = NormalizeSpace(*this);
  const auto axis = [](const LevelAxes& a) {
    return static_cast<std::uint64_t>(a.depths.size()) * a.assocs.size() *
           a.lines.size();
  };
  return axis(norm.l1i) * axis(norm.l1d) * axis(norm.l2);
}

std::string JointSpace::Canonical() const {
  const JointSpace norm = NormalizeSpace(*this);
  const auto join = [](const std::vector<std::uint32_t>& values) {
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(values[i]);
    }
    return out;
  };
  const auto axes = [&](const char* name, const LevelAxes& a) {
    return std::string(name) + "=d" + join(a.depths) + ";a" + join(a.assocs) +
           ";w" + join(a.lines);
  };
  return axes("l1i", norm.l1i) + "|" + axes("l1d", norm.l1d) + "|" +
         axes("l2", norm.l2) + "|pol=" + cache::ToString(l1i_policy) + "," +
         cache::ToString(l1d_policy) + "," + cache::ToString(l2_policy);
}

JointSpace JointSpaceByName(const std::string& name) {
  if (name == "default") return JointSpace::Default();
  if (name == "small") return JointSpace::Small();
  throw Error(ErrorCategory::kValidation, "joint",
              "unknown joint space '" + name + "' (expected default|small)");
}

cache::ReplacementPolicy ReplacementPolicyByName(const std::string& name) {
  if (name == "lru") return cache::ReplacementPolicy::kLru;
  if (name == "fifo") return cache::ReplacementPolicy::kFifo;
  if (name == "random") return cache::ReplacementPolicy::kRandom;
  if (name == "plru") return cache::ReplacementPolicy::kPlru;
  throw Error(ErrorCategory::kValidation, "joint",
              "unknown replacement policy '" + name +
                  "' (expected lru|fifo|random|plru)");
}

bool ValidateJointConfig(const HierarchyConfig& config) {
  if (!config.l1i.IsValid() || !config.l1d.IsValid() || !config.l2.IsValid()) {
    return false;
  }
  if (config.l1i.line_words != config.l1d.line_words) return false;
  return L2ValidFor(config.l2, Pair{config.l1i, config.l1d});
}

cache::LatencyModel DeriveLatency(const HierarchyConfig& config) {
  const auto time_ns = [](const CacheConfig& c) {
    return cache::EstimateEnergy(c).access_time_ns;
  };
  cache::LatencyModel latency;
  latency.l1_ns = std::max(time_ns(config.l1i), time_ns(config.l1d));
  latency.l2_ns = 4.0 + time_ns(config.l2);  // fixed interconnect overhead
  latency.memory_ns = 60.0;
  return latency;
}

std::string JointConfigKey(const HierarchyConfig& config) {
  const auto level = [](char tag, const CacheConfig& c) {
    return std::string(1, tag) + std::to_string(c.line_words) + "x" +
           std::to_string(c.depth) + "x" + std::to_string(c.assoc);
  };
  return level('i', config.l1i) + ":" + level('d', config.l1d) + ":" +
         level('u', config.l2);
}

bool JointDominates(const JointMetrics& a, const JointMetrics& b) {
  return Dominates(ToObjectives(a), ToObjectives(b));
}

std::vector<JointPoint> JointParetoFront(std::vector<JointPoint> points) {
  std::sort(points.begin(), points.end(),
            [](const JointPoint& a, const JointPoint& b) {
              return ConfigLess(a.config, b.config);
            });
  std::vector<Objectives> objectives;
  objectives.reserve(points.size());
  for (const JointPoint& point : points) {
    objectives.push_back(ToObjectives(point.metrics));
  }
  std::vector<JointPoint> front;
  for (std::size_t index : ParetoIndices(objectives)) {
    front.push_back(points[index]);
  }
  return front;
}

trace::AccessSequence InterleaveProportional(const trace::Trace& instr,
                                             const trace::Trace& data) {
  trace::AccessSequence merged;
  const std::uint64_t ni = instr.refs.size();
  const std::uint64_t nd = data.refs.size();
  merged.reserve(ni + nd);
  std::uint64_t i = 0;
  std::uint64_t d = 0;
  while (i < ni || d < nd) {
    bool take_instr;
    if (i >= ni) {
      take_instr = false;
    } else if (d >= nd) {
      take_instr = true;
    } else {
      take_instr = i * nd <= d * ni;
    }
    if (take_instr) {
      merged.push_back(trace::Access{instr.refs[i++],
                                     trace::StreamKind::kInstruction, false});
    } else {
      merged.push_back(
          trace::Access{data.refs[d++], trace::StreamKind::kData, false});
    }
  }
  return merged;
}

JointMetrics EvaluateJointConfig(const trace::AccessSequence& accesses,
                                 const HierarchyConfig& config) {
  if (!ValidateJointConfig(config)) {
    throw Error(ErrorCategory::kValidation, "joint",
                "invalid joint configuration " + JointConfigKey(config));
  }
  std::uint64_t n_instr = 0;
  for (const trace::Access& access : accesses) {
    if (access.kind == trace::StreamKind::kInstruction) ++n_instr;
  }
  const CollapsedStreams runs = CollapseRuns(accesses, config.l1i.line_words);
  const auto l1 = [&](trace::StreamKind kind, const CacheConfig& c) {
    return std::move(SweepL1(c.replacement, c.line_words, c.depth, {c.assoc},
                             runs.Of(kind), accesses.size())
                         .front()
                         .events);
  };
  const cache::MissEvents instr = l1(trace::StreamKind::kInstruction,
                                     config.l1i);
  const cache::MissEvents data = l1(trace::StreamKind::kData, config.l1d);
  const std::uint64_t l2_misses =
      L2Misses(MergeL2Stream(accesses, instr, data), {config.l2}).front();
  return ScoreConfig(instr, data, config, l2_misses, n_instr,
                     accesses.size() - n_instr);
}

namespace {

// The L1 results of every geometry the pairs use, keyed by (line, depth,
// stream kind, assoc). With the kind inside the depth, consecutive tasks
// alternate the long instruction stream and the short data stream, so each
// of the pool's contiguous chunks gets a share of both.
class L1Table {
 public:
  // Simulates every L1 geometry of `pairs` up front: an L1 is set by its own
  // stream alone. One pool task per (kind, line, depth) for LRU — a stack
  // pass covers every associativity — and one per geometry otherwise.
  L1Table(const std::vector<Pair>& pairs, const JointSpace& space,
          const std::map<std::uint32_t, CollapsedStreams>& collapsed,
          std::size_t n_accesses, support::ThreadPool& pool) {
    for (const Pair& pair : pairs) {
      results_.try_emplace(MakeKey(trace::StreamKind::kInstruction, pair.l1i));
      results_.try_emplace(MakeKey(trace::StreamKind::kData, pair.l1d));
    }
    struct Task {
      trace::StreamKind kind;
      std::uint32_t line;
      std::uint32_t depth;
      std::vector<std::uint32_t> assocs;  // ascending (map order)
    };
    const auto policy = [&](trace::StreamKind kind) {
      return kind == trace::StreamKind::kInstruction ? space.l1i_policy
                                                     : space.l1d_policy;
    };
    std::vector<Task> tasks;
    for (const auto& [key, unused] : results_) {
      const auto [line, depth, kind, assoc] = key;
      const bool lru = policy(kind) == cache::ReplacementPolicy::kLru;
      if (!lru || tasks.empty() || tasks.back().kind != kind ||
          tasks.back().line != line || tasks.back().depth != depth) {
        tasks.push_back(Task{kind, line, depth, {}});
      }
      tasks.back().assocs.push_back(assoc);
    }
    std::vector<std::vector<L1Result>> swept(tasks.size());
    pool.ParallelFor(tasks.size(), [&](std::size_t t) {
      const Task& task = tasks[t];
      swept[t] = SweepL1(policy(task.kind), task.line, task.depth,
                         task.assocs, collapsed.at(task.line).Of(task.kind),
                         n_accesses);
    });
    auto slot = results_.begin();
    for (std::vector<L1Result>& results : swept) {
      for (L1Result& result : results) (slot++)->second = std::move(result);
    }
  }

  std::size_t size() const { return results_.size(); }

  const L1Result& Of(trace::StreamKind kind, const CacheConfig& l1) const {
    return results_.at(MakeKey(kind, l1));
  }
  std::uint64_t Floor(trace::StreamKind kind, const CacheConfig& l1) const {
    return Of(kind, l1).floor;
  }
  std::uint64_t PairFloor(const Pair& pair) const {
    return Floor(trace::StreamKind::kInstruction, pair.l1i) +
           Floor(trace::StreamKind::kData, pair.l1d);
  }

 private:
  using Key = std::tuple<std::uint32_t, std::uint32_t, trace::StreamKind,
                         std::uint32_t>;
  static Key MakeKey(trace::StreamKind kind, const CacheConfig& l1) {
    return Key{l1.line_words, l1.depth, kind, l1.assoc};
  }

  std::map<Key, L1Result> results_;
};

// Dimension-ordering seed scan (SimpleScalar-style): walk one axis at a
// time — shared L1 line, L1I depth, L1I assoc, L1D depth, L1D assoc — from a
// smallest-value base, visiting every value of the active axis while the
// others stay put, then lock the active axis at the best miss floor
// (ties to the smallest value) before scanning the next. Every visited pair
// is a seed, so the incumbent front spans each axis's extremes before wave
// pruning starts.
std::vector<std::size_t> SeedPairIndices(const JointSpace& space,
                                         const std::vector<Pair>& pairs,
                                         const L1Table& l1) {
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                      std::uint32_t, std::uint32_t>,
           std::size_t>
      index;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    index.emplace(std::make_tuple(pairs[i].l1i.line_words, pairs[i].l1i.depth,
                                  pairs[i].l1i.assoc, pairs[i].l1d.depth,
                                  pairs[i].l1d.assoc),
                  i);
  }

  std::vector<std::uint32_t> shared_lines;
  for (std::uint32_t line : space.l1i.lines) {
    if (std::find(space.l1d.lines.begin(), space.l1d.lines.end(), line) !=
        space.l1d.lines.end()) {
      shared_lines.push_back(line);
    }
  }
  if (shared_lines.empty()) return {};

  // cursor = (line, l1i depth, l1i assoc, l1d depth, l1d assoc)
  std::uint32_t cursor[5] = {shared_lines[0], space.l1i.depths[0],
                             space.l1i.assocs[0], space.l1d.depths[0],
                             space.l1d.assocs[0]};
  const std::vector<std::uint32_t>* axes[5] = {
      &shared_lines, &space.l1i.depths, &space.l1i.assocs, &space.l1d.depths,
      &space.l1d.assocs};

  std::vector<std::size_t> seeds;
  for (std::size_t dim = 0; dim < 5; ++dim) {
    std::uint32_t best_value = cursor[dim];
    std::uint64_t best_score = ~std::uint64_t{0};
    for (std::uint32_t value : *axes[dim]) {
      std::uint32_t candidate[5];
      std::copy(cursor, cursor + 5, candidate);
      candidate[dim] = value;
      const auto it = index.find(std::make_tuple(candidate[0], candidate[1],
                                                 candidate[2], candidate[3],
                                                 candidate[4]));
      if (it == index.end()) continue;  // axis value forms no valid pair
      seeds.push_back(it->second);
      const std::uint64_t s = l1.PairFloor(pairs[it->second]);
      if (s < best_score) {  // ties keep the first (smallest) value
        best_score = s;
        best_value = value;
      }
    }
    cursor[dim] = best_value;
  }
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

}  // namespace

JointResult ExploreJoint(const trace::AccessSequence& accesses,
                         const JointSpace& raw_space, JointOptions options) {
  const auto started = std::chrono::steady_clock::now();
  const JointSpace space = NormalizeSpace(raw_space);
  const std::uint32_t jobs =
      options.jobs == 0 ? support::HardwareConcurrency() : options.jobs;

  JointResult result;
  result.space_configs = space.TotalConfigs();

  std::vector<Pair> pairs = EnumeratePairs(space);
  const std::vector<CacheConfig> l2s = EnumerateL2(space);

  // Per-pair valid L2 configurations; pairs with none contribute nothing and
  // are dropped outright.
  std::vector<std::vector<std::uint32_t>> valid_l2;
  {
    std::vector<Pair> kept;
    for (const Pair& pair : pairs) {
      std::vector<std::uint32_t> valid;
      for (std::uint32_t j = 0; j < l2s.size(); ++j) {
        if (L2ValidFor(l2s[j], pair)) valid.push_back(j);
      }
      if (valid.empty()) continue;
      kept.push_back(pair);
      valid_l2.push_back(std::move(valid));
      result.valid_configs += valid_l2.back().size();
    }
    pairs = std::move(kept);
  }
  result.total_pairs = pairs.size();

  const auto record = [&]() {
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    support::MetricsRegistry* m = options.metrics;
    support::MetricsRegistry::Add(m, "explore.joint_space",
                                  result.space_configs);
    support::MetricsRegistry::Add(m, "explore.joint_valid",
                                  result.valid_configs);
    support::MetricsRegistry::Add(m, "explore.joint_evaluated",
                                  result.evaluated_configs);
    support::MetricsRegistry::Add(m, "explore.joint_pruned",
                                  result.pruned_configs);
    support::MetricsRegistry::Add(m, "explore.joint_pairs",
                                  result.total_pairs);
    support::MetricsRegistry::Add(m, "explore.joint_pairs_evaluated",
                                  result.evaluated_pairs);
    support::MetricsRegistry::Add(m, "explore.joint_pairs_pruned",
                                  result.pruned_pairs);
    support::MetricsRegistry::Add(m, "explore.joint_pairs_threshold",
                                  result.threshold_pruned_pairs);
    support::MetricsRegistry::Add(m, "explore.joint_seeds",
                                  result.seed_pairs);
    support::MetricsRegistry::Add(m, "explore.joint_l1_sims", result.l1_sims);
    support::MetricsRegistry::Add(m, "explore.joint_front",
                                  result.front.size());
    support::MetricsRegistry::Observe(m, "explore.joint", result.seconds);
  };

  if (pairs.empty()) {
    record();
    return result;
  }

  std::uint64_t n_instr = 0;
  for (const trace::Access& access : accesses) {
    if (access.kind == trace::StreamKind::kInstruction) ++n_instr;
  }
  const std::uint64_t n_data = accesses.size() - n_instr;

  support::ThreadPool pool(jobs, options.metrics);

  // One run-collapsed stream pair per L1 line size in play.
  std::map<std::uint32_t, CollapsedStreams> collapsed;
  for (const Pair& pair : pairs) {
    const std::uint32_t line = pair.l1i.line_words;
    if (!collapsed.contains(line)) {
      collapsed.emplace(line, CollapseRuns(accesses, line));
    }
  }

  const L1Table l1(pairs, space, collapsed, accesses.size(), pool);
  result.l1_sims = l1.size();

  // Evaluates pairs[indices[s]] against its surviving L2 configurations.
  // Output slots are pre-sized and merged in index order, so the resulting
  // point list is identical for every jobs value.
  const auto evaluate = [&](const std::vector<std::size_t>& indices,
                            const std::vector<std::vector<std::uint32_t>>&
                                surviving) {
    // The compulsory L2 floor is the L2 cold count of the first evaluated
    // pair. Every distinct line's first touch misses its L1, and write-backs
    // only carry lines already refilled, so every pair's L2 stream holds
    // exactly the merged stream's distinct L2 lines.
    const bool take_floor = result.l2_floor.empty();
    std::vector<std::vector<JointPoint>> slots(indices.size());
    pool.ParallelFor(indices.size(), [&](std::size_t s) {
      const Pair& pair = pairs[indices[s]];
      const cache::MissEvents& instr =
          l1.Of(trace::StreamKind::kInstruction, pair.l1i).events;
      const cache::MissEvents& data =
          l1.Of(trace::StreamKind::kData, pair.l1d).events;
      const trace::Trace stream = MergeL2Stream(accesses, instr, data);
      if (s == 0 && take_floor) {
        for (std::uint32_t line : space.l2.lines) {
          result.l2_floor.emplace(line,
                                  trace::ComputeStats(stream, line).n_unique);
        }
      }
      std::vector<CacheConfig> configs;
      configs.reserve(surviving[s].size());
      for (std::uint32_t j : surviving[s]) configs.push_back(l2s[j]);
      const std::vector<std::uint64_t> l2_misses = L2Misses(stream, configs);
      slots[s].reserve(configs.size());
      for (std::size_t k = 0; k < configs.size(); ++k) {
        const HierarchyConfig config{pair.l1i, pair.l1d, configs[k]};
        slots[s].push_back(JointPoint{
            config,
            ScoreConfig(instr, data, config, l2_misses[k], n_instr, n_data)});
      }
    });
    std::vector<JointPoint> points;
    for (std::vector<JointPoint>& slot : slots) {
      points.insert(points.end(), slot.begin(), slot.end());
    }
    return points;
  };

  if (!options.prune) {
    std::vector<std::size_t> all(pairs.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    result.front = JointParetoFront(evaluate(all, valid_l2));
    result.evaluated_pairs = pairs.size();
    result.evaluated_configs = result.valid_configs;
    record();
    return result;
  }

  // --- pruned exploration ---

  const bool l1i_lru = space.l1i_policy == cache::ReplacementPolicy::kLru;
  const bool l1d_lru = space.l1d_policy == cache::ReplacementPolicy::kLru;
  bool has_writes = false;
  for (const trace::Access& access : accesses) {
    if (access.is_write) {
      has_writes = true;
      break;
    }
  }
  // Associativity-threshold rule (Bender-style): only sound when equal warm
  // miss counts imply identical miss events AND identical L2 streams — LRU
  // L1s and no write-backs anywhere (a write-free stream).
  const bool threshold_ok = l1i_lru && l1d_lru && !has_writes;

  // Component-wise lower bound on the objectives of (pair, l2): exact L1
  // terms (LRU) or compulsory floors, zero write-backs, compulsory L2 floor.
  // Every objective is monotone in the bounded counts, so a front member
  // that strictly dominates this bound dominates the true metrics too. An
  // empty front dominates nothing; once it is not empty some pair has been
  // evaluated, so the L2 floor is known.
  const auto bound_dominated = [&](const Pair& pair, const CacheConfig& l2,
                                   const std::vector<JointPoint>& front) {
    if (front.empty()) return false;
    JointMetrics bound;
    bound.l1i_misses = l1.Floor(trace::StreamKind::kInstruction, pair.l1i);
    bound.l1d_misses = l1.Floor(trace::StreamKind::kData, pair.l1d);
    bound.l1d_writebacks = 0;
    bound.l2_accesses = bound.l1i_misses + bound.l1d_misses;
    bound.l2_misses = result.l2_floor.at(l2.line_words);
    FinishDerived(bound, HierarchyConfig{pair.l1i, pair.l1d, l2}, n_instr,
                  n_data);
    return std::any_of(front.begin(), front.end(),
                       [&](const JointPoint& member) {
                         return JointDominates(member.metrics, bound);
                       });
  };

  // Is some canonically-earlier pair with the same geometry but lower
  // associativity guaranteed the same per-level miss counts? Then this
  // pair's extra ways buy nothing and cost energy and latency on every L2:
  // skip it without simulation. Under LRU the floors are exact miss counts,
  // and at one (line, depth) equal misses mean equal warm misses. Every
  // geometry read here is in the table: a lower associativity keeps a pair
  // valid, so a kept pair uses it.
  const auto threshold_dominated = [&](const Pair& pair) {
    if (!threshold_ok) return false;
    const auto misses_at = [&](trace::StreamKind kind, CacheConfig geometry,
                               std::uint32_t assoc) {
      geometry.assoc = assoc;
      return l1.Floor(kind, geometry);
    };
    const std::uint64_t misses_i =
        l1.Floor(trace::StreamKind::kInstruction, pair.l1i);
    const std::uint64_t misses_d = l1.Floor(trace::StreamKind::kData, pair.l1d);
    for (std::uint32_t ai : space.l1i.assocs) {
      if (ai > pair.l1i.assoc) break;
      if (misses_at(trace::StreamKind::kInstruction, pair.l1i, ai) !=
          misses_i) {
        continue;
      }
      for (std::uint32_t ad : space.l1d.assocs) {
        if (ad > pair.l1d.assoc) break;
        if (ai == pair.l1i.assoc && ad == pair.l1d.assoc) continue;
        if (misses_at(trace::StreamKind::kData, pair.l1d, ad) != misses_d) {
          continue;
        }
        return true;
      }
    }
    return false;
  };

  const std::vector<std::size_t> seeds = SeedPairIndices(space, pairs, l1);
  result.seed_pairs = seeds.size();

  std::vector<char> decided(pairs.size(), 0);
  std::vector<JointPoint> front;
  {
    std::vector<std::vector<std::uint32_t>> seed_l2;
    for (std::size_t s : seeds) {
      decided[s] = 1;
      seed_l2.push_back(valid_l2[s]);
      result.evaluated_configs += valid_l2[s].size();
    }
    result.evaluated_pairs += seeds.size();
    front = JointParetoFront(evaluate(seeds, seed_l2));
  }

  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!decided[i]) remaining.push_back(i);
  }

  for (std::size_t wave_begin = 0; wave_begin < remaining.size();
       wave_begin += kWavePairs) {
    const std::size_t wave_end =
        std::min(remaining.size(), wave_begin + kWavePairs);
    std::vector<std::size_t> scheduled;
    std::vector<std::vector<std::uint32_t>> scheduled_l2;
    // Decisions are serial, in canonical order, against the front as of the
    // wave boundary — identical for every jobs value.
    for (std::size_t w = wave_begin; w < wave_end; ++w) {
      const std::size_t p = remaining[w];
      const Pair& pair = pairs[p];
      if (threshold_dominated(pair)) {
        ++result.pruned_pairs;
        ++result.threshold_pruned_pairs;
        result.pruned_configs += valid_l2[p].size();
        continue;
      }
      std::vector<std::uint32_t> surviving;
      for (std::uint32_t j : valid_l2[p]) {
        if (!bound_dominated(pair, l2s[j], front)) surviving.push_back(j);
      }
      result.pruned_configs += valid_l2[p].size() - surviving.size();
      if (surviving.empty()) {
        ++result.pruned_pairs;
        continue;
      }
      result.evaluated_configs += surviving.size();
      scheduled.push_back(p);
      scheduled_l2.push_back(std::move(surviving));
    }
    if (scheduled.empty()) continue;
    result.evaluated_pairs += scheduled.size();
    std::vector<JointPoint> points = evaluate(scheduled, scheduled_l2);
    points.insert(points.end(), front.begin(), front.end());
    front = JointParetoFront(std::move(points));
  }

  result.front = std::move(front);
  record();
  return result;
}

}  // namespace ces::explore
