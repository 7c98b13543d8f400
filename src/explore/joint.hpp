// Joint L1I x L1D x L2 design-space exploration (extension; ROADMAP item 4).
//
// The paper explores a single (depth, assoc) LRU space analytically; this
// module lifts the same machinery to the joint three-cache hierarchy the
// embedded question actually asks about: split L1 instruction/data caches
// backed by a unified L2, each with its own size/associativity/line axes,
// scored on the three objectives an embedded designer trades off —
//
//   misses    = L1I misses + L1D misses + L2 misses      (each incl. cold)
//   amat_ns   = L1 hit time + (L2 time * L2 accesses +
//               memory time * L2 misses) / L1 accesses
//   energy_nj = per-access dynamic energy of each level (CACTI-lite) +
//               a fixed off-chip penalty per L2 miss
//
// and reduced to the Pareto front over those objectives (explore/pareto).
//
// The explorer does NOT simulate every configuration. An L1 is set by its
// own stream alone, so every L1 geometry is simulated once per exploration,
// up front, over its stream kind's run-collapsed accesses (only the first
// access of a run of same-line accesses can miss a write-back/allocate L1).
// For LRU one pass of per-set LRU stacks per (kind, line, depth) decides
// every associativity of the axis at once (cache/lru_sweep, by LRU
// inclusion); other policies are simulated geometry by geometry. For a fixed
// (L1I, L1D) pair the L2 reference stream is then fixed — independent of
// the L2 geometry — and is merged from the two geometries' misses and
// write-backs; one stack pass per L2 (line, depth) over it yields *exact*
// LRU L2 miss counts for every associativity of the L2 axis. On top of
// that, two pruning layers skip provably dominated configurations before
// any evaluation:
//
//  * lower-bound dominance: the L1 miss counts of that up-front table (exact
//    for LRU L1s, the cold count for other policies) plus the distinct-line
//    floor for the L2 give a component-wise lower bound on every objective;
//    a configuration whose bound is strictly dominated by an
//    already-evaluated point cannot be on the front;
//  * Bender-style associativity thresholds: on write-free streams with LRU
//    L1s, equal per-level miss counts at two associativities mean the
//    miss *events* — and therefore the L2 stream — are identical, so the
//    higher-associativity pair is strictly dominated (higher access energy
//    and latency, same misses) and is skipped without simulation.
//
// Both layers preserve the front exactly: the differential oracle in
// tests/joint_oracle_test.cpp pins byte-identical fronts between the pruned
// explorer and the exhaustive reference, and the pruning decisions are made
// in a canonical serial order so fronts AND counters are identical for every
// jobs value. docs/JOINT_DSE.md states the bounds and when they are exact.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "trace/trace.hpp"

namespace ces::support {
class MetricsRegistry;
}  // namespace ces::support

namespace ces::explore {

// One cache level's swept axes. Depths and line sizes must be powers of two
// (enforced per-configuration by ValidateJointConfig).
struct LevelAxes {
  std::vector<std::uint32_t> depths;  // sets
  std::vector<std::uint32_t> assocs;  // ways
  std::vector<std::uint32_t> lines;   // words per line
};

// The joint space: per-level axes plus one replacement policy per level
// (a policy is a design commitment, not a swept axis). L1D is write-back/
// write-allocate and L1I/L2 use the defaults, matching cache/hierarchy.
struct JointSpace {
  LevelAxes l1i;
  LevelAxes l1d;
  LevelAxes l2;
  cache::ReplacementPolicy l1i_policy = cache::ReplacementPolicy::kLru;
  cache::ReplacementPolicy l1d_policy = cache::ReplacementPolicy::kLru;
  cache::ReplacementPolicy l2_policy = cache::ReplacementPolicy::kLru;

  // The paper-example sweep: 4 x 3 L1 geometries per side over one-word-free
  // line of 4, a 3 x 3 L2 — 1296 joint configurations.
  static JointSpace Default();
  // A small space for tests and smoke runs (288 configurations, including
  // some invalid ones so derived-parameter validation is exercised).
  static JointSpace Small();

  // Total axis combinations, valid or not.
  std::uint64_t TotalConfigs() const;

  // Deterministic canonical string ("l1i=d16,32;a1,2;w4|...|pol=lru,lru,lru")
  // used for result-cache keys and reports.
  std::string Canonical() const;
};

// Space preset by wire/CLI name ("default" | "small"). Throws
// support::Error (kValidation) for unknown names.
JointSpace JointSpaceByName(const std::string& name);

// Replacement policy by CLI name ("lru" | "fifo" | "random" | "plru").
// Throws support::Error (kValidation) for unknown names.
cache::ReplacementPolicy ReplacementPolicyByName(const std::string& name);

// Derived-parameter validation (SimpleScalar-style configuration rules):
//  * every level passes CacheConfig::IsValid() (power-of-two geometry,
//    PLRU needs a power-of-two associativity),
//  * the two L1 line sizes are equal (split L1s share one refill width),
//  * the L2 line is at least as large as the L1 line,
//  * the L2 capacity is at least the summed L1 capacities (inclusive
//    hierarchies smaller than their L1s are never sensible).
bool ValidateJointConfig(const cache::HierarchyConfig& config);

// Latency model derived from the geometry via the CACTI-lite access-time
// fit: the L1 hit time is the slower of the two L1s, the L2 adds a fixed
// interconnect overhead, memory is the paper-era constant 60 ns.
cache::LatencyModel DeriveLatency(const cache::HierarchyConfig& config);

// Canonical configuration key, e.g. "i4x64x2:d4x64x2:u8x512x4" for
// (line x depth x assoc) per level. Total order over configurations; front
// output is sorted by it.
std::string JointConfigKey(const cache::HierarchyConfig& config);

struct JointMetrics {
  std::uint64_t l1i_misses = 0;      // incl. cold
  std::uint64_t l1d_misses = 0;      // incl. cold
  std::uint64_t l1d_writebacks = 0;  // dirty L1D victims sent to L2
  std::uint64_t l2_accesses = 0;     // l1i_misses + l1d_misses + writebacks
  std::uint64_t l2_misses = 0;       // incl. cold; LRU-exact, else estimate
  std::uint64_t misses = 0;          // l1i + l1d + l2
  std::uint64_t size_words = 0;      // summed capacity (report axis only)
  double amat_ns = 0.0;
  double energy_nj = 0.0;
};

struct JointPoint {
  cache::HierarchyConfig config;
  JointMetrics metrics;
};

// a dominates b: <= on all of (misses, amat_ns, energy_nj), < on at least
// one. size_words is reported but not an objective.
bool JointDominates(const JointMetrics& a, const JointMetrics& b);

// The non-dominated subset, in canonical JointConfigKey order. Invariant to
// the input order (candidates are canonically sorted before filtering).
std::vector<JointPoint> JointParetoFront(std::vector<JointPoint> points);

struct JointOptions {
  bool prune = true;
  // Worker threads for pair evaluation; 0 = hardware concurrency. Fronts and
  // every counter in JointResult are identical for every jobs value.
  std::uint32_t jobs = 1;
  // Optional counters sink; records the explore.joint_* counters documented
  // in docs/OBSERVABILITY.md (deterministic for every jobs value).
  support::MetricsRegistry* metrics = nullptr;
};

struct JointResult {
  std::vector<JointPoint> front;  // canonical order
  std::uint64_t space_configs = 0;      // all axis combinations
  std::uint64_t valid_configs = 0;      // passing ValidateJointConfig
  std::uint64_t evaluated_configs = 0;  // scored against the front
  std::uint64_t pruned_configs = 0;     // valid - evaluated
  std::uint64_t total_pairs = 0;        // valid (L1I, L1D) pairs
  std::uint64_t evaluated_pairs = 0;    // pairs whose L2 stream was scored
  std::uint64_t pruned_pairs = 0;       // pairs skipped entirely
  std::uint64_t threshold_pruned_pairs = 0;  // via associativity thresholds
  std::uint64_t seed_pairs = 0;         // dimension-scan seeds
  std::uint64_t l1_sims = 0;  // L1 geometries of the valid pairs, each
                              // simulated once (<= L1I + L1D axes)
  // Compulsory L2 misses per L2 line size: the merged stream's distinct L2
  // lines, the L2 floor of the lower-bound rule. Taken from the first
  // evaluated pair's L2 stream; empty when no pair was evaluated.
  std::map<std::uint32_t, std::uint64_t> l2_floor;
  double seconds = 0.0;                 // wall clock (volatile)
};

// Explores the joint space over the merged program-order access stream.
// With options.prune == false every valid configuration is evaluated (the
// differential oracle's exhaustive reference).
JointResult ExploreJoint(const trace::AccessSequence& accesses,
                         const JointSpace& space, JointOptions options = {});

// Scores one configuration through the same path the explorer uses (L1s
// over the run-collapsed streams, by the LRU stack pass or cache::Cache;
// the L2 by the LRU stack pass over the merged L2 stream). Exposed for the
// simulator cross-validation tests.
// Throws support::Error (kValidation) when the configuration is invalid.
JointMetrics EvaluateJointConfig(const trace::AccessSequence& accesses,
                                 const cache::HierarchyConfig& config);

// Deterministic proportional interleave of a split instruction/data trace
// pair: instruction i precedes data access d iff i * Nd <= d * Ni, the
// fixed-rate merge a blocking in-order fetch/execute pipe produces. All
// accesses are reads (split traces carry no write flags); the true merged
// stream from sim::RunProgram(..., keep_combined=true) can be passed to
// ExploreJoint directly instead.
trace::AccessSequence InterleaveProportional(const trace::Trace& instr,
                                             const trace::Trace& data);

}  // namespace ces::explore
