// The trace set of the fused-prelude differential sweeps
// (ParallelDeterminismTest.FusedSubtreeParallelDifferentialSweep and
// SimdDispatchTest.ForcedPathDifferentialSweep): the paper example, 100
// small random traces, and a handful of larger seeded traces shaped for the
// per-node scan choice (docs/ALGORITHM.md):
//  * N' straddling the MTF/Bennett-Kruskal crossover, from tens of lines to
//    about 20k, so the top of the tree takes one scan and the bottom the
//    other;
//  * N' close to N, where a node's window spans its whole segment;
//  * a long trace over a small working set, whose root window fills and is
//    renumbered about 190 times.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/rng.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace ces_test {

struct SweepTrace {
  std::string name;
  ces::trace::Trace trace;
  std::uint32_t max_bits;
  // Built to run both scans: the sweeps assert that the scan-mix counters
  // both moved.
  bool scan_mix;
};

inline std::vector<SweepTrace> FusedSweepTraces() {
  std::vector<SweepTrace> traces;
  traces.push_back({"paper", ces::trace::PaperExampleTrace(), 6, false});
  ces::Rng rng(20260806);
  for (int i = 0; i < 100; ++i) {
    const auto length = static_cast<std::uint32_t>(rng.NextInRange(20, 1500));
    if (i % 2 == 1) {
      const auto working = static_cast<std::uint32_t>(rng.NextInRange(2, 500));
      traces.push_back({"random-" + std::to_string(i),
                        ces::trace::RandomWorkingSet(rng, working, length), 6,
                        false});
    } else {
      const auto hot = static_cast<std::uint32_t>(rng.NextInRange(1, 64));
      const auto cold = static_cast<std::uint32_t>(rng.NextInRange(1, 512));
      traces.push_back({"locality-" + std::to_string(i),
                        ces::trace::LocalityMix(rng, hot, cold, length), 6,
                        false});
    }
  }

  ces::Rng mix(20261017);
  for (const std::uint32_t working : {40u, 150u, 600u, 2500u, 20000u}) {
    const std::uint32_t length = std::min(60000u, 8 * working);
    traces.push_back({"crossover-random-" + std::to_string(working),
                      ces::trace::RandomWorkingSet(mix, working, length), 10,
                      working >= 150});
    traces.push_back({"crossover-locality-" + std::to_string(working),
                      ces::trace::LocalityMix(mix, working / 8 + 1, working,
                                              length),
                      10, working >= 600});
  }
  {
    // Every line once in a shuffled order, then a sparse second touch of a
    // random subset: N' is 16k of N = 18k.
    ces::trace::Trace trace;
    trace.name = "unique-heavy";
    for (std::uint32_t line = 0; line < 16384; ++line) {
      trace.refs.push_back(line * 3);
    }
    for (std::size_t i = trace.refs.size(); i > 1; --i) {
      std::swap(trace.refs[i - 1], trace.refs[mix.NextBounded(i)]);
    }
    for (int i = 0; i < 2048; ++i) {
      trace.refs.push_back(3 * static_cast<std::uint32_t>(
                                   mix.NextBounded(16384)));
    }
    traces.push_back({"unique-heavy", std::move(trace), 10, true});
  }
  traces.push_back({"renumbering",
                    ces::trace::RandomWorkingSet(mix, 200, 60000), 8, true});
  return traces;
}

}  // namespace ces_test
