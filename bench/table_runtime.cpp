// Reproduces Tables 31 and 32: wall-clock time of the analytical algorithm
// (prelude + one postlude solve) for every benchmark's data and instruction
// trace. Absolute values differ from the paper's 1 GHz Pentium III; the
// comparison of interest is the per-benchmark ordering and the contrast with
// the simulation-based strategies, which are timed alongside.
//
// Flags: --repeats=3  --with-baselines=true|false (default true)
//        --engine=fused|reference (default fused)
//        --jobs=N (default 1): worker threads for every timed phase; with
//        N > 1 two extra parallel-scaling sections appear — ExhaustiveSweep
//        at jobs=1 vs jobs=N, and the subtree-parallel fused prelude at
//        jobs=1 vs jobs=N. Results are identical for every N — only the
//        wall clock moves.
//        --json=PATH (machine-readable results, docs/OBSERVABILITY.md)
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "bench_util.hpp"
#include "cache/sweep.hpp"
#include "explore/strategy.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/strip.hpp"

namespace {

std::vector<double> TimeAnalytical(const ces::trace::Trace& trace, int repeats,
                                   ces::analytic::Engine engine,
                                   std::uint32_t jobs) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    ces::Stopwatch watch;
    const ces::analytic::Explorer explorer(trace,
                                           {.engine = engine, .jobs = jobs});
    const auto result = explorer.SolveFraction(0.05);
    (void)result;
    samples.push_back(watch.ElapsedSeconds());
  }
  return samples;
}

// Best-of-repeats wall time of the bounded exhaustive (depth x assoc) sweep.
// stop_at_zero is off so every depth simulates the same number of configs —
// a near-uniform per-depth load that isolates the pool's scaling from the
// workload's shape.
double TimeSweep(const ces::trace::Trace& trace, int repeats,
                 std::uint32_t max_bits, std::uint32_t max_assoc,
                 std::uint32_t jobs) {
  double best = 1e30;
  for (int r = 0; r < repeats; ++r) {
    ces::Stopwatch watch;
    const auto points = ces::cache::ExhaustiveSweep(
        trace, max_bits, max_assoc, ces::cache::ReplacementPolicy::kLru,
        /*stop_at_zero=*/false, jobs);
    (void)points;
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

void EmitScalingTable(const std::vector<ces::bench::BenchmarkTraces>& all,
                      int repeats, std::uint32_t jobs) {
  const std::uint32_t max_bits = 8;
  const std::uint32_t max_assoc = 4;
  ces::AsciiTable table({"Benchmark", "Sweep jobs=1", "Sweep jobs=N",
                         "Speedup"});
  for (const auto& traces : all) {
    const double serial = TimeSweep(traces.data, repeats, max_bits, max_assoc, 1);
    const double parallel =
        TimeSweep(traces.data, repeats, max_bits, max_assoc, jobs);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", serial / parallel);
    table.AddRow({traces.name, ces::FormatSeconds(serial),
                  ces::FormatSeconds(parallel), buf});
    std::fflush(stdout);
  }
  std::printf("\n== Parallel scaling: exhaustive sweep (data traces, "
              "depth<=2^%u x assoc<=%u), jobs=%u ==\n",
              max_bits, max_assoc, jobs);
  std::fputs(table.ToString().c_str(), stdout);
}

// Prelude scaling of the fused engine itself: jobs=1 vs jobs=N of the
// same subtree-parallel traversal (results identical, only the wall clock
// moves). This is the axis the PR's perf claim lives on, so it is also
// reported to --json for CI tracking.
void EmitFusedScalingTable(const std::vector<ces::bench::BenchmarkTraces>& all,
                           int repeats, std::uint32_t jobs,
                           ces::bench::BenchReporter& reporter) {
  ces::AsciiTable table(
      {"Benchmark", "Prelude jobs=1", "Prelude jobs=N", "Speedup"});
  const auto fused = ces::analytic::Engine::kFused;
  for (const auto& traces : all) {
    const std::vector<double> serial =
        TimeAnalytical(traces.data, repeats, fused, 1);
    const std::vector<double> parallel =
        TimeAnalytical(traces.data, repeats, fused, jobs);
    const double s = *std::min_element(serial.begin(), serial.end());
    const double p = *std::min_element(parallel.begin(), parallel.end());
    reporter.Add("prelude_scaling." + traces.name + ".fused",
                 {{"engine", "fused"}, {"jobs", std::to_string(jobs)}},
                 repeats, parallel);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", s / p);
    table.AddRow({traces.name, ces::FormatSeconds(s), ces::FormatSeconds(p),
                  buf});
    std::fflush(stdout);
  }
  std::printf("\n== Parallel scaling: subtree-parallel fused prelude "
              "(data traces), jobs=%u ==\n",
              jobs);
  std::fputs(table.ToString().c_str(), stdout);
}

void EmitTable(const std::vector<ces::bench::BenchmarkTraces>& all,
               bool data_kind, int repeats, bool with_baselines,
               ces::analytic::Engine engine, std::uint32_t jobs,
               ces::bench::BenchReporter& reporter,
               const std::map<std::string, std::string>& params) {
  std::vector<std::string> headers = {"Benchmark", "N*N'", "Analytical"};
  if (with_baselines) {
    headers.push_back("One-pass stack");
    headers.push_back("Iterative sim (Fig 1a)");
  }
  ces::AsciiTable table(headers);

  for (const auto& traces : all) {
    const ces::trace::Trace& trace = data_kind ? traces.data
                                               : traces.instruction;
    const auto stats = ces::trace::ComputeStats(trace);
    const std::vector<double> samples =
        TimeAnalytical(trace, repeats, engine, jobs);
    const double analytical =
        *std::min_element(samples.begin(), samples.end());
    reporter.Add(traces.name + (data_kind ? ".data" : ".instr"), params,
                 repeats, samples,
                 {{"n", stats.n}, {"n_unique", stats.n_unique}});
    std::vector<std::string> row = {
        traces.name, ces::FormatWithThousands(stats.n * stats.n_unique),
        ces::FormatSeconds(analytical)};
    if (with_baselines) {
      const auto k = static_cast<std::uint64_t>(0.05 * stats.max_misses);
      ces::Stopwatch watch;
      ces::explore::OnePassStackStrategy().Explore(trace, k, 16, jobs);
      row.push_back(ces::FormatSeconds(watch.ElapsedSeconds()));
      // The traditional loop of Figure 1a: tune A per depth, one full
      // simulation per probe. (The exhaustive flavour is unbounded on
      // streaming traces whose A_zero approaches N'; the google-benchmark
      // ablation covers it on a bounded trace, and the scaling section
      // below bounds it by max_assoc.)
      watch.Restart();
      ces::explore::IterativeSimulationStrategy().Explore(trace, k, 16, jobs);
      row.push_back(ces::FormatSeconds(watch.ElapsedSeconds()));
    }
    table.AddRow(std::move(row));
    std::fflush(stdout);
  }
  std::fputs(table.ToString().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const ces::ArgParser args(argc, argv);
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));
  const bool with_baselines = args.GetBool("with-baselines", true);
  const ces::analytic::Engine engine =
      args.GetString("engine", "fused") == "reference"
          ? ces::analytic::Engine::kReference
          : ces::analytic::Engine::kFused;
  const auto jobs = static_cast<std::uint32_t>(args.GetInt("jobs", 1));
  ces::bench::BenchReporter reporter("table_runtime", args);
  const std::map<std::string, std::string> params = {
      {"engine", args.GetString("engine", "fused")},
      {"jobs", std::to_string(jobs)}};

  const auto all = ces::bench::CollectAllTraces();
  std::printf("== Table 31: algorithm run time, data traces (jobs=%u) ==\n",
              jobs);
  EmitTable(all, /*data_kind=*/true, repeats, with_baselines, engine, jobs,
            reporter, params);
  std::printf(
      "\n== Table 32: algorithm run time, instruction traces (jobs=%u) ==\n",
      jobs);
  EmitTable(all, /*data_kind=*/false, repeats, with_baselines, engine, jobs,
            reporter, params);
  if (jobs > 1) {
    EmitScalingTable(all, repeats, jobs);
    EmitFusedScalingTable(all, repeats, jobs, reporter);
  }
  reporter.Write();
  return 0;
}
