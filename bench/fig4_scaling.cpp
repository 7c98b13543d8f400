// Reproduces Figure 4: execution time of the analytical algorithm plotted
// against N * N' (trace size times unique references). The paper claims the
// relationship is "on the average linear"; this harness prints the (x, y)
// series over all 24 workload traces plus synthetic scaling points and fits
//   (1) the paper's model      t = b * (N*N')
//   (2) a refined model        t = a * N + b * (N*N')
// reporting R^2 for both, so the linearity claim — and where it bends — is
// checkable from the output. Model (2) matters because several of our
// instruction traces have far smaller N' than the paper's MIPS binaries
// (tight hand-written kernels), which lets the O(N) prelude dominate.
//
// Flags: --engine=reference|fused (default reference: the paper's explicit
//        data structures; anything else exits 2)  --synthetic-points=6
//        --repeats=2  --jobs=N (default 1): prelude worker threads for the
//        fused engine (the reference engine's global structures are
//        sequential and ignore it). Profiles are identical for every N; only
//        the clock moves.
//        --json=PATH (machine-readable results, docs/OBSERVABILITY.md)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "bench_util.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"

namespace {

struct Point {
  std::string label;
  double n = 0;
  double x = 0;  // N * N'
  double w = 0;  // conflict-set volume: sum over levels of per-node distances
  double y = 0;  // seconds
};

Point Measure(const std::string& label, const ces::trace::Trace& trace,
              int repeats, ces::analytic::Engine engine, std::uint32_t jobs) {
  const auto stats = ces::trace::ComputeStats(trace);
  double best = 1e30;
  double volume = 0;
  for (int r = 0; r < repeats; ++r) {
    ces::Stopwatch watch;
    const ces::analytic::Explorer explorer(trace,
                                           {.engine = engine, .jobs = jobs});
    (void)explorer.Solve(0);
    best = std::min(best, watch.ElapsedSeconds());
    // Conflict-set volume: the work the postlude actually performs —
    // sum over levels of (distance * count), i.e. the |S n C| evaluations.
    volume = 0;
    for (const auto& profile : explorer.profiles()) {
      for (std::size_t d = 1; d < profile.hist.size(); ++d) {
        volume += static_cast<double>(d) *
                  static_cast<double>(profile.hist[d]);
      }
    }
  }
  Point point;
  point.label = label;
  point.n = static_cast<double>(stats.n);
  point.x = static_cast<double>(stats.n) * static_cast<double>(stats.n_unique);
  point.w = volume;
  point.y = best;
  return point;
}

double R2(const std::vector<Point>& points,
          const std::vector<double>& predicted) {
  double sy = 0;
  for (const Point& p : points) sy += p.y;
  const double mean = sy / static_cast<double>(points.size());
  double ss_res = 0;
  double ss_tot = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ss_res += (points[i].y - predicted[i]) * (points[i].y - predicted[i]);
    ss_tot += (points[i].y - mean) * (points[i].y - mean);
  }
  return ss_tot == 0 ? 1.0 : 1.0 - ss_res / ss_tot;
}

}  // namespace

int main(int argc, char** argv) {
  const ces::ArgParser args(argc, argv);
  const int repeats = static_cast<int>(args.GetInt("repeats", 2));
  const int synthetic = static_cast<int>(args.GetInt("synthetic-points", 6));
  const std::string engine_name = args.GetString("engine", "reference");
  const auto jobs = static_cast<std::uint32_t>(args.GetInt("jobs", 1));
  if (engine_name != "reference" && engine_name != "fused") {
    std::fprintf(stderr, "unknown --engine '%s' (expected reference|fused)\n",
                 engine_name.c_str());
    return 2;
  }
  const ces::analytic::Engine engine = engine_name == "fused"
                                           ? ces::analytic::Engine::kFused
                                           : ces::analytic::Engine::kReference;

  std::vector<Point> points;
  for (const auto& traces : ces::bench::CollectAllTraces()) {
    points.push_back(
        Measure(traces.name + ".data", traces.data, repeats, engine, jobs));
    points.push_back(
        Measure(traces.name + ".instr", traces.instruction, repeats, engine, jobs));
  }
  // Small-scale variants of the same workloads give within-family scaling
  // pairs (the regime where the paper's linearity claim is cleanest).
  if (args.GetBool("with-scales", true)) {
    for (const auto& traces : ces::bench::CollectAllTraces(
             true, ces::workloads::Scale::kSmall)) {
      points.push_back(Measure(traces.name + ".data-small", traces.data,
                               repeats, engine, jobs));
      points.push_back(Measure(traces.name + ".instr-small",
                               traces.instruction, repeats, engine, jobs));
    }
  }
  for (int i = 0; i < synthetic; ++i) {
    ces::Rng rng(4242 + static_cast<std::uint64_t>(i));
    const std::uint32_t working_set = 256u << (i / 2);
    const std::uint32_t length = 20000u << (i / 2);
    points.push_back(Measure(
        "synthetic-" + std::to_string(i),
        ces::trace::RandomWorkingSet(rng, working_set, length), repeats,
        engine, jobs));
  }

  ces::bench::BenchReporter reporter("fig4_scaling", args);
  for (const Point& point : points) {
    reporter.Add(point.label,
                 {{"engine", engine_name}, {"jobs", std::to_string(jobs)}},
                 repeats, {point.y},
                 {{"n", static_cast<std::uint64_t>(point.n)},
                  {"n_times_nu", static_cast<std::uint64_t>(point.x)},
                  {"conflict_volume", static_cast<std::uint64_t>(point.w)}});
  }
  reporter.Write();

  ces::AsciiTable table({"Trace", "N", "N*N'", "Time (s)"});
  char buf[40];
  for (const Point& point : points) {
    std::vector<std::string> row = {point.label};
    std::snprintf(buf, sizeof(buf), "%.0f", point.n);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.0f", point.x);
    row.emplace_back(buf);
    std::snprintf(buf, sizeof(buf), "%.6f", point.y);
    row.emplace_back(buf);
    table.AddRow(std::move(row));
  }
  std::printf("== Figure 4 series (engine: %s, jobs=%u) ==\n",
              engine_name.c_str(), jobs);
  std::fputs(table.ToString().c_str(), stdout);

  // Model (1): least squares through the origin on x = N*N'.
  {
    double sxy = 0;
    double sxx = 0;
    for (const Point& p : points) {
      sxy += p.x * p.y;
      sxx += p.x * p.x;
    }
    const double slope = sxy / sxx;
    std::vector<double> predicted;
    predicted.reserve(points.size());
    for (const Point& p : points) predicted.push_back(slope * p.x);
    std::printf("\nmodel 1 (paper): time = %.3e * N*N'            R^2 = %.3f\n",
                slope, R2(points, predicted));
    std::printf("paper's claim (linear in N*N' on average) %s for this engine\n",
                R2(points, predicted) > 0.8 ? "HOLDS" : "IS DISTORTED");
  }

  // Model (2): time = a*N + b*N*N', normal equations solved by Cramer.
  {
    double s11 = 0, s12 = 0, s22 = 0, s1y = 0, s2y = 0;
    for (const Point& p : points) {
      s11 += p.n * p.n;
      s12 += p.n * p.x;
      s22 += p.x * p.x;
      s1y += p.n * p.y;
      s2y += p.x * p.y;
    }
    const double det = s11 * s22 - s12 * s12;
    const double a = (s1y * s22 - s2y * s12) / det;
    const double b = (s11 * s2y - s12 * s1y) / det;
    std::vector<double> predicted;
    predicted.reserve(points.size());
    for (const Point& p : points) predicted.push_back(a * p.n + b * p.x);
    std::printf("model 2:         time = %.3e * N + %.3e * N*N'  R^2 = %.3f\n",
                a, b, R2(points, predicted));
    std::printf("(the O(N) prelude term explains traces whose N' is tiny)\n");
  }

  // Model (3): time = a*N + c*W where W is the conflict-set volume — the
  // number of |S n C| evaluations the postlude performs. N*N' is W's upper
  // bound; the paper's benchmark set kept W/(N*N') roughly constant, which
  // is what made Figure 4 look linear.
  {
    double s11 = 0, s12 = 0, s22 = 0, s1y = 0, s2y = 0;
    for (const Point& p : points) {
      s11 += p.n * p.n;
      s12 += p.n * p.w;
      s22 += p.w * p.w;
      s1y += p.n * p.y;
      s2y += p.w * p.y;
    }
    const double det = s11 * s22 - s12 * s12;
    const double a = (s1y * s22 - s2y * s12) / det;
    const double c = (s11 * s2y - s12 * s1y) / det;
    std::vector<double> predicted;
    predicted.reserve(points.size());
    for (const Point& p : points) predicted.push_back(a * p.n + c * p.w);
    std::printf("model 3:         time = %.3e * N + %.3e * W     R^2 = %.3f\n",
                a, c, R2(points, predicted));
    std::printf("(W = conflict-set volume, the true work term bounded by N*N')\n");
  }
  return 0;
}
