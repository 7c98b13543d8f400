// cesbench — the cachedse benchmark.
//
//   cesbench --workload big_synth|paper_suite|daemon_mix --seed N
//            --seconds S --trace 0|1 --server PATH [--smoke]
//
// --trace 0 measures the end-to-end metrics of one workload. --trace 1 is
// the traced run: the named workload runs for the full window with spans
// around every call into a layer, and the other two run a short traced
// slice so every per-layer metric is measured; each metric comes from the
// named workload where it exercises that layer. Every op is checked against
// the oracle. The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Inputs live under .bench_run/ (relative to the working directory) while
// a run lasts. Results are also written as a ces-bench-v1 report (and,
// traced, the span log) under .bench_run/results, so tools/bench_diff can
// compare two runs.
// Exit code: 0 when every answer matched, 1 on a mismatch or failed check,
// 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "support/build_info.hpp"
#include "support/json.hpp"
#include "support/simd.hpp"

namespace {

using cesbench::Options;
using cesbench::Outcome;

struct Metric {
  const char* name;
  const char* unit;
};

// The metric sets of BENCHMARK.json, in its order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"ops_per_s", "1/s"},
    {"refs_per_s", "1/s"},     {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"trace.load_ms", "ms"},
    {"trace.load_mb_per_s", "MB/s"},
    {"trace.strip_ms", "ms"},
    {"analytic.prelude_ms", "ms"},
    {"analytic.prelude_serial_ms", "ms"},
    {"analytic.prelude_speedup", "x"},
    {"analytic.fused_refs", "count"},
    {"analytic.fused_nodes", "count"},
    {"analytic.solve_us", "us"},
    {"cache.per_depth_ms", "ms"},
    {"analytic.prelude_vs_per_depth", "x"},
    {"explore.joint_ms", "ms"},
    {"explore.joint_evaluated_ratio", "ratio"},
    {"explore.report_us", "us"},
    {"service.upload_ms", "ms"},
    {"service.upload_mb_per_s", "MB/s"},
    {"service.explore_cold_ms", "ms"},
    {"service.explore_solve_ms", "ms"},
    {"service.explore_hit_us", "us"},
    {"service.joint_ms", "ms"},
    {"service.result_hit_ratio", "ratio"},
    {"tracing.overhead_pct", "%"},
    {"tracing.span_coverage_p01", "ratio"},
};

const char* const kWorkloads[] = {"big_synth", "paper_suite", "daemon_mix"};

// In a traced run, the layer spans of an op must cover at least this share
// of its wall time, for all but the 1% of ops that scheduling noise hits.
constexpr double kMinSpanCoverage = 0.95;

int Usage(const char* message) {
  std::fprintf(stderr,
               "cesbench: %s\nusage: cesbench --workload "
               "big_synth|paper_suite|daemon_mix --seed N --seconds S "
               "--trace 0|1 --server PATH [--smoke]\n",
               message);
  return 2;
}

Outcome RunWorkload(const Options& options) {
  std::filesystem::remove_all(options.run_dir);
  std::filesystem::create_directories(options.run_dir);
  Outcome out = options.workload == "big_synth"     ? RunBigSynth(options)
                : options.workload == "paper_suite" ? RunPaperSuite(options)
                                                    : RunDaemonMix(options);
  std::filesystem::remove_all(options.run_dir);
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric value is not finite");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::map<std::string, double> EndToEnd(const Outcome& out) {
  std::map<std::string, double> metrics;
  metrics["setup_s"] = cesbench::Median(out.setup_s);
  metrics["latency_p50_ms"] = cesbench::Percentile(out.latency_ms, 0.5);
  metrics["latency_p90_ms"] = cesbench::Percentile(out.latency_ms, 0.9);
  metrics["ops_per_s"] = static_cast<double>(out.attempted) / out.elapsed_s;
  metrics["refs_per_s"] = out.refs / out.elapsed_s;
  metrics["ok_ratio"] = static_cast<double>(out.attempted - out.failed) /
                        static_cast<double>(out.attempted);
  metrics["peak_rss_mb"] = out.peak_rss_mb;
  return metrics;
}

std::string MetricsJson(const Metric* begin, const Metric* end,
                        const std::map<std::string, double>& values) {
  std::string json = "{";
  for (const Metric* metric = begin; metric != end; ++metric) {
    const auto it = values.find(metric->name);
    if (it == values.end()) {
      throw std::runtime_error(std::string("metric not measured: ") +
                               metric->name);
    }
    if (json.size() > 1) json += ",";
    json += ces::support::JsonQuote(metric->name) + ":{\"value\":" +
            Number(it->second) + ",\"unit\":" +
            ces::support::JsonQuote(metric->unit) + "}";
  }
  return json + "}";
}

std::string CountersJson(const std::map<std::string, double>& values) {
  std::string json = "{";
  for (const auto& [name, value] : values) {
    if (json.size() > 1) json += ",";
    json += ces::support::JsonQuote(name) + ":" + Number(value);
  }
  return json + "}";
}

// ces-bench-v1: one result per workload run, its metrics as counters.
std::string BenchReport(const Options& options,
                        const std::vector<Outcome>& outcomes,
                        const std::vector<std::map<std::string, double>>&
                            counters) {
  std::ostringstream os;
  os << "{\"schema\":\"ces-bench-v1\",\"bench\":\"perfbench\",\"meta\":{"
     << "\"git_sha\":" << ces::support::JsonQuote(ces::support::GitSha())
     << ",\"hostname\":" << ces::support::JsonQuote(ces::support::Hostname())
     << ",\"jobs\":" << options.jobs
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"seconds\":" << Number(options.seconds)
     << ",\"seed\":" << options.seed << ",\"simd\":"
     << ces::support::JsonQuote(ces::support::simd::LevelName(
            ces::support::simd::ActiveLevel()))
     << ",\"smoke\":" << (options.smoke ? "true" : "false")
     << ",\"trace\":" << (options.trace ? 1 : 0) << ",\"workload\":"
     << ces::support::JsonQuote(options.workload) << "},\"results\":[";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    std::vector<double> sorted = out.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    if (i > 0) os << ",";
    os << "{\"name\":"
       << ces::support::JsonQuote(out.workload +
                                  (options.trace ? "/traced" : ""))
       << ",\"params\":{\"seed\":\"" << options.seed << "\"},\"reps\":"
       << out.latency_ms.size();
    if (!sorted.empty()) {
      os << ",\"wall_seconds\":{\"min\":" << Number(sorted.front() * 1e-3)
         << ",\"median\":" << Number(cesbench::Median(sorted) * 1e-3) << "}";
    }
    os << ",\"counters\":" << CountersJson(counters[i]) << "}";
  }
  os << "]}\n";
  return os.str();
}

std::string SpansJson(const std::vector<Outcome>& outcomes) {
  std::int64_t origin = INT64_MAX;
  for (const Outcome& out : outcomes) {
    for (const cesbench::Span& span : out.spans) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::string json = "{\"spans\":[";
  bool first = true;
  for (const Outcome& out : outcomes) {
    for (const cesbench::Span& span : out.spans) {
      if (!first) json += ",\n";
      first = false;
      json += "{\"workload\":" + ces::support::JsonQuote(out.workload) +
              ",\"name\":" + ces::support::JsonQuote(span.name) +
              ",\"start_us\":" +
              Number(static_cast<double>(span.start_ns - origin) * 1e-3) +
              ",\"end_us\":" +
              Number(static_cast<double>(span.end_ns - origin) * 1e-3) +
              ",\"parent\":" + std::to_string(span.parent) +
              ",\"op\":" + std::to_string(span.op) + "}";
    }
  }
  return json + "]}\n";
}

int Main(int argc, char** argv) {
  Options options;
  const std::string out_dir = ".bench_run";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke") {
      if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
      value = argv[++i];
    }
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--server") {
      options.server_path = value;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) known = known || options.workload == name;
  if (!known) return Usage("unknown --workload");
  if (!(options.seconds > 0) || !have_trace) {
    return Usage("--seconds must be positive and --trace given");
  }
  if (options.server_path.empty()) return Usage("--server is required");
  options.jobs = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  if (options.smoke) options.setup_reps = 1;
  if (options.trace) options.setup_reps = 1;

  const std::string tag = options.workload + "-s" +
                          std::to_string(options.seed) + "-t" +
                          (options.trace ? "1" : "0");
  std::vector<Outcome> outcomes;
  Options run = options;
  run.run_dir = out_dir + "/work-" + tag;
  outcomes.push_back(RunWorkload(run));
  if (options.trace) {
    for (const char* other : kWorkloads) {
      if (options.workload == other) continue;
      Options slice = run;
      slice.workload = other;
      slice.seconds = std::min(options.seconds, 2.0);
      outcomes.push_back(RunWorkload(slice));
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> printed;
  std::vector<std::map<std::string, double>> counters;
  bool spans_ok = true;
  for (const Outcome& out : outcomes) {
    attempted += out.attempted;
    failed += out.failed;
    std::map<std::string, double> values =
        options.trace ? out.layers : EndToEnd(out);
    if (options.trace) {
      const double coverage = cesbench::Percentile(
          cesbench::OpCoverage(out.spans, "op"), 0.01);
      values["tracing.span_coverage_p01"] = coverage;
      if (coverage < kMinSpanCoverage) {
        std::fprintf(stderr,
                     "cesbench: %s: layer spans cover only %.3f of the "
                     "wall time of 1%% of ops\n",
                     out.workload.c_str(), coverage);
        spans_ok = false;
      }
      // Every layer metric has one owning workload; the tracing metrics
      // describe the named workload, which runs first.
      for (const auto& [name, value] : values) {
        if (&out == &outcomes.front() || name.rfind("tracing.", 0) != 0) {
          printed.emplace(name, value);
        }
      }
      values.insert(out.notes.begin(), out.notes.end());
    } else {
      printed = values;
      values["latency_samples"] = static_cast<double>(out.latency_ms.size());
      values.insert(out.notes.begin(), out.notes.end());
    }
    values["attempted"] = static_cast<double>(out.attempted);
    values["failed"] = static_cast<double>(out.failed);
    counters.push_back(std::move(values));
  }
  const std::string metrics =
      options.trace ? MetricsJson(std::begin(kPerLayer), std::end(kPerLayer),
                                  printed)
                    : MetricsJson(std::begin(kEndToEnd), std::end(kEndToEnd),
                                  printed);

  const std::string results_dir = out_dir + "/results";
  std::filesystem::create_directories(results_dir);
  cesbench::WriteTextFile(results_dir + "/" + tag + ".json",
                          BenchReport(options, outcomes, counters));
  if (options.trace) {
    cesbench::WriteTextFile(results_dir + "/" + tag + ".spans.json",
                            SpansJson(outcomes));
  }
  if (!options.trace && outcomes.front().latency_ms.size() < 100) {
    std::fprintf(stderr,
                 "cesbench: latency_p90_ms rests on %zu ops (fewer than 100)\n",
                 outcomes.front().latency_ms.size());
  }

  const bool correct = failed == 0 && spans_ok;
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cesbench: %s\n", e.what());
    return 1;
  }
}
