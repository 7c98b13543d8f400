// cachedse — unified command-line front end to the library.
//
//   cachedse explore  --trace=app.ctr [--k=N | --fraction=0.05]
//                     [--engine=fused|reference] [--line-words=1] [--jobs=N]
//                     (the fused traversal runs in parallel when --jobs > 1)
//   cachedse explore-joint --trace=WORKLOAD | --trace-instr=F --trace-data=F
//                     [--space=default|small] [--l1i-depths=16,32 ...]
//                     [--l1i-policy=lru|fifo|random|plru ...] [--prune=true]
//                     [--jobs=N]
//                     [--format=table|json|csv] [--json=FILE]
//                     (joint L1I x L1D x L2 Pareto front over misses, AMAT
//                      and energy; --json writes a ces-bench-v1 report with
//                      the pruning counters; see docs/JOINT_DSE.md)
//   cachedse stats    --trace=app.ctr
//   cachedse compare  --trace=a.ctr[,b.ctr...] [--fraction=0.05[,0.10...]]
//                     [--max-bits=12] [--jobs=N] [--timing=true]
//                     (multiple traces/fractions are explored concurrently;
//                      results are deterministic for every --jobs value, and
//                      with --timing=false the output is byte-identical)
//   cachedse workload --benchmark=crc --out=dir   (generate + save traces)
//   cachedse convert  --trace=in.{ctr,trc,din} --out=out.{ctr,trc,din}
//                     [--kind=data|instr]         (din needs --kind on read)
//
// explore/stats/compare/convert accept --metrics=json: a final stdout line
// with the run's counters (refs parsed, lines skipped, configs swept, ...)
// and histograms (stack distances, per-set load, sweep shard sizes) as
// stable JSON — byte-identical for every --jobs value. Add
// --metrics-timings to include wall-clock spans and environment gauges
// (non-deterministic by nature).
//
// Every subcommand also accepts:
//   --trace-out=FILE  write a Chrome trace-event JSON profile of the run
//                     (open in chrome://tracing or https://ui.perfetto.dev;
//                      one track per thread-pool worker, nested spans for
//                      the read / prelude / sweep / solve phases)
//   --progress        rate-limited progress lines on stderr (\r-rewritten
//                     on a TTY) — see docs/OBSERVABILITY.md
//
// Exit codes: 0 success, 1 unstructured runtime failure, 2 usage error, and
// one distinct code per support::ErrorCategory for structured failures —
// 3 io, 4 format, 5 parse, 6 range, 7 truncated, 8 unsupported,
// 9 validation, 10 internal (see docs/ERRORS.md).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "explore/strategy.hpp"
#include "sim/cpu.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/progress.hpp"
#include "support/signals.hpp"
#include "support/simd.hpp"
#include "support/table.hpp"
#include "support/trace_event.hpp"
#include "trace/dinero.hpp"
#include "trace/strip.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_view.hpp"
#include "workloads/workloads.hpp"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: cachedse <explore|explore-joint|stats|compare|workload|convert>"
      " [flags]\n"
      "  explore  --trace=F [--k=N|--fraction=0.05] [--engine=fused|"
      "reference] [--line-words=1] [--jobs=N] [--trace-io=auto|mmap|memory]\n"
      "  explore-joint --trace=WORKLOAD | --trace-instr=F --trace-data=F\n"
      "           [--space=default|small] [--l1i-depths=A,B ...flags...]\n"
      "           [--prune=true] [--jobs=N]\n"
      "           [--format=table|json|csv] [--json=FILE]\n"
      "  stats    --trace=F [--trace-io=auto|mmap|memory]\n"
      "  compare  --trace=F[,F2...] [--fraction=0.05[,0.10...]] "
      "[--max-bits=12] [--jobs=N] [--timing=true]\n"
      "  workload --benchmark=NAME [--out=DIR]\n"
      "  convert  --trace=IN --out=OUT [--kind=data|instr]\n"
      "explore/stats/compare/convert also accept --metrics=json "
      "[--metrics-timings]\n"
      "every command accepts --trace-out=FILE (Chrome trace-event JSON "
      "profile),\n"
      "  --progress (rate-limited progress lines on stderr), and\n"
      "  --simd=scalar|avx2 (force the prelude kernel level; beats the\n"
      "  CES_SIMD env var, results are byte-identical — docs/SIMD.md)\n"
      "exit codes: 0 ok, 1 runtime, 2 usage, 3 io, 4 format, 5 parse,\n"
      "  6 range, 7 truncated, 8 unsupported, 9 validation, 10 internal\n");
  return 2;
}

// --metrics=json support: owns the registry, knows whether it is enabled and
// whether the volatile (timings/gauges) section was requested. Commands pass
// get() down the pipeline and call Emit() as their last output line.
struct MetricsEmitter {
  explicit MetricsEmitter(const ces::ArgParser& args) {
    const std::string format = args.GetString("metrics", "");
    if (format.empty()) return;
    if (format != "json") {
      throw ces::support::Error(
          ces::support::ErrorCategory::kUsage, "cachedse",
          "unknown --metrics format '" + format + "' (expected json)");
    }
    enabled = true;
    timings = args.GetBool("metrics-timings", false);
  }

  ces::support::MetricsRegistry* get() { return enabled ? &registry : nullptr; }

  // At most one metrics line is ever printed, even when the normal exit path
  // and the signal watcher race — whoever flips the flag wins, and the JSON
  // is complete because the registry serialises under its own lock.
  void Emit() {
    if (!enabled || emitted.exchange(true)) return;
    std::printf("%s\n", registry.ToJson(timings).c_str());
    std::fflush(stdout);
  }

  ces::support::MetricsRegistry registry;
  bool enabled = false;
  bool timings = false;
  std::atomic<bool> emitted{false};
};

// --trace-out=FILE support: installs a process-global TraceSink for the
// duration of the run and serialises it to Chrome trace-event JSON at the
// end. The destructor uninstalls the global even when the command throws, so
// instrumented library code never sees a dangling sink; the file itself is
// only written by Finish() — and it is written for failing runs too, since a
// profile of a failed run is exactly what one wants to look at.
struct TraceEmitter {
  explicit TraceEmitter(const ces::ArgParser& args)
      : path(args.GetString("trace-out", "")) {
    if (path.empty()) return;
    sink = std::make_unique<ces::support::TraceSink>();
    sink->NameThisThread("main");
    ces::support::TraceSink::SetGlobal(sink.get());
  }

  ~TraceEmitter() {
    if (sink != nullptr) ces::support::TraceSink::SetGlobal(nullptr);
  }

  // Idempotent and callable from the signal watcher thread: the first caller
  // uninstalls the global sink and writes the file; later callers (a second
  // signal, or the normal exit after an interrupt) are no-ops. The sink
  // object itself stays alive so a worker mid-span never touches freed state.
  void Finish() {
    if (sink == nullptr || finished.exchange(true)) return;
    ces::support::TraceSink::SetGlobal(nullptr);
    sink->WriteJsonFile(path);
  }

  std::string path;
  std::unique_ptr<ces::support::TraceSink> sink;
  std::atomic<bool> finished{false};
};

// --progress support: installs a process-global stderr reporter so long
// phases (stack scans, sweeps) tick visibly without any output when the flag
// is absent.
struct ProgressGuard {
  explicit ProgressGuard(const ces::ArgParser& args) {
    if (!args.GetBool("progress", false)) return;
    reporter = std::make_unique<ces::support::ProgressReporter>(stderr);
    ces::support::ProgressReporter::SetGlobal(reporter.get());
  }

  ~ProgressGuard() {
    if (reporter != nullptr) {
      ces::support::ProgressReporter::SetGlobal(nullptr);
    }
  }

  std::unique_ptr<ces::support::ProgressReporter> reporter;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ces::trace::Trace LoadAnyFormat(const std::string& path,
                                const std::string& kind_flag,
                                ces::support::MetricsRegistry* metrics =
                                    nullptr) {
  if (EndsWith(path, ".din")) {
    std::ifstream is(path);
    if (!is) {
      throw ces::support::Error(ces::support::ErrorCategory::kIo, "dinero",
                                "cannot open " + path);
    }
    return ces::trace::ReadDinero(is,
                                  kind_flag == "instr"
                                      ? ces::trace::StreamKind::kInstruction
                                      : ces::trace::StreamKind::kData,
                                  metrics);
  }
  // A name that is not a file on disk but matches a built-in workload runs
  // the workload and takes its trace (--kind selects data vs instruction),
  // so `--trace=crc` works without a generate-traces detour.
  if (!std::ifstream(path)) {
    if (const auto* workload = ces::workloads::FindWorkload(path)) {
      auto run = ces::workloads::Run(*workload);
      if (!run.output_matches) {
        throw ces::support::Error(ces::support::ErrorCategory::kInternal,
                                  "workload",
                                  "verification failed: " + path);
      }
      ces::trace::Trace trace = kind_flag == "instr"
                                    ? std::move(run.instruction_trace)
                                    : std::move(run.data_trace);
      ces::support::MetricsRegistry::Add(metrics, "trace.refs_generated",
                                         trace.size());
      return trace;
    }
  }
  return ces::trace::LoadFromFile(path, metrics);
}

void SaveAnyFormat(const std::string& path, const ces::trace::Trace& trace) {
  if (EndsWith(path, ".din")) {
    std::ofstream os(path);
    if (!os) {
      throw ces::support::Error(ces::support::ErrorCategory::kIo, "dinero",
                                "cannot open " + path);
    }
    ces::trace::WriteDinero(os, trace);
    return;
  }
  ces::trace::SaveToFile(path, trace);
}

// --trace-io flag: auto (default) mmaps raw CTRC files and materialises
// everything else; mmap insists on the out-of-core path where possible;
// memory forces the pre-existing materialised behaviour. Results are
// byte-identical in every mode — only the resident set differs.
ces::trace::TraceIoMode TraceIoFlag(const ces::ArgParser& args) {
  const std::string mode = args.GetString("trace-io", "auto");
  if (mode == "auto") return ces::trace::TraceIoMode::kAuto;
  if (mode == "mmap") return ces::trace::TraceIoMode::kMmap;
  if (mode == "memory") return ces::trace::TraceIoMode::kMemory;
  throw ces::support::Error(
      ces::support::ErrorCategory::kUsage, "cachedse",
      "unknown --trace-io '" + mode + "' (expected auto|mmap|memory)");
}

// --jobs flag: absent or 0 -> hardware concurrency; 1 -> the serial code
// path; N -> N workers. Results are identical in every case.
std::uint32_t JobsFlag(const ces::ArgParser& args) {
  const auto jobs = static_cast<std::uint32_t>(args.GetInt("jobs", 0));
  return jobs == 0 ? ces::support::HardwareConcurrency() : jobs;
}

std::vector<std::string> SplitList(const std::string& list) {
  std::vector<std::string> items;
  std::string::size_type start = 0;
  while (start <= list.size()) {
    const auto comma = list.find(',', start);
    const auto end = comma == std::string::npos ? list.size() : comma;
    if (end > start) items.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

int CmdExplore(const ces::ArgParser& args, MetricsEmitter& metrics) {
  const std::string path = args.GetString("trace", "");
  if (path.empty()) return Usage();
  // Raw CTRC files can stream straight off an mmap view — the explorer
  // prelude then never materialises the reference vector. Everything else
  // (text, CTRZ, .din, workload names) loads through the in-memory path.
  const ces::trace::TraceIoMode io_mode = TraceIoFlag(args);
  std::unique_ptr<ces::trace::MmapTraceView> view;
  if (io_mode != ces::trace::TraceIoMode::kMemory) {
    view = ces::trace::TryOpenMmap(path, metrics.get());
  }
  ces::trace::Trace trace;
  if (view == nullptr) {
    trace = LoadAnyFormat(path, args.GetString("kind", "data"), metrics.get());
  }

  ces::analytic::ExplorerOptions options;
  const std::string engine = args.GetString("engine", "fused");
  if (engine != "fused" && engine != "reference") {
    throw ces::support::Error(ces::support::ErrorCategory::kUsage, "cachedse",
                              "unknown --engine '" + engine +
                                  "' (expected fused|reference)");
  }
  options.engine = engine == "reference" ? ces::analytic::Engine::kReference
                                         : ces::analytic::Engine::kFused;
  options.line_words =
      static_cast<std::uint32_t>(args.GetInt("line-words", 1));
  options.jobs = JobsFlag(args);
  options.metrics = metrics.get();
  ces::support::MetricsRegistry::SetGauge(metrics.get(), "pool.jobs",
                                          options.jobs);
  const ces::analytic::Explorer explorer =
      view != nullptr ? ces::analytic::Explorer(*view, options)
                      : ces::analytic::Explorer(trace, options);

  const std::uint64_t k =
      args.Has("k") ? static_cast<std::uint64_t>(args.GetInt("k", 0))
                    : static_cast<std::uint64_t>(
                          args.GetDouble("fraction", 0.05) *
                          static_cast<double>(explorer.stats().max_misses));
  const ces::analytic::ExplorationResult result = explorer.Solve(k);

  std::printf("N=%llu N'=%llu max-misses=%llu K=%llu engine=%s\n",
              static_cast<unsigned long long>(explorer.stats().n),
              static_cast<unsigned long long>(explorer.stats().n_unique),
              static_cast<unsigned long long>(explorer.stats().max_misses),
              static_cast<unsigned long long>(k), engine.c_str());
  ces::AsciiTable table({"Depth", "Assoc", "Size (words)", "Warm misses"});
  for (const auto& point : result.points) {
    table.AddRow({std::to_string(point.depth), std::to_string(point.assoc),
                  std::to_string(point.size_words()),
                  std::to_string(point.warm_misses)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  metrics.Emit();
  return 0;
}

// Overrides one LevelAxes axis from a comma-separated flag, e.g.
// --l1i-depths=16,32. Absent flags keep the space preset's values.
void OverrideAxis(const ces::ArgParser& args, const std::string& flag,
                  std::vector<std::uint32_t>& axis) {
  if (!args.Has(flag)) return;
  std::vector<std::uint32_t> values;
  for (const std::string& item : SplitList(args.GetString(flag, ""))) {
    values.push_back(static_cast<std::uint32_t>(std::stoul(item)));
  }
  if (values.empty()) {
    throw ces::support::Error(ces::support::ErrorCategory::kUsage, "cachedse",
                              "--" + flag + " needs at least one value");
  }
  axis = std::move(values);
}

ces::explore::JointSpace JointSpaceFromFlags(const ces::ArgParser& args) {
  ces::explore::JointSpace space =
      ces::explore::JointSpaceByName(args.GetString("space", "default"));
  OverrideAxis(args, "l1i-depths", space.l1i.depths);
  OverrideAxis(args, "l1i-assocs", space.l1i.assocs);
  OverrideAxis(args, "l1i-lines", space.l1i.lines);
  OverrideAxis(args, "l1d-depths", space.l1d.depths);
  OverrideAxis(args, "l1d-assocs", space.l1d.assocs);
  OverrideAxis(args, "l1d-lines", space.l1d.lines);
  OverrideAxis(args, "l2-depths", space.l2.depths);
  OverrideAxis(args, "l2-assocs", space.l2.assocs);
  OverrideAxis(args, "l2-lines", space.l2.lines);
  if (args.Has("l1i-policy")) {
    space.l1i_policy =
        ces::explore::ReplacementPolicyByName(args.GetString("l1i-policy", ""));
  }
  if (args.Has("l1d-policy")) {
    space.l1d_policy =
        ces::explore::ReplacementPolicyByName(args.GetString("l1d-policy", ""));
  }
  if (args.Has("l2-policy")) {
    space.l2_policy =
        ces::explore::ReplacementPolicyByName(args.GetString("l2-policy", ""));
  }
  return space;
}

// The merged program-order stream for the joint explorer: a workload name
// yields both split traces from one verified run; otherwise --trace-instr /
// --trace-data name the two files and the proportional interleave merges
// them.
ces::trace::AccessSequence LoadJointStream(
    const ces::ArgParser& args, ces::support::MetricsRegistry* metrics,
    std::string* name) {
  const std::string workload_name = args.GetString("trace", "");
  if (!workload_name.empty()) {
    const auto* workload = ces::workloads::FindWorkload(workload_name);
    if (workload == nullptr) {
      throw ces::support::Error(
          ces::support::ErrorCategory::kUsage, "cachedse",
          "--trace for explore-joint must name a built-in workload (got '" +
              workload_name + "'); use --trace-instr/--trace-data for files");
    }
    const auto run = ces::workloads::Run(*workload);
    if (!run.output_matches) {
      throw ces::support::Error(ces::support::ErrorCategory::kInternal,
                                "workload",
                                "verification failed: " + workload_name);
    }
    *name = workload_name;
    ces::support::MetricsRegistry::Add(
        metrics, "trace.refs_generated",
        run.instruction_trace.size() + run.data_trace.size());
    return ces::explore::InterleaveProportional(run.instruction_trace,
                                                run.data_trace);
  }
  const std::string instr_path = args.GetString("trace-instr", "");
  const std::string data_path = args.GetString("trace-data", "");
  if (instr_path.empty() || data_path.empty()) {
    throw ces::support::Error(
        ces::support::ErrorCategory::kUsage, "cachedse",
        "explore-joint needs --trace=WORKLOAD or both --trace-instr and "
        "--trace-data");
  }
  ces::trace::Trace instr = LoadAnyFormat(instr_path, "instr", metrics);
  instr.kind = ces::trace::StreamKind::kInstruction;
  const ces::trace::Trace data = LoadAnyFormat(data_path, "data", metrics);
  *name = instr_path + "+" + data_path;
  return ces::explore::InterleaveProportional(instr, data);
}

// ces-bench-v1 report for --json=FILE: the same schema the bench tables emit,
// with the run's deterministic pruning counters, so CI and plotting scripts
// share one parser. Keys are written in fixed (sorted) order by hand — no map
// iteration.
std::string JointBenchJson(const std::string& name,
                           const ces::explore::JointResult& result) {
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  std::string out = "{\"schema\":\"ces-bench-v1\",\"bench\":\"explore-joint\","
                    "\"results\":[{\"name\":\"" + name + "\",\"params\":{"
                    "\"prune\":\"" + (result.pruned_configs > 0 ? "on" : "off")
                    + "\"},\"reps\":1,\"counters\":{";
  out += "\"evaluated_configs\":" + u64(result.evaluated_configs);
  out += ",\"evaluated_pairs\":" + u64(result.evaluated_pairs);
  out += ",\"front_size\":" + u64(result.front.size());
  out += ",\"pruned_configs\":" + u64(result.pruned_configs);
  out += ",\"pruned_pairs\":" + u64(result.pruned_pairs);
  out += ",\"seed_pairs\":" + u64(result.seed_pairs);
  out += ",\"space_configs\":" + u64(result.space_configs);
  out += ",\"threshold_pruned_pairs\":" + u64(result.threshold_pruned_pairs);
  out += ",\"total_pairs\":" + u64(result.total_pairs);
  out += ",\"valid_configs\":" + u64(result.valid_configs);
  out += "}}]}";
  return out;
}

int CmdExploreJoint(const ces::ArgParser& args, MetricsEmitter& metrics) {
  std::string name;
  const ces::trace::AccessSequence accesses =
      LoadJointStream(args, metrics.get(), &name);
  const ces::explore::JointSpace space = JointSpaceFromFlags(args);

  ces::explore::JointOptions options;
  options.prune = args.GetBool("prune", true);
  options.jobs = JobsFlag(args);
  options.metrics = metrics.get();
  ces::support::MetricsRegistry::SetGauge(metrics.get(), "pool.jobs",
                                          options.jobs);

  const ces::explore::JointResult result =
      ExploreJoint(accesses, space, options);

  const std::string format = args.GetString("format", "table");
  if (format == "json") {
    std::printf("%s\n", ces::explore::JointReportJson(result, space).c_str());
  } else if (format == "csv") {
    std::fputs(ces::explore::JointFrontCsv(result.front).c_str(), stdout);
  } else if (format == "table") {
    std::printf("%s: %zu accesses, space %s\n", name.c_str(), accesses.size(),
                space.Canonical().c_str());
    std::fputs(ces::explore::RenderJointFront(result).c_str(), stdout);
  } else {
    throw ces::support::Error(
        ces::support::ErrorCategory::kUsage, "cachedse",
        "unknown --format '" + format + "' (expected table|json|csv)");
  }

  const std::string json_path = args.GetString("json", "");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      throw ces::support::Error(ces::support::ErrorCategory::kIo, "cachedse",
                                "cannot open " + json_path);
    }
    os << JointBenchJson(name, result) << '\n';
  }
  metrics.Emit();
  return 0;
}

int CmdStats(const ces::ArgParser& args, MetricsEmitter& metrics) {
  const std::string path = args.GetString("trace", "");
  if (path.empty()) return Usage();
  ces::trace::TraceStats stats;
  ces::trace::StreamKind kind;
  std::unique_ptr<ces::trace::MmapTraceView> view;
  if (TraceIoFlag(args) != ces::trace::TraceIoMode::kMemory) {
    view = ces::trace::TryOpenMmap(path, metrics.get());
  }
  if (view != nullptr) {
    // Bounded-memory streaming pass: O(N') state over an mmap view, so
    // stats on an out-of-core CTRC trace keep the resident set flat.
    stats = ces::trace::ComputeStats(*view);
    kind = view->kind();
  } else {
    const ces::trace::Trace trace =
        LoadAnyFormat(path, args.GetString("kind", "data"), metrics.get());
    stats = ces::trace::ComputeStats(trace);
    kind = trace.kind;
  }
  std::printf("%s: N=%llu N'=%llu max-misses=%llu kind=%s\n", path.c_str(),
              static_cast<unsigned long long>(stats.n),
              static_cast<unsigned long long>(stats.n_unique),
              static_cast<unsigned long long>(stats.max_misses),
              ces::trace::ToString(kind));
  metrics.Emit();
  return 0;
}

// Renders one (trace, fraction) comparison: strategy costs plus the agreed
// optimal set. Everything except the Time column is deterministic, so
// --timing=false output is byte-identical for every --jobs value.
std::string CompareOneCell(const std::string& name,
                           const ces::trace::Trace& trace, double fraction,
                           std::uint32_t max_bits, std::uint32_t jobs,
                           bool timing,
                           std::uint64_t* simulated_refs = nullptr) {
  const auto stats = ces::trace::ComputeStats(trace);
  const auto k = static_cast<std::uint64_t>(
      fraction * static_cast<double>(stats.max_misses));

  std::vector<std::string> headers = {"Strategy"};
  if (timing) headers.push_back("Time");
  headers.push_back("Simulated refs");
  ces::AsciiTable table(std::move(headers));

  std::vector<ces::analytic::DesignPoint> agreed;
  bool all_agree = true;
  for (const auto& strategy : ces::explore::AllStrategies()) {
    const auto result = strategy->Explore(trace, k, max_bits, jobs);
    if (simulated_refs != nullptr) {
      *simulated_refs += result.simulated_references;
    }
    std::vector<std::string> row = {strategy->name()};
    if (timing) row.push_back(ces::FormatSeconds(result.seconds));
    row.push_back(ces::FormatWithThousands(result.simulated_references));
    table.AddRow(std::move(row));
    if (agreed.empty()) {
      agreed = result.points;
    } else if (result.points.size() != agreed.size()) {
      all_agree = false;
    } else {
      for (std::size_t i = 0; i < agreed.size(); ++i) {
        all_agree = all_agree && result.points[i].depth == agreed[i].depth &&
                    result.points[i].assoc == agreed[i].assoc &&
                    result.points[i].warm_misses == agreed[i].warm_misses;
      }
    }
  }

  char head[160];
  std::snprintf(head, sizeof(head),
                "== %s fraction=%.2f K=%llu max-bits=%u ==\n", name.c_str(),
                fraction, static_cast<unsigned long long>(k), max_bits);
  std::string out = head;
  out += table.ToString();
  ces::AsciiTable points({"Depth", "Assoc", "Size (words)", "Warm misses"});
  for (const auto& point : agreed) {
    points.AddRow({std::to_string(point.depth), std::to_string(point.assoc),
                   std::to_string(point.size_words()),
                   std::to_string(point.warm_misses)});
  }
  out += points.ToString();
  out += all_agree ? "strategies agree on the optimal set: yes\n"
                   : "strategies agree on the optimal set: NO (BUG)\n";
  return out;
}

int CmdCompare(const ces::ArgParser& args, MetricsEmitter& metrics) {
  const std::vector<std::string> paths =
      SplitList(args.GetString("trace", ""));
  if (paths.empty()) return Usage();
  std::vector<double> fractions;
  for (const std::string& f : SplitList(args.GetString("fraction", "0.05"))) {
    fractions.push_back(std::stod(f));
  }
  if (fractions.empty()) fractions.push_back(0.05);
  const auto max_bits =
      static_cast<std::uint32_t>(args.GetInt("max-bits", 12));
  const std::uint32_t jobs = JobsFlag(args);
  const bool timing = args.GetBool("timing", true);
  ces::support::MetricsRegistry::SetGauge(metrics.get(), "pool.jobs", jobs);

  std::vector<ces::trace::Trace> traces;
  traces.reserve(paths.size());
  for (const std::string& path : paths) {
    traces.push_back(
        LoadAnyFormat(path, args.GetString("kind", "data"), metrics.get()));
  }

  // One cell per (trace, fraction) pair, rendered into its own slot so the
  // output order never depends on scheduling.
  struct Cell {
    std::size_t trace_index;
    double fraction;
  };
  std::vector<Cell> cells;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (double fraction : fractions) cells.push_back({t, fraction});
  }
  std::vector<std::string> rendered(cells.size());
  std::vector<std::uint64_t> cell_refs(cells.size(), 0);

  if (cells.size() == 1) {
    // Single cell: let the strategies parallelise across depths instead.
    rendered[0] = CompareOneCell(paths[0], traces[0], cells[0].fraction,
                                 max_bits, jobs, timing, &cell_refs[0]);
  } else {
    // Independent workloads and budgets run concurrently; each cell's
    // strategies stay serial inside (nested parallelism would inline).
    ces::support::ThreadPool pool(jobs);
    pool.ParallelFor(cells.size(), [&](std::size_t i) {
      rendered[i] = CompareOneCell(
          paths[cells[i].trace_index], traces[cells[i].trace_index],
          cells[i].fraction, max_bits, 1, timing, &cell_refs[i]);
    });
  }
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    if (i > 0) std::fputc('\n', stdout);
    std::fputs(rendered[i].c_str(), stdout);
  }
  // Per-cell counts are summed in cell order, so the totals — like the
  // rendered tables — are independent of the worker count.
  ces::support::MetricsRegistry::Add(metrics.get(), "compare.cells",
                                     cells.size());
  for (std::uint64_t refs : cell_refs) {
    ces::support::MetricsRegistry::Add(metrics.get(),
                                       "compare.refs_simulated", refs);
  }
  metrics.Emit();
  return 0;
}

int CmdWorkload(const ces::ArgParser& args) {
  const std::string name = args.GetString("benchmark", "");
  const auto* workload = ces::workloads::FindWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'; known:", name.c_str());
    for (const auto& w : ces::workloads::AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fputc('\n', stderr);
    return 2;
  }
  const auto run = ces::workloads::Run(*workload);
  if (run.stop != ces::sim::StopReason::kHalted || !run.output_matches) {
    std::fprintf(stderr, "workload verification failed\n");
    return 1;
  }
  const std::string out = args.GetString("out", ".");
  ces::trace::SaveToFile(out + "/" + name + ".instr.ctr",
                         run.instruction_trace);
  ces::trace::SaveToFile(out + "/" + name + ".data.ctr", run.data_trace);
  std::printf("%s: %llu instructions retired, traces in %s/\n", name.c_str(),
              static_cast<unsigned long long>(run.retired), out.c_str());
  return 0;
}

int CmdConvert(const ces::ArgParser& args, MetricsEmitter& metrics) {
  const std::string in = args.GetString("trace", "");
  const std::string out = args.GetString("out", "");
  if (in.empty() || out.empty()) return Usage();
  SaveAnyFormat(out,
                LoadAnyFormat(in, args.GetString("kind", "data"),
                              metrics.get()));
  std::printf("wrote %s\n", out.c_str());
  metrics.Emit();
  return 0;
}

int RunCommand(const std::string& command, const ces::ArgParser& args,
               MetricsEmitter& metrics) {
  if (command == "explore") return CmdExplore(args, metrics);
  if (command == "explore-joint") return CmdExploreJoint(args, metrics);
  if (command == "stats") return CmdStats(args, metrics);
  if (command == "compare") return CmdCompare(args, metrics);
  if (command == "workload") return CmdWorkload(args);
  if (command == "convert") return CmdConvert(args, metrics);
  return Usage();
}

}  // namespace

int main(int argc, char** argv) {
  const ces::ArgParser args(argc, argv);
  if (args.positional().empty()) return Usage();
  if (args.Has("simd")) {
    ces::support::simd::Level level;
    const std::string name = args.GetString("simd", "");
    if (!ces::support::simd::ParseLevel(name.c_str(), &level)) {
      std::fprintf(stderr, "cachedse: invalid --simd=%s (want scalar|avx2)\n",
                   name.c_str());
      return 2;
    }
    ces::support::simd::ForceLevel(level);
  }
  const std::string command = args.positional()[0];
  TraceEmitter trace_out(args);
  ProgressGuard progress(args);
  try {
    // The emitters live in main and the signal watcher flushes them, so an
    // interrupted run still ends with a complete metrics JSON line and a
    // well-formed trace-event file before the conventional 128+signo exit.
    // The watcher is constructed before any worker thread, so every thread
    // inherits the blocked mask and signals land only on the watcher.
    MetricsEmitter metrics(args);
    ces::support::SignalWatcher watcher([&](int signo) {
      metrics.Emit();
      trace_out.Finish();
      std::_Exit(128 + signo);
    });
    const int rc = RunCommand(command, args, metrics);
    trace_out.Finish();
    return rc;
  } catch (const ces::support::Error& e) {
    std::fprintf(stderr, "cachedse: %s\n", e.what());
    trace_out.Finish();
    return ces::support::ExitCodeFor(e.category());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachedse: %s\n", e.what());
    return 1;
  }
}
