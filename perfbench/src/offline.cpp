// The two offline workloads: big_synth (one large synthetic CTRC trace,
// explored the way `cachedse explore` does) and paper_suite (the 12 MR32
// benchmarks' I/D traces as CTRZ files: explore both, joint-explore the
// interleave, render). Both share one loop: repeated set-up, an oracle in
// a forked child, then a timed loop of ops checked against the oracle.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "analytic/explorer.hpp"
#include "cache/stack.hpp"
#include "common.hpp"
#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "oracle.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_view.hpp"
#include "workloads/workloads.hpp"

namespace cesbench {

namespace {

namespace analytic = ces::analytic;
namespace explore = ces::explore;
namespace trace = ces::trace;

// What one op produced: the rendered texts to check (oracle key -> text),
// plus the amounts the per-layer metrics divide by.
struct Answer {
  std::string group;  // the input answered, for per-input latency notes
  std::map<std::string, std::string> texts;
  std::vector<explore::JointPoint> front;  // checked as JointFrontCsv
  std::string front_key;
  // Rendered like the other texts but not compared: its pruning counters
  // cannot match the unpruned oracle, so the front is checked instead.
  std::string joint_report;
  double refs = 0;
  double load_bytes = 0;
  std::uint64_t joint_evaluated = 0;
  std::uint64_t joint_valid = 0;
};

struct OfflineWorkload {
  // The directory set-up wrote the inputs to; ops and the oracle read there.
  std::shared_ptr<std::string> inputs = std::make_shared<std::string>();
  std::function<void()> setup;
  std::function<Expected()> oracle;
  std::function<Answer(std::uint64_t, SpanLog*)> op;
  // Traced runs only: side measurements after op `index`, outside its span.
  std::function<void(std::uint64_t, SpanLog*, Outcome&)> reference;
  // The timed loop ends only after a multiple of this many ops, so every
  // run answers whole cycles of the workload's inputs.
  std::uint64_t cycle = 1;
  // Traced runs only: derives the per-layer metrics from the span totals.
  std::function<void(const LayerTotals&, double ops, const Answer& sum,
                     Outcome&)>
      layers;
};

double FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    throw std::runtime_error("cannot stat " + path);
  }
  return static_cast<double>(st.st_size);
}

bool Check(const Answer& answer, const Expected& expected) {
  for (const auto& [key, text] : answer.texts) {
    const auto it = expected.find(key);
    if (it == expected.end() || it->second != text) {
      std::fprintf(stderr, "cesbench: oracle mismatch on %s\n", key.c_str());
      return false;
    }
  }
  if (!answer.front_key.empty()) {
    const auto it = expected.find(answer.front_key);
    if (it == expected.end() ||
        it->second != explore::JointFrontCsv(answer.front)) {
      std::fprintf(stderr, "cesbench: oracle mismatch on %s\n",
                   answer.front_key.c_str());
      return false;
    }
  }
  return true;
}

void Accumulate(Answer& sum, const Answer& answer) {
  sum.refs += answer.refs;
  sum.load_bytes += answer.load_bytes;
  sum.joint_evaluated += answer.joint_evaluated;
  sum.joint_valid += answer.joint_valid;
}

// Runs op `index`, times it, then checks its answer against the oracle.
double TimedOp(const OfflineWorkload& workload, const Expected& expected,
               std::uint64_t index, SpanLog* spans, Answer& sum,
               Outcome& out, std::string* group = nullptr) {
  const Clock::time_point t0 = Clock::now();
  Answer answer;
  {
    ScopedSpan span(spans, "op", index);
    answer = workload.op(index, spans);
  }
  const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
  ++out.attempted;
  if (!Check(answer, expected)) ++out.failed;
  Accumulate(sum, answer);
  if (group != nullptr) *group = answer.group;
  return ms;
}

Outcome RunOffline(const Options& options, const OfflineWorkload& workload) {
  Outcome out;
  out.workload = options.workload;
  // Each repetition writes fresh files: on ext4, rewriting a truncated file
  // forces a synchronous flush that would dominate set-up time.
  for (int rep = 0; rep < std::max(options.setup_reps, 1); ++rep) {
    if (!workload.inputs->empty()) {
      std::filesystem::remove_all(*workload.inputs);
    }
    *workload.inputs = options.run_dir + "/inputs-" + std::to_string(rep);
    std::filesystem::create_directories(*workload.inputs);
    const Clock::time_point t0 = Clock::now();
    workload.setup();
    out.setup_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  const Expected expected = RunInChild(workload.oracle);

  // Ops run until `seconds` pass, then to the end of the current cycle. A
  // traced run also times every op untraced, alternating which goes first,
  // so the difference between the two is the tracing overhead.
  SpanLog log;
  SpanLog* spans = options.trace ? &log : nullptr;
  std::vector<double> untraced_ms;
  Answer sum;
  Answer untraced_sum;
  std::map<std::string, std::vector<double>> by_group;
  const Clock::time_point start = Clock::now();
  std::uint64_t ops = 0;
  for (; ops == 0 || ops % workload.cycle != 0 ||
         SecondsBetween(start, Clock::now()) < options.seconds;
       ++ops) {
    const bool untraced_first = spans != nullptr && ops % 2 == 1;
    if (untraced_first) {
      untraced_ms.push_back(
          TimedOp(workload, expected, ops, nullptr, untraced_sum, out));
    }
    std::string group;
    out.latency_ms.push_back(
        TimedOp(workload, expected, ops, spans, sum, out, &group));
    by_group[group].push_back(out.latency_ms.back());
    if (spans != nullptr && !untraced_first) {
      untraced_ms.push_back(
          TimedOp(workload, expected, ops, nullptr, untraced_sum, out));
    }
    if (spans != nullptr && workload.reference) {
      workload.reference(ops, spans, out);
    }
  }
  out.refs = sum.refs;
  out.elapsed_s =
      std::accumulate(out.latency_ms.begin(), out.latency_ms.end(), 0.0) *
      1e-3;
  out.peak_rss_mb = SelfPeakRssMb();
  for (const auto& [group, latency] : by_group) {
    out.notes["p50_ms." + group] = Median(latency);
  }
  if (spans == nullptr) return out;

  out.spans = log.spans();
  const double untraced_total =
      std::accumulate(untraced_ms.begin(), untraced_ms.end(), 0.0);
  out.layers["tracing.overhead_pct"] =
      (out.elapsed_s * 1e3 - untraced_total) / untraced_total * 100.0;
  out.notes["traced_ops"] = static_cast<double>(ops);
  const LayerTotals totals = SummarizeSpans(out.spans);
  for (const auto& [name, self] : totals.self_s) {
    out.notes["self_ms_per_op." + name] =
        self * 1e3 / static_cast<double>(ops);
  }
  workload.layers(totals, static_cast<double>(ops), sum, out);
  return out;
}

double Self(const LayerTotals& totals, const std::string& name) {
  const auto it = totals.self_s.find(name);
  return it == totals.self_s.end() ? 0.0 : it->second;
}

double Count(const LayerTotals& totals, const std::string& name) {
  const auto it = totals.count.find(name);
  return it == totals.count.end() ? 0.0 : static_cast<double>(it->second);
}

// The per-layer figures of an offline traced run. Each workload reports
// the ones it owns as per-layer metrics and keeps the rest as notes.
void ReportLayers(const LayerTotals& totals, double ops, const Answer& sum,
                  double solves_per_span,
                  const std::vector<std::string>& owned, Outcome& out) {
  const double load_s = Self(totals, "trace.load");
  const double strip_s = Self(totals, "trace.strip");
  std::map<std::string, double> figures;
  figures["trace.load_ms"] = load_s * 1e3 / ops;
  figures["trace.load_mb_per_s"] = sum.load_bytes / load_s / 1e6;
  figures["trace.strip_ms"] = strip_s * 1e3 / ops;
  figures["trace.strip_share"] = strip_s / out.elapsed_s;
  figures["analytic.prelude_ms"] =
      (Self(totals, "analytic.explorer") - strip_s) * 1e3 / ops;
  figures["analytic.solve_us"] = Self(totals, "analytic.solve") * 1e6 /
                                 (Count(totals, "analytic.solve") *
                                  solves_per_span);
  figures["explore.report_us"] = Self(totals, "explore.report") * 1e6 / ops;
  figures["unattributed_ms_per_op"] = Self(totals, "op") * 1e3 / ops;
  for (const auto& [name, value] : figures) {
    const bool metric =
        std::find(owned.begin(), owned.end(), name) != owned.end();
    (metric ? out.layers : out.notes)[name] = value;
  }
}

// --- big_synth --------------------------------------------------------------

OfflineWorkload BigSynth(const Options& options) {
  OfflineWorkload w;
  const auto inputs = w.inputs;
  const auto path_of = [inputs] { return *inputs + "/big_synth.ctr"; };
  const std::uint32_t refs = options.smoke ? (1u << 16) : (1u << 20);
  const std::uint32_t hot = options.smoke ? 256 : 1024;
  const std::uint32_t cold = options.smoke ? 2048 : 16384;
  const std::uint32_t jobs = options.jobs;

  w.setup = [=] {
    trace::Trace synthetic =
        LocalityTrace(options.seed, refs, hot, cold, 2 * cold, 0.85);
    synthetic.name = "big_synth";
    trace::SaveToFile(path_of(), synthetic);
  };
  w.oracle = [=] {
    const trace::Trace input = trace::LoadFromFile(path_of());
    Expected expected;
    expected["big_synth"] = RenderSolves(OracleSolves(input, jobs));
    return expected;
  };
  w.op = [=](std::uint64_t index, SpanLog* spans) {
    const std::string path = path_of();
    Answer answer;
    std::unique_ptr<trace::MmapTraceView> view;
    {
      ScopedSpan span(spans, "trace.load", index);
      view = trace::TryOpenMmap(path);
    }
    if (view == nullptr) throw std::runtime_error("cannot mmap " + path);
    if (spans != nullptr) {
      // Traced only: the strip the Explorer runs first, timed on its own so
      // the prelude can be reported net of it.
      ScopedSpan span(spans, "trace.strip", index);
      const trace::StrippedTrace stripped = trace::Strip(*view);
      (void)stripped;
    }
    std::optional<analytic::Explorer> explorer;
    {
      ScopedSpan span(spans, "analytic.explorer", index);
      analytic::ExplorerOptions explorer_options;
      explorer_options.jobs = jobs;
      explorer.emplace(*view, explorer_options);
    }
    std::vector<analytic::ExplorationResult> results;
    for (double fraction : explore::kPaperFractions) {
      ScopedSpan span(spans, "analytic.solve", index);
      results.push_back(explorer->SolveFraction(fraction));
    }
    {
      ScopedSpan span(spans, "explore.report", index);
      answer.texts["big_synth"] = RenderSolves(results);
    }
    answer.group = "big_synth";
    answer.refs = static_cast<double>(view->size());
    answer.load_bytes = FileBytes(path);
    return answer;
  };
  w.reference = [=](std::uint64_t index, SpanLog* spans, Outcome& out) {
    const std::unique_ptr<trace::MmapTraceView> view =
        trace::TryOpenMmap(path_of());
    if (index == 0) {
      // The fused work counters are jobs-invariant, so one instrumented
      // build (outside every span) gives them exactly.
      ces::support::MetricsRegistry registry;
      analytic::ExplorerOptions counted;
      counted.jobs = jobs;
      counted.metrics = &registry;
      const analytic::Explorer explorer(*view, counted);
      out.layers["analytic.fused_refs"] =
          static_cast<double>(registry.counter("explore.fused_refs"));
      out.layers["analytic.fused_nodes"] =
          static_cast<double>(registry.counter("explore.fused_nodes"));
    }
    {
      ScopedSpan span(spans, "analytic.prelude_serial", index);
      analytic::ExplorerOptions serial;
      serial.jobs = 1;
      const analytic::Explorer explorer(*view, serial);
    }
    const trace::StrippedTrace stripped = trace::Strip(*view);
    const std::uint32_t bits =
        std::min(analytic::ExplorerOptions{}.max_index_bits,
                 trace::SignificantAddressBits(stripped));
    {
      ScopedSpan span(spans, "cache.per_depth", index);
      ces::support::ThreadPool pool(jobs);
      const auto profiles =
          ces::cache::ComputeAllDepthProfiles(stripped, bits, &pool);
    }
  };
  w.layers = [](const LayerTotals& totals, double ops, const Answer& sum,
                Outcome& out) {
    ReportLayers(totals, ops, sum, 1.0,
                 {"analytic.prelude_ms", "analytic.solve_us"}, out);
    const double strip_ms = out.notes["trace.strip_ms"];
    const double serial_ms =
        Self(totals, "analytic.prelude_serial") * 1e3 /
            Count(totals, "analytic.prelude_serial") -
        strip_ms;
    const double per_depth_ms = Self(totals, "cache.per_depth") * 1e3 /
                                Count(totals, "cache.per_depth");
    const double prelude_ms = out.layers["analytic.prelude_ms"];
    out.layers["analytic.prelude_serial_ms"] = serial_ms;
    out.layers["analytic.prelude_speedup"] = serial_ms / prelude_ms;
    out.layers["cache.per_depth_ms"] = per_depth_ms;
    out.layers["analytic.prelude_vs_per_depth"] = prelude_ms / per_depth_ms;
  };
  return w;
}

// --- paper_suite ------------------------------------------------------------

// Op index -> benchmark: ops cycle through all benchmarks, each cycle in a
// fresh seeded order, so a replay of the same indices sees the same order.
class SeededCycles {
 public:
  SeededCycles(std::uint64_t seed, std::size_t n) : rng_(seed), n_(n) {}

  std::size_t At(std::uint64_t index) {
    while (order_.size() <= index) {
      std::vector<std::size_t> cycle(n_);
      std::iota(cycle.begin(), cycle.end(), 0);
      for (std::size_t i = n_; i > 1; --i) {
        std::swap(cycle[i - 1], cycle[rng_.NextBounded(i)]);
      }
      order_.insert(order_.end(), cycle.begin(), cycle.end());
    }
    return order_[index];
  }

 private:
  ces::Rng rng_;
  std::size_t n_;
  std::vector<std::size_t> order_;
};

OfflineWorkload PaperSuite(const Options& options) {
  const ces::workloads::Scale scale = options.smoke
                                          ? ces::workloads::Scale::kSmall
                                          : ces::workloads::Scale::kDefault;
  const explore::JointSpace space = options.smoke
                                        ? explore::JointSpace::Small()
                                        : explore::JointSpace::Default();
  std::vector<std::string> names;
  for (const auto& workload : ces::workloads::AllWorkloads(scale)) {
    names.push_back(workload.name);
  }
  const std::uint32_t jobs = options.jobs;
  OfflineWorkload w;
  const auto inputs = w.inputs;
  const auto instr_path = [inputs](const std::string& name) {
    return *inputs + "/" + name + ".i.ctrz";
  };
  const auto data_path = [inputs](const std::string& name) {
    return *inputs + "/" + name + ".d.ctrz";
  };

  const auto cycles = std::make_shared<SeededCycles>(options.seed,
                                                     names.size());

  w.cycle = names.size();
  w.setup = [=] {
    for (const auto& workload : ces::workloads::AllWorkloads(scale)) {
      const ces::workloads::WorkloadRun run = ces::workloads::Run(workload);
      if (!run.output_matches) {
        throw std::runtime_error("workload verification failed: " +
                                 workload.name);
      }
      trace::SaveToFile(instr_path(workload.name), run.instruction_trace);
      trace::SaveToFile(data_path(workload.name), run.data_trace);
    }
  };
  w.oracle = [=] {
    Expected expected;
    for (const std::string& name : names) {
      const trace::Trace instr = trace::LoadFromFile(instr_path(name));
      const trace::Trace data = trace::LoadFromFile(data_path(name));
      expected[name + "/instr"] =
          explore::RenderOptimalTable(OracleTable(name, "instruction", instr,
                                                  jobs));
      expected[name + "/data"] =
          explore::RenderOptimalTable(OracleTable(name, "data", data, jobs));
      expected[name + "/joint"] =
          explore::JointFrontCsv(OracleJointFront(instr, data, space, jobs));
    }
    return expected;
  };
  w.op = [=](std::uint64_t index, SpanLog* spans) {
    const std::string& name = names[cycles->At(index)];
    Answer answer;
    answer.group = name;
    trace::Trace instr;
    trace::Trace data;
    {
      ScopedSpan span(spans, "trace.load", index);
      instr = trace::LoadFromFile(instr_path(name));
    }
    {
      ScopedSpan span(spans, "trace.load", index);
      data = trace::LoadFromFile(data_path(name));
    }
    if (spans != nullptr) {
      // Traced only: the strips the Explorers run first, timed on their own.
      for (const trace::Trace* input : {&instr, &data}) {
        ScopedSpan span(spans, "trace.strip", index);
        const trace::StrippedTrace stripped = trace::Strip(*input);
        (void)stripped;
      }
    }
    analytic::ExplorerOptions explorer_options;
    explorer_options.jobs = jobs;
    std::optional<analytic::Explorer> instr_explorer;
    std::optional<analytic::Explorer> data_explorer;
    {
      ScopedSpan span(spans, "analytic.explorer", index);
      instr_explorer.emplace(instr, explorer_options);
    }
    {
      ScopedSpan span(spans, "analytic.explorer", index);
      data_explorer.emplace(data, explorer_options);
    }
    explore::OptimalTable instr_table;
    explore::OptimalTable data_table;
    {
      ScopedSpan span(spans, "analytic.solve", index);
      instr_table =
          explore::BuildOptimalTable(name, "instruction", *instr_explorer);
    }
    {
      ScopedSpan span(spans, "analytic.solve", index);
      data_table = explore::BuildOptimalTable(name, "data", *data_explorer);
    }
    trace::AccessSequence accesses;
    {
      ScopedSpan span(spans, "explore.interleave", index);
      accesses = explore::InterleaveProportional(instr, data);
    }
    explore::JointResult joint;
    {
      ScopedSpan span(spans, "explore.joint", index);
      explore::JointOptions joint_options;
      joint_options.jobs = jobs;
      joint = explore::ExploreJoint(accesses, space, joint_options);
    }
    {
      ScopedSpan span(spans, "explore.report", index);
      answer.texts[name + "/instr"] = explore::RenderOptimalTable(instr_table);
      answer.texts[name + "/data"] = explore::RenderOptimalTable(data_table);
      answer.joint_report = explore::RenderJointFront(joint);
    }
    answer.front = std::move(joint.front);
    answer.front_key = name + "/joint";
    answer.refs = static_cast<double>(instr.size() + data.size());
    answer.load_bytes =
        FileBytes(instr_path(name)) + FileBytes(data_path(name));
    answer.joint_evaluated = joint.evaluated_configs;
    answer.joint_valid = joint.valid_configs;
    return answer;
  };
  w.layers = [](const LayerTotals& totals, double ops, const Answer& sum,
                Outcome& out) {
    // One analytic.solve span is BuildOptimalTable: four solves.
    ReportLayers(totals, ops, sum,
                 static_cast<double>(std::size(explore::kPaperFractions)),
                 {"trace.load_ms", "trace.load_mb_per_s", "trace.strip_ms",
                  "explore.report_us"},
                 out);
    out.layers["explore.joint_ms"] =
        (Self(totals, "explore.joint") + Self(totals, "explore.interleave")) *
        1e3 / ops;
    out.layers["explore.joint_evaluated_ratio"] =
        static_cast<double>(sum.joint_evaluated) /
        static_cast<double>(sum.joint_valid);
  };
  return w;
}

}  // namespace

Outcome RunBigSynth(const Options& options) {
  return RunOffline(options, BigSynth(options));
}

Outcome RunPaperSuite(const Options& options) {
  return RunOffline(options, PaperSuite(options));
}

}  // namespace cesbench
