// Shared vocabulary of the cachedse benchmark: run options, the per-workload
// outcome, the span log of a traced run, and small statistics helpers.
//
// The benchmark drives only public entry points of the library and the
// cachedse-server protocol; every span is recorded here, around a call into
// one layer, never inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cesbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;            // tiny inputs for the benchmark's own test
  std::string server_path;       // the cachedse-server binary
  std::string run_dir;           // per-run scratch: inputs, spill, socket
  std::uint32_t jobs = 4;        // explorer and server jobs: min(4, nproc)
  int setup_reps = 8;            // set-up repetitions (median is reported)
};

// One span: a call into one layer, or one op. `parent` indexes the same log
// (-1 for a root); `op` groups the spans of one op.
struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

// In-memory span log of one thread. A null SpanLog* disables recording, so
// the untraced path costs one pointer test per span.
class SpanLog {
 public:
  int Begin(const char* name, std::uint64_t op);
  void End(int index);
  std::vector<Span> spans() const { return {spans_.begin(), spans_.end()}; }
  void Append(const SpanLog& other);

 private:
  std::deque<Span> spans_;  // never moves a recorded span
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Self time per span name (duration minus the direct children), summed over
// the log, in seconds; and the number of spans of each name.
struct LayerTotals {
  std::map<std::string, double> self_s;
  std::map<std::string, std::uint64_t> count;
};
LayerTotals SummarizeSpans(const std::vector<Span>& spans);

// For every root span named `op_name`: the share of its duration that its
// direct children cover.
std::vector<double> OpCoverage(const std::vector<Span>& spans,
                               const std::string& op_name);

// The result of running one workload.
struct Outcome {
  std::string workload;
  std::vector<double> setup_s;       // one per set-up repetition
  std::vector<double> latency_ms;    // one per timed op
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;          // errors, sheds and oracle mismatches
  double refs = 0;                   // input references answered
  double elapsed_s = 0;              // wall time of the timed phase
  double peak_rss_mb = 0;
  std::map<std::string, double> layers;  // per-layer metrics (traced runs)
  std::map<std::string, double> notes;   // extra facts for the results file
  std::vector<Span> spans;           // traced runs only
};

// Runs `fn` in a forked child and returns the key -> text map it produced.
// The oracle runs there so its memory never reaches the answering
// process's high-water mark. Throws std::runtime_error when the child fails.
using Expected = std::map<std::string, std::string>;
Expected RunInChild(const std::function<Expected()>& fn);

// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// High-water resident set of this process, in MiB.
double SelfPeakRssMb();

// Seeded locality trace: runs of sequential references that start in a hot
// region of `hot_lines` words with probability `hot_run_share`, else in a
// cold region of `cold_lines` words placed at `cold_base`. Hot runs are
// 4..31 references long and cold runs 1..7.
ces::trace::Trace LocalityTrace(std::uint64_t seed, std::uint32_t length,
                                std::uint32_t hot_lines,
                                std::uint32_t cold_lines,
                                std::uint32_t cold_base,
                                double hot_run_share);

// The workloads. Each returns its outcome; a traced run also fills layers.
Outcome RunBigSynth(const Options& options);
Outcome RunPaperSuite(const Options& options);
Outcome RunDaemonMix(const Options& options);

void WriteTextFile(const std::string& path, const std::string& text);

}  // namespace cesbench
