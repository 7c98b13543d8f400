// End-to-end integration: the complete paper pipeline on real workload
// traces — run the benchmark on the CPU simulator, explore analytically,
// re-simulate every returned instance (Figure 1b's "==" box), and check the
// auxiliary APIs (constraints, CSV export) on the same results. Also drives
// the cachedse binary itself (path via the CACHEDSE_BIN environment
// variable, set by tests/CMakeLists.txt) to validate the observability
// surfaces — --trace-out and --metrics=json — as a real consumer would.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "analytic/explorer.hpp"
#include "cache/sim.hpp"
#include "explore/report.hpp"
#include "json_validator.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ces::analytic;

class PipelineTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineTest, Figure1bHoldsOnRealTraces) {
  const ces::workloads::Workload* workload =
      ces::workloads::FindWorkload(GetParam());
  ASSERT_NE(workload, nullptr);
  const ces::workloads::WorkloadRun run = ces::workloads::Run(*workload);
  ASSERT_TRUE(run.output_matches);

  for (const ces::trace::Trace* trace :
       {&run.data_trace, &run.instruction_trace}) {
    const Explorer explorer(*trace);
    for (double fraction : {0.05, 0.20}) {
      const ExplorationResult result = explorer.SolveFraction(fraction);
      ASSERT_FALSE(result.points.empty());
      for (const DesignPoint& point : result.points) {
        const std::uint64_t simulated =
            ces::cache::WarmMisses(*trace, point.depth, point.assoc);
        EXPECT_EQ(simulated, point.warm_misses)
            << GetParam() << " " << ces::trace::ToString(trace->kind)
            << " D=" << point.depth;
        EXPECT_LE(simulated, result.k);
        if (point.assoc > 1) {
          EXPECT_GT(
              ces::cache::WarmMisses(*trace, point.depth, point.assoc - 1),
              result.k);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PipelineTest,
                         ::testing::Values("crc", "qurt", "compress"),
                         [](const auto& info) { return std::string(info.param); });

TEST(ConstraintsTest, FilterRespectsEveryAxis) {
  const std::vector<DesignPoint> points = {
      {.depth = 1, .assoc = 64, .warm_misses = 0},    // 64 words
      {.depth = 16, .assoc = 4, .warm_misses = 1},    // 64 words
      {.depth = 64, .assoc = 1, .warm_misses = 9},    // 64 words
      {.depth = 256, .assoc = 2, .warm_misses = 0},   // 512 words
  };
  InstanceConstraints constraints;
  constraints.max_assoc = 8;
  EXPECT_EQ(FilterPoints(points, constraints).size(), 3u);
  constraints.max_size_words = 64;
  EXPECT_EQ(FilterPoints(points, constraints).size(), 2u);
  constraints.min_depth = 32;
  ASSERT_EQ(FilterPoints(points, constraints).size(), 1u);
  EXPECT_EQ(FilterPoints(points, constraints)[0].depth, 64u);
  constraints.max_depth = 32;
  EXPECT_TRUE(FilterPoints(points, constraints).empty());
}

TEST(ConstraintsTest, UnconstrainedAdmitsEverything) {
  const ces::workloads::Workload* workload =
      ces::workloads::FindWorkload("crc");
  const ces::workloads::WorkloadRun run = ces::workloads::Run(*workload);
  const ExplorationResult result =
      Explorer(run.data_trace).SolveFraction(0.10);
  EXPECT_EQ(FilterPoints(result.points, {}).size(), result.points.size());
}

TEST(CsvExport, PointsRoundTripStructure) {
  const std::vector<DesignPoint> points = {
      {.depth = 4, .assoc = 2, .warm_misses = 17},
      {.depth = 8, .assoc = 1, .warm_misses = 3},
  };
  const std::string csv = ces::explore::PointsToCsv(points);
  EXPECT_EQ(csv,
            "depth,assoc,size_words,warm_misses\n"
            "4,2,8,17\n"
            "8,1,8,3\n");
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

// Drives the real binary: explore the paper's running example with tracing,
// metrics, and a parallel pool, then validate both observability outputs.
TEST(CachedseCli, TraceOutAndMetricsAreValidOnThePaperExample) {
  const char* bin = std::getenv("CACHEDSE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "CACHEDSE_BIN not set (run under ctest)";
  }
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/paper_example.trc";
  const std::string profile_path = dir + "/paper_example.trace.json";
  const std::string stdout_path = dir + "/paper_example.out";
  ces::trace::SaveToFile(trace_path, ces::trace::PaperExampleTrace());

  const std::string command = std::string(bin) + " explore --trace=" +
                              trace_path + " --k=2 --jobs=4 --metrics=json" +
                              " --trace-out=" + profile_path + " > " +
                              stdout_path;
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  // The profile must be well-formed Chrome trace-event JSON with strictly
  // nested spans, and must carry the phases the explorer instruments.
  const std::string profile = ReadWholeFile(profile_path);
  const auto checks = ces::testjson::CheckTraceEvents(profile);
  ASSERT_TRUE(checks.ok()) << checks.error;
  EXPECT_GT(checks.spans, 0u);
  // jobs=4 runs the subtree-parallel fused traversal (not a per-depth
  // fallback), so the profile shows the fused phase span plus the pool's
  // worker tracks and chunk spans from the subtree fan-out.
  for (const char* needle :
       {"\"explore.prelude\"", "\"explore.strip\"", "\"trace.read_text\"",
        "\"explore.solve\"", "\"explore.fused_traversal\"",
        "\"explore.prelude_done\"", "\"pool.chunk\"", "pool worker",
        "\"name\":\"main\""}) {
    EXPECT_NE(profile.find(needle), std::string::npos) << needle;
  }

  // The final stdout line is the metrics JSON; it must parse and must carry
  // the deterministic histogram section.
  const std::string output = ReadWholeFile(stdout_path);
  const std::size_t brace = output.rfind("\n{");
  ASSERT_NE(brace, std::string::npos) << output;
  std::string metrics_line = output.substr(brace + 1);
  while (!metrics_line.empty() &&
         (metrics_line.back() == '\n' || metrics_line.back() == '\r')) {
    metrics_line.pop_back();
  }
  const ces::testjson::JsonValidator validator(metrics_line);
  EXPECT_TRUE(validator.Valid()) << validator.error() << "\n" << metrics_line;
  EXPECT_EQ(metrics_line.find("{\"counters\":"), 0u);
  EXPECT_NE(metrics_line.find("\"histograms\""), std::string::npos);
  EXPECT_NE(metrics_line.find("\"stack.distance\""), std::string::npos);
}

TEST(CachedseCli, ExploreJointEmitsDeterministicReportAndBenchJson) {
  const char* bin = std::getenv("CACHEDSE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "CACHEDSE_BIN not set (run under ctest)";
  }
  const std::string dir = ::testing::TempDir();
  const std::string instr_path = dir + "/joint_instr.trc";
  const std::string data_path = dir + "/joint_data.trc";
  ces::trace::Trace instr = ces::trace::SequentialLoop(0, 40, 3);
  instr.kind = ces::trace::StreamKind::kInstruction;
  ces::trace::SaveToFile(instr_path, instr);
  ces::trace::SaveToFile(data_path, ces::trace::SequentialLoop(4096, 24, 5));

  auto run = [&](const char* jobs, const std::string& out_suffix) {
    const std::string stdout_path = dir + "/joint" + out_suffix + ".out";
    const std::string bench_path = dir + "/joint" + out_suffix + ".json";
    const std::string command = std::string(bin) +
                                " explore-joint --trace-instr=" + instr_path +
                                " --trace-data=" + data_path +
                                " --space=small --format=json --jobs=" +
                                jobs + " --json=" + bench_path + " > " +
                                stdout_path;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
    return std::make_pair(ReadWholeFile(stdout_path),
                          ReadWholeFile(bench_path));
  };
  const auto [report1, bench1] = run("1", "_j1");
  const auto [report8, bench8] = run("8", "_j8");

  // The ces-joint-v1 report is byte-identical for every --jobs value.
  EXPECT_EQ(report1, report8);
  EXPECT_EQ(bench1, bench8);

  const ces::testjson::JsonValidator report(report1);
  EXPECT_TRUE(report.Valid()) << report.error();
  EXPECT_EQ(report1.find("{\"schema\":\"ces-joint-v1\""), 0u);
  EXPECT_NE(report1.find("\"front\":["), std::string::npos);
  EXPECT_NE(report1.find("\"pruned_configs\":"), std::string::npos);

  const ces::testjson::JsonValidator bench(bench1);
  EXPECT_TRUE(bench.Valid()) << bench.error();
  EXPECT_EQ(bench1.find("{\"schema\":\"ces-bench-v1\""), 0u);
  for (const char* needle :
       {"\"bench\":\"explore-joint\"", "\"evaluated_configs\":",
        "\"pruned_configs\":", "\"front_size\":"}) {
    EXPECT_NE(bench1.find(needle), std::string::npos) << needle;
  }
}

// There is no compile subcommand (every workload is MR32 assembly), so the
// CLI must reject it as an unknown command: usage error, exit code 2.
TEST(CachedseCli, CompileSubcommandIsAUsageError) {
  const char* bin = std::getenv("CACHEDSE_BIN");
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "CACHEDSE_BIN not set (run under ctest)";
  }
  const std::string dir = ::testing::TempDir();
  const std::string source_path = dir + "/one_line.mc";
  std::ofstream(source_path) << "int main() { return 0; }\n";
  const std::string command = std::string(bin) + " compile --source=" +
                              source_path + " > " + dir +
                              "/compile.out 2>&1";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status)) << command;
  EXPECT_EQ(WEXITSTATUS(status), 2) << command;
}

TEST(CsvExport, OptimalTableHasHeaderAndAllRows) {
  const ces::analytic::Explorer explorer(ces::trace::PaperExampleTrace());
  const ces::explore::OptimalTable table =
      ces::explore::BuildOptimalTable("paper", "data", explorer);
  const std::string csv = ces::explore::OptimalTableToCsv(table);
  EXPECT_NE(csv.find("benchmark,kind,depth,assoc_at_5%"), std::string::npos);
  // header + one line per depth
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(csv.begin(), csv.end(), '\n')),
            table.depths.size() + 1);
  EXPECT_NE(csv.find("paper,data,16,"), std::string::npos);
}

}  // namespace
