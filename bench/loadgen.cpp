// loadgen — load-replay latency scoreboard for a live cachedse-server.
//
//   loadgen (--socket=PATH | --port=N [--host=127.0.0.1]) [flags]
//
//   --clients=4        concurrent client threads, each on its own connection
//   --requests=32      measured (warm-phase) requests per client
//   --traces=6         distinct synthetic traces uploaded during setup
//   --refs=20000       references per synthetic trace
//   --fraction=0.05    explore population's K fraction
//   --joint-every=0    every Nth warm request is an explore-joint (0 = none)
//   --stats-every=8    every Nth warm request is a server `stats` probe
//   --seed=1           synthetic-trace and population shuffle seed
//   --timeout-ms=30000 per-attempt client timeout
//   --json=PATH        ces-bench-v1 scoreboard (see docs/OBSERVABILITY.md)
//   --jobs=N           recorded in the ces-bench-v1 meta block (provenance
//                      only: pass the server's --jobs so the artifact says
//                      what it measured)
//
// Three phases against the daemon:
//   setup  — streams `--traces` synthetic traces in via trace-begin/chunk/
//            trace-end (so the generator works across machines, no shared
//            filesystem needed) and records their digests;
//   cold   — one explore per trace, by digest: every one is a genuine
//            compute, so the warm phase replays against a populated cache;
//   warm   — the measured mixed population: explore replays (result-cache
//            hits), explore-joint pairs and server `stats` probes, shuffled
//            per client, one request at a time per thread so each sample is
//            an end-to-end request latency.
//
// Warm-phase clients run with retry_sheds=false and max_attempts=1: a shed
// is an answer to be counted, not retried away — this is what makes the
// shed-rate number honest. Exact percentiles come from sorting the full
// latency sample, not from histogram buckets.
//
// Scoreboard counters (all integers): requests_total, ok_total, shed_total,
// protocol_error_total, explore_total, explore_hit_total, hit_ratio_ppm,
// shed_rate_ppm, p50_us, p90_us, p99_us, max_us, throughput_rps_milli.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace {

using ces::service::Client;
using ces::service::ClientOptions;
using ces::service::Response;

int Usage() {
  std::fprintf(
      stderr,
      "usage: loadgen (--socket=PATH | --port=N [--host=127.0.0.1])\n"
      "  [--clients=4] [--requests=32] [--traces=6] [--refs=20000]\n"
      "  [--fraction=0.05] [--joint-every=0] [--stats-every=8] [--seed=1]\n"
      "  [--timeout-ms=30000] [--json=PATH] [--jobs=N]\n");
  return 2;
}

ClientOptions EndpointOptions(const ces::ArgParser& args) {
  ClientOptions options;
  options.unix_path = args.GetString("socket", "");
  options.host = args.GetString("host", "127.0.0.1");
  options.tcp_port =
      args.Has("port") ? static_cast<int>(args.GetInt("port", 0)) : -1;
  options.timeout_ms = static_cast<int>(args.GetInt("timeout-ms", 30'000));
  return options;
}

// The synthetic population: four access-pattern families cycled over the
// trace index so digests (and therefore server-side work) are all distinct.
ces::trace::Trace MakeTrace(std::size_t index, std::uint32_t refs,
                            std::uint64_t seed, ces::trace::StreamKind kind) {
  const auto n = static_cast<std::uint32_t>(index);
  ces::trace::Trace trace;
  switch (index % 4) {
    case 0:
      trace = ces::trace::SequentialLoop(n * 4096, 64 + 8 * n,
                                         std::max<std::uint32_t>(refs / (64 + 8 * n), 1));
      break;
    case 1:
      trace = ces::trace::StridedSweep(n * 4096, 16 + n, 128,
                                       std::max<std::uint32_t>(refs / 128, 1));
      break;
    case 2: {
      ces::Rng rng(seed * 977 + index);
      trace = ces::trace::RandomWorkingSet(rng, 256 + 32 * n, refs, n * 4096);
      break;
    }
    default: {
      ces::Rng rng(seed * 1409 + index);
      trace = ces::trace::LocalityMix(rng, 128 + 16 * n, 4096, refs);
      break;
    }
  }
  trace.kind = kind;
  trace.name = "loadgen-" + std::to_string(index);
  return trace;
}

// Streams one trace in over the chunked-upload ops and returns its digest.
// Uses the reliable (retrying) client: setup failures are fatal, not data.
std::string UploadTrace(Client& client, const ces::trace::Trace& trace,
                        const char* kind) {
  std::string begin =
      "{\"id\":\"begin\",\"op\":\"trace-begin\",\"count\":" +
      std::to_string(trace.refs.size()) +
      ",\"kind\":" + ces::support::JsonQuote(kind) +
      ",\"address_bits\":" + std::to_string(trace.address_bits) +
      ",\"name\":" + ces::support::JsonQuote(trace.name) + "}";
  Response response = client.Request(begin);
  if (!response.ok) {
    throw ces::support::Error(ces::support::ErrorCategory::kIo, "loadgen",
                              "trace-begin failed: " + response.error_message);
  }
  const std::string token = response.upload;

  constexpr std::size_t kChunkRefs = 16'384;
  const std::size_t total_chunks =
      trace.refs.empty() ? 0 : (trace.refs.size() + kChunkRefs - 1) / kChunkRefs;
  std::vector<std::string> lines;
  for (std::size_t seq = 0; seq < total_chunks; ++seq) {
    const std::size_t offset = seq * kChunkRefs;
    const std::size_t n = std::min(kChunkRefs, trace.refs.size() - offset);
    lines.push_back(
        "{\"id\":\"chunk-" + std::to_string(seq) +
        "\",\"op\":\"trace-chunk\",\"upload\":" +
        ces::support::JsonQuote(token) + ",\"seq\":" + std::to_string(seq) +
        ",\"encoding\":\"hex\",\"payload\":" +
        ces::support::JsonQuote(ces::service::protocol::EncodeChunkPayload(
            "hex", trace.refs.data() + offset, n)) +
        "}");
  }
  for (const Response& chunk : client.Batch(lines)) {
    if (!chunk.ok) {
      throw ces::support::Error(ces::support::ErrorCategory::kIo, "loadgen",
                                "trace-chunk failed: " + chunk.error_message);
    }
  }
  response =
      client.Request("{\"id\":\"end\",\"op\":\"trace-end\",\"upload\":" +
                     ces::support::JsonQuote(token) + "}");
  if (!response.ok) {
    throw ces::support::Error(ces::support::ErrorCategory::kIo, "loadgen",
                              "trace-end failed: " + response.error_message);
  }
  return response.digest;
}

struct PlannedRequest {
  std::string line;
  bool is_explore = false;  // explore or explore-joint: carries `cached`
};

// Per-thread tallies, merged after the join.
struct WorkerResult {
  std::vector<std::uint64_t> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t sheds = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t explores = 0;
  std::uint64_t explore_hits = 0;
};

void RunWorker(const ClientOptions& endpoint,
               const std::vector<PlannedRequest>& plan, WorkerResult& out) {
  // One attempt, sheds are answers: the scoreboard counts them instead of
  // hiding them inside the retry loop.
  ClientOptions options = endpoint;
  options.max_attempts = 1;
  options.retry_sheds = false;
  Client client(options);
  out.latencies_us.reserve(plan.size());
  for (const PlannedRequest& planned : plan) {
    const auto start = std::chrono::steady_clock::now();
    Response response;
    try {
      response = client.Request(planned.line);
    } catch (const ces::support::Error&) {
      ++out.protocol_errors;  // transport failure mid-measurement
      continue;
    }
    const auto micros =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count();
    out.latencies_us.push_back(static_cast<std::uint64_t>(micros));
    if (response.ok) {
      ++out.ok;
      if (planned.is_explore) {
        ++out.explores;
        if (response.cached) ++out.explore_hits;
      }
    } else if (response.error_code ==
               ces::service::protocol::kCodeOverloaded) {
      ++out.sheds;
    } else {
      ++out.protocol_errors;
    }
  }
}

std::uint64_t PercentileUs(const std::vector<std::uint64_t>& sorted,
                           double q) {
  if (sorted.empty()) return 0;
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size()) + 0.999999);
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

}  // namespace

int main(int argc, char** argv) {
  const ces::ArgParser args(argc, argv);
  if (args.GetString("socket", "").empty() == !args.Has("port")) {
    return Usage();
  }
  const auto clients =
      std::max<std::size_t>(static_cast<std::size_t>(args.GetInt("clients", 4)), 1);
  const auto requests = std::max<std::size_t>(
      static_cast<std::size_t>(args.GetInt("requests", 32)), 1);
  const auto trace_count = std::max<std::size_t>(
      static_cast<std::size_t>(args.GetInt("traces", 6)), 1);
  const auto refs = std::max<std::uint32_t>(
      static_cast<std::uint32_t>(args.GetInt("refs", 20'000)), 256);
  const double fraction = args.GetDouble("fraction", 0.05);
  const auto joint_every =
      static_cast<std::size_t>(args.GetInt("joint-every", 0));
  const auto stats_every =
      static_cast<std::size_t>(args.GetInt("stats-every", 8));
  const auto seed =
      static_cast<std::uint64_t>(args.GetInt("seed", 1));

  const ClientOptions endpoint = EndpointOptions(args);
  ces::bench::BenchReporter reporter("loadgen", args);

  try {
    // ---- setup: upload the population ------------------------------------
    Client setup_client(endpoint);
    std::vector<std::string> digests;        // data-kind, explore targets
    std::vector<std::string> instr_digests;  // instr-kind, joint partners
    for (std::size_t i = 0; i < trace_count; ++i) {
      const ces::trace::Trace trace =
          MakeTrace(i, refs, seed, ces::trace::StreamKind::kData);
      digests.push_back(UploadTrace(setup_client, trace, "data"));
    }
    if (joint_every > 0) {
      for (std::size_t i = 0; i < 2; ++i) {
        const ces::trace::Trace trace =
            MakeTrace(trace_count + i, refs, seed,
                      ces::trace::StreamKind::kInstruction);
        instr_digests.push_back(UploadTrace(setup_client, trace, "instr"));
      }
    }
    std::fprintf(stderr, "[loadgen] uploaded %zu traces\n",
                 digests.size() + instr_digests.size());

    char fraction_buf[32];
    std::snprintf(fraction_buf, sizeof(fraction_buf), "%.17g", fraction);
    const auto explore_line = [&](const std::string& digest,
                                  const std::string& id) {
      return "{\"id\":" + ces::support::JsonQuote(id) +
             ",\"op\":\"explore\",\"digest\":" +
             ces::support::JsonQuote(digest) +
             ",\"engine\":\"fused\",\"fraction\":" + fraction_buf + "}";
    };

    // ---- cold phase: populate the result cache ---------------------------
    {
      std::vector<std::string> cold;
      for (std::size_t i = 0; i < digests.size(); ++i) {
        cold.push_back(explore_line(digests[i], "cold-" + std::to_string(i)));
      }
      for (const Response& response : setup_client.Batch(cold)) {
        if (!response.ok) {
          throw ces::support::Error(ces::support::ErrorCategory::kIo,
                                    "loadgen",
                                    "cold explore failed: " +
                                        response.error_message);
        }
      }
      std::fprintf(stderr, "[loadgen] cold phase done (%zu explores)\n",
                   cold.size());
    }

    // ---- warm phase: the measured replay ---------------------------------
    std::vector<std::vector<PlannedRequest>> plans(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      ces::Rng rng(seed * 7919 + c);
      for (std::size_t r = 0; r < requests; ++r) {
        const std::string id =
            "c" + std::to_string(c) + "-" + std::to_string(r);
        PlannedRequest planned;
        if (stats_every > 0 && r % stats_every == stats_every - 1) {
          planned.line = "{\"id\":" + ces::support::JsonQuote(id) +
                         ",\"op\":\"stats\"}";
        } else if (joint_every > 0 && r % joint_every == joint_every - 1) {
          const std::string& data =
              digests[rng.NextBounded(digests.size())];
          const std::string& instr =
              instr_digests[rng.NextBounded(instr_digests.size())];
          planned.line = "{\"id\":" + ces::support::JsonQuote(id) +
                         ",\"op\":\"explore-joint\",\"digest\":" +
                         ces::support::JsonQuote(data) +
                         ",\"digest_instr\":" +
                         ces::support::JsonQuote(instr) + "}";
          planned.is_explore = true;
        } else {
          planned.line = explore_line(
              digests[rng.NextBounded(digests.size())], id);
          planned.is_explore = true;
        }
        plans[c].push_back(std::move(planned));
      }
    }

    std::vector<WorkerResult> results(clients);
    const auto warm_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back(RunWorker, std::cref(endpoint),
                             std::cref(plans[c]), std::ref(results[c]));
      }
      for (std::thread& thread : threads) thread.join();
    }
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      warm_start)
            .count();

    // ---- scoreboard ------------------------------------------------------
    WorkerResult total;
    for (const WorkerResult& result : results) {
      total.ok += result.ok;
      total.sheds += result.sheds;
      total.protocol_errors += result.protocol_errors;
      total.explores += result.explores;
      total.explore_hits += result.explore_hits;
      total.latencies_us.insert(total.latencies_us.end(),
                                result.latencies_us.begin(),
                                result.latencies_us.end());
    }
    std::sort(total.latencies_us.begin(), total.latencies_us.end());
    const std::uint64_t requests_total = clients * requests;
    const std::uint64_t answered = total.latencies_us.size();
    const std::uint64_t p50 = PercentileUs(total.latencies_us, 0.50);
    const std::uint64_t p90 = PercentileUs(total.latencies_us, 0.90);
    const std::uint64_t p99 = PercentileUs(total.latencies_us, 0.99);
    const std::uint64_t max_us =
        total.latencies_us.empty() ? 0 : total.latencies_us.back();
    const std::uint64_t hit_ratio_ppm =
        total.explores == 0
            ? 0
            : total.explore_hits * 1'000'000 / total.explores;
    const std::uint64_t shed_rate_ppm =
        answered == 0 ? 0 : total.sheds * 1'000'000 / answered;
    const double throughput_rps =
        wall_seconds > 0.0 ? static_cast<double>(answered) / wall_seconds
                           : 0.0;

    std::printf("[loadgen] requests=%llu answered=%llu ok=%llu sheds=%llu "
                "protocol_errors=%llu\n",
                static_cast<unsigned long long>(requests_total),
                static_cast<unsigned long long>(answered),
                static_cast<unsigned long long>(total.ok),
                static_cast<unsigned long long>(total.sheds),
                static_cast<unsigned long long>(total.protocol_errors));
    std::printf("[loadgen] p50_us=%llu p90_us=%llu p99_us=%llu max_us=%llu "
                "throughput_rps=%.1f\n",
                static_cast<unsigned long long>(p50),
                static_cast<unsigned long long>(p90),
                static_cast<unsigned long long>(p99),
                static_cast<unsigned long long>(max_us), throughput_rps);
    std::printf("[loadgen] explores=%llu cache_hits=%llu hit_ratio_ppm=%llu "
                "shed_rate_ppm=%llu\n",
                static_cast<unsigned long long>(total.explores),
                static_cast<unsigned long long>(total.explore_hits),
                static_cast<unsigned long long>(hit_ratio_ppm),
                static_cast<unsigned long long>(shed_rate_ppm));

    reporter.Add(
        "warm_replay",
        {{"clients", std::to_string(clients)},
         {"requests", std::to_string(requests)},
         {"traces", std::to_string(trace_count)},
         {"refs", std::to_string(refs)},
         {"joint_every", std::to_string(joint_every)},
         {"stats_every", std::to_string(stats_every)},
         {"seed", std::to_string(seed)}},
        1, {wall_seconds},
        {{"requests_total", requests_total},
         {"answered_total", answered},
         {"ok_total", total.ok},
         {"shed_total", total.sheds},
         {"protocol_error_total", total.protocol_errors},
         {"explore_total", total.explores},
         {"explore_hit_total", total.explore_hits},
         {"hit_ratio_ppm", hit_ratio_ppm},
         {"shed_rate_ppm", shed_rate_ppm},
         {"p50_us", p50},
         {"p90_us", p90},
         {"p99_us", p99},
         {"max_us", max_us},
         {"throughput_rps_milli",
          static_cast<std::uint64_t>(throughput_rps * 1000.0)}});

    reporter.Write();
  } catch (const ces::support::Error& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return ces::support::ExitCodeFor(e.category());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen: %s\n", e.what());
    return 1;
  }
  return 0;
}
