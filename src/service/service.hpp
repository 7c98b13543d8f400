// The exploration service: request routing over the pinned-state machinery.
//
// ExplorationService is the transport-free core of the daemon — a line goes
// in, exactly one response line comes out through the responder, and nothing
// a client sends can make it throw (malformed requests become structured
// error responses; tests/fuzz_test.cpp feeds this surface the mutation
// harness). The socket front end (service/server.hpp) and the in-process
// tests drive the very same object, so every protocol behaviour is testable
// without a socket.
//
// Routing: ping, metrics and shutdown are answered inline on the calling
// thread (they must work when the scheduler is saturated — a health probe
// that queues behind the backlog it is probing would be useless); explore,
// stats, ingest and the streaming-upload ops (trace-begin/chunk/end) go
// through the JobScheduler's bounded queue.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/result_cache.hpp"
#include "service/scheduler.hpp"
#include "service/trace_store.hpp"
#include "support/log.hpp"

namespace ces::service {

class ExplorationService {
 public:
  struct Options {
    unsigned jobs = 0;                   // 0 = hardware concurrency
    std::size_t cache_bytes = 64u << 20; // result-cache budget
    std::size_t cache_shards = 8;
    std::size_t queue_limit = 256;
    std::size_t max_traces = 64;
    std::uint64_t retry_after_ms = 100;
    // Where streaming uploads spill to disk; empty = a per-process
    // directory under the system temp path.
    std::string spill_dir;
    support::MetricsRegistry* metrics = nullptr;
    // One structured NDJSON line per finished request (support/log.hpp);
    // nullptr disables request logging.
    support::RequestLog* request_log = nullptr;
    // Invoked (after the response is sent) when a client issues the
    // shutdown op. Unset = shutdown op is rejected as unsupported.
    std::function<void()> on_shutdown_request;
  };

  using Responder = JobScheduler::Responder;

  explicit ExplorationService(Options options);
  ~ExplorationService();  // implies Drain()

  // Routes one NDJSON request line. Never throws; `done` is invoked exactly
  // once (inline or from a scheduler thread) with the response line, no
  // trailing newline.
  void Handle(const std::string& line, Responder done);

  // Stops admission and answers everything already queued.
  void Drain();

  TraceStore& store() { return store_; }
  ResultCache& cache() { return cache_; }
  JobScheduler& scheduler() { return *scheduler_; }

  // The live snapshot behind the `stats` (server form) and `health` ops;
  // also what the --prometheus dump and ops tooling read.
  protocol::ServerInfo Snapshot() const;

 private:
  // Stamps the next server-assigned request id ("r1", "r2", ...).
  std::string NextRid();
  // Logs an inline-answered (never queued) request or an unparseable line.
  void LogInline(const std::string& rid, const std::string& id,
                 const char* op, const char* outcome,
                 const std::string& error_code, std::uint64_t start_us,
                 std::size_t response_bytes);

  Options options_;
  TraceStore store_;
  ResultCache cache_;
  std::unique_ptr<JobScheduler> scheduler_;
  std::atomic<std::uint64_t> rid_counter_{0};
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace ces::service
