// Batching job scheduler for the exploration daemon.
//
// Requests are admitted into one bounded queue; a dispatcher thread drains
// the queue in gulps and turns each gulp into the minimum amount of heavy
// work: all requests naming the same (trace, engine, line size, depth range)
// share one trace resolution and one pinned prelude (built once via
// TraceStore, so a burst of a thousand same-trace queries costs one fused
// explorer pass), then fan out per-request across the thread pool where each
// request is answered from the ResultCache or by one cheap Solve.
//
// Policy, in the order a request meets it (tests pin each step):
//  * bounded admission — a full queue sheds immediately with "overloaded"
//    and a retry_after_ms hint instead of growing the backlog;
//  * per-request deadlines — checked when the gulp is dequeued and again
//    before each solve or joint run, so expired work is answered without
//    compute;
//  * graceful drain — Drain() stops admission ("shutting_down") but every
//    already-admitted request is still answered before Drain returns.
//
// Every request is answered exactly once via its responder, from the
// dispatcher or a pool worker (sheds respond on the submitting thread), so
// the transport must tolerate concurrent responders. Answering also records
// the latency metrics and the request-log line.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/trace_store.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/pool.hpp"

namespace ces::service {

class JobScheduler {
 public:
  struct Options {
    unsigned jobs = 0;                  // 0 = hardware concurrency
    std::size_t queue_limit = 256;      // admission bound (jobs, not bytes)
    std::uint64_t retry_after_ms = 100; // shed hint for clients
    // One structured line per finished request (see support/log.hpp);
    // nullptr disables request logging.
    support::RequestLog* request_log = nullptr;
  };
  using Responder = std::function<void(std::string)>;

  JobScheduler(TraceStore& store, ResultCache& cache, Options options,
               support::MetricsRegistry* metrics = nullptr);
  ~JobScheduler();  // implies Drain()

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  // Enqueues an explore/stats/ingest request. Responds exactly once —
  // inline on the calling thread when shed or draining, from a scheduler
  // thread otherwise. Ping/metrics/shutdown never reach the scheduler; the
  // service answers those inline.
  void Submit(protocol::Request request, Responder done);

  // Stops admission, answers everything already queued, and joins the
  // dispatcher thread. Idempotent.
  void Drain();

  // Test/ops hook: a paused dispatcher admits but does not process, which
  // makes queue-full shedding and deadline expiry deterministic to observe.
  void Pause();
  void Resume();

  std::size_t queue_depth() const;
  bool draining() const;
  // The pool's worker count (the resolved `jobs` option).
  unsigned jobs() const { return pool_.jobs(); }

 private:
  // One admitted request plus the bookkeeping Respond()/Fail() turn into
  // metrics and a request-log line.
  struct Job {
    protocol::Request request;
    Responder done;
    std::chrono::steady_clock::time_point enqueued;
    // Set when the dispatcher's gulp picks the job up; sheds never get one,
    // so their whole latency is queue time.
    std::chrono::steady_clock::time_point dequeued;
    bool dispatched = false;
    std::chrono::steady_clock::time_point deadline;  // valid if has_deadline
    bool has_deadline = false;
    // Request-log attribution, filled in as the job progresses.
    std::string digest;      // resolved content digest, when known
    std::string outcome;     // see RequestLogEntry; "" logs as "computed"
    std::string error_code;  // error/shed code, "" on success
  };

  struct ResolvedTrace {
    PinnedTrace pinned;
    bool failed = false;
    std::string code;
    std::string message;
  };

  // The dispatcher thread: waits for a gulp and hands it to ExecuteBatch.
  void Loop();
  // The dequeued gulp, grouped and fanned out. Every job is answered before
  // it returns.
  void ExecuteBatch(std::deque<Job> batch);
  // trace-begin/chunk/end: pure TraceStore calls, answered inline in batch
  // order (chunk sequencing relies on it).
  void HandleUpload(Job& job);
  ResolvedTrace Resolve(const protocol::Request& request, bool force_ingest);

  // Answers the job exactly once: latency metrics, the request-log line,
  // then the responder. Safe from any thread; a job without a responder
  // (already answered) is a no-op.
  void Respond(Job& job, const std::string& response);
  // Marks the job failed (outcome + error code for the log) and responds
  // with the matching error line. `outcome` defaults to "error"; shed and
  // deadline paths pass their own.
  void Fail(Job& job, const std::string& code, const std::string& message,
            std::uint64_t retry_after_ms = 0, const char* outcome = "error");
  // Answers the job with deadline_exceeded if its deadline has passed.
  bool FailIfExpired(Job& job, std::chrono::steady_clock::time_point now,
                     const char* message);

  TraceStore& store_;
  ResultCache& cache_;
  const Options options_;
  support::MetricsRegistry* metrics_;
  support::ThreadPool pool_;

  std::mutex memo_mutex_;
  // (trace ref + '\0' + kind) -> digest; lets repeat by-path requests skip
  // re-reading the file. An explicit ingest op refreshes the mapping.
  std::unordered_map<std::string, std::string> path_digest_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool draining_ = false;
  bool paused_ = false;

  // Started last in the constructor: its thread calls ExecuteBatch, so
  // everything above must already be constructed.
  std::thread dispatcher_;
};

}  // namespace ces::service
