#include "service/scheduler.hpp"

#include <utility>
#include <vector>

#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace_event.hpp"

namespace ces::service {

namespace {

using support::Error;
using support::ErrorCategory;

analytic::Engine EngineFromName(const std::string& name) {
  if (name == "reference") return analytic::Engine::kReference;
  return analytic::Engine::kFused;
}

// The joint interleaver needs materialised reference vectors; spill-backed
// entries (streaming uploads) materialise on demand with one sequential
// pass. Single-trace explores never pay this — their prelude streams.
std::shared_ptr<const trace::Trace> MaterializedOf(const PinnedTrace& pinned) {
  if (pinned.trace != nullptr) return pinned.trace;
  return std::make_shared<const trace::Trace>(
      trace::MaterializeTrace(*pinned.view));
}

// K resolution must match cachedse's CmdExplore expression exactly — the
// acceptance bar is byte-identical output for fraction queries.
std::uint64_t ResolveK(const protocol::Request& request,
                       const trace::TraceStats& stats) {
  if (request.has_k) return request.k;
  return static_cast<std::uint64_t>(
      request.fraction * static_cast<double>(stats.max_misses));
}

}  // namespace

JobScheduler::JobScheduler(TraceStore& store, ResultCache& cache,
                           Options options, support::MetricsRegistry* metrics)
    : store_(store),
      cache_(cache),
      options_(options),
      metrics_(metrics),
      pool_(options.jobs, metrics) {
  dispatcher_ = std::thread([this] { Loop(); });
}

JobScheduler::~JobScheduler() { Drain(); }

void JobScheduler::Submit(protocol::Request request, Responder done) {
  support::MetricsRegistry::Add(metrics_, "service.requests");
  Job job;
  job.enqueued = std::chrono::steady_clock::now();
  if (request.deadline_ms > 0) {
    job.deadline =
        job.enqueued + std::chrono::milliseconds(request.deadline_ms);
    job.has_deadline = true;
  }
  job.request = std::move(request);
  job.done = std::move(done);

  std::string shed_code;
  std::string shed_message;
  std::uint64_t shed_retry_ms = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) {
      shed_code = protocol::kCodeShuttingDown;
      shed_message = "server is draining";
    } else if (queue_.size() >= options_.queue_limit) {
      shed_code = protocol::kCodeOverloaded;
      shed_message = "admission queue full (" +
                     std::to_string(options_.queue_limit) + " requests)";
      shed_retry_ms = options_.retry_after_ms;
    } else {
      queue_.push_back(std::move(job));
      support::MetricsRegistry::SetGauge(metrics_, "service.queue.depth",
                                         queue_.size());
    }
  }
  if (shed_code.empty()) {
    cv_.notify_one();
    return;
  }
  support::MetricsRegistry::Add(metrics_, "service.queue.shed");
  Fail(job, shed_code, shed_message, shed_retry_ms, "shed");
}

void JobScheduler::Drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void JobScheduler::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobScheduler::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t JobScheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

bool JobScheduler::draining() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return draining_;
}

void JobScheduler::Loop() {
  support::TraceSink* sink = support::TraceSink::Global();
  if (sink != nullptr) sink->NameThisThread("service dispatcher");
  for (;;) {
    std::deque<Job> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] {
        return draining_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      batch.swap(queue_);
      support::MetricsRegistry::SetGauge(metrics_, "service.queue.depth", 0);
    }
    support::MetricsRegistry::ObserveHistogram(
        metrics_, "service.batch.requests", batch.size());
    const auto now = std::chrono::steady_clock::now();
    for (Job& job : batch) {
      job.dequeued = now;
      job.dispatched = true;
    }
    ExecuteBatch(std::move(batch));
  }
}

void JobScheduler::Respond(Job& job, const std::string& response) {
  if (!job.done) return;
  const auto now = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(now - job.enqueued).count();
  support::MetricsRegistry::Observe(metrics_, "service.request", seconds);
  const auto total_us = static_cast<std::uint64_t>(seconds * 1e6);
  // Queue wait vs execute split: a job that never reached the dispatcher
  // (shed, draining) spent its whole life queued.
  std::uint64_t queue_us = total_us;
  std::uint64_t exec_us = 0;
  if (job.dispatched) {
    queue_us = static_cast<std::uint64_t>(
        std::chrono::duration<double>(job.dequeued - job.enqueued).count() *
        1e6);
    if (queue_us > total_us) queue_us = total_us;
    exec_us = total_us - queue_us;
  }
  // Latency distributions are wall-clock facts — volatile histograms, so
  // the deterministic metrics surface stays byte-identical across runs.
  support::MetricsRegistry::ObserveVolatileHistogram(
      metrics_, "service.request.latency_us", total_us);
  support::MetricsRegistry::ObserveVolatileHistogram(
      metrics_, "service.request.queue_us", queue_us);
  support::MetricsRegistry::ObserveVolatileHistogram(
      metrics_, "service.request.exec_us", exec_us);
  if (options_.request_log != nullptr) {
    support::RequestLogEntry entry;
    entry.ts_us = options_.request_log->NowUs();
    entry.rid = job.request.rid;
    entry.id = job.request.id;
    entry.op = protocol::ToString(job.request.op);
    entry.trace = job.request.trace;
    entry.digest = job.digest;
    entry.outcome = job.outcome.empty() ? "computed" : job.outcome;
    entry.error = job.error_code;
    entry.queue_us = queue_us;
    entry.exec_us = exec_us;
    entry.total_us = total_us;
    entry.bytes = response.size();
    options_.request_log->Write(entry);
  }
  Responder done = std::move(job.done);
  job.done = nullptr;
  done(response);
}

void JobScheduler::Fail(Job& job, const std::string& code,
                        const std::string& message,
                        std::uint64_t retry_after_ms, const char* outcome) {
  job.outcome = outcome;
  job.error_code = code;
  Respond(job, protocol::ErrorResponse(job.request.id, code, message,
                                       retry_after_ms, job.request.rid));
}

bool JobScheduler::FailIfExpired(Job& job,
                                 std::chrono::steady_clock::time_point now,
                                 const char* message) {
  if (!job.has_deadline || now <= job.deadline) return false;
  support::MetricsRegistry::Add(metrics_, "service.deadline_exceeded");
  Fail(job, protocol::kCodeDeadlineExceeded, message, 0, "deadline");
  return true;
}

JobScheduler::ResolvedTrace JobScheduler::Resolve(
    const protocol::Request& request, bool force_ingest) {
  ResolvedTrace resolved;
  try {
    if (!request.digest.empty()) {
      resolved.pinned = store_.Find(request.digest);
      if (!resolved.pinned.pinned()) {
        resolved.failed = true;
        resolved.code = support::ToString(ErrorCategory::kValidation);
        resolved.message = "unknown digest " + request.digest +
                           " (evicted or never ingested; re-ingest by path)";
      }
      return resolved;
    }
    const std::string memo_key = request.trace + '\0' + request.kind;
    if (!force_ingest) {
      std::string digest;
      {
        std::lock_guard<std::mutex> lock(memo_mutex_);
        auto it = path_digest_.find(memo_key);
        if (it != path_digest_.end()) digest = it->second;
      }
      if (!digest.empty()) {
        resolved.pinned = store_.Find(digest);
        if (resolved.pinned.pinned()) return resolved;
        // Evicted since memoised: fall through to a fresh load.
      }
    }
    resolved.pinned =
        store_.Ingest(LoadTraceRef(request.trace, request.kind, metrics_));
    {
      std::lock_guard<std::mutex> lock(memo_mutex_);
      path_digest_[memo_key] = resolved.pinned.digest;
    }
  } catch (const Error& e) {
    resolved.failed = true;
    resolved.code = support::ToString(e.category());
    resolved.message = e.what();
  } catch (const std::exception& e) {
    resolved.failed = true;
    resolved.code = support::ToString(ErrorCategory::kInternal);
    resolved.message = e.what();
  }
  return resolved;
}

void JobScheduler::HandleUpload(Job& job) {
  const protocol::Request& request = job.request;
  try {
    switch (request.op) {
      case Op::kTraceBegin: {
        const trace::StreamKind kind = request.kind == "instr"
                                           ? trace::StreamKind::kInstruction
                                           : trace::StreamKind::kData;
        const std::string token = store_.BeginUpload(
            kind, request.address_bits, request.count, request.name);
        Respond(job, protocol::TraceBeginResponse(request.id, token,
                                                  request.count, request.rid));
        break;
      }
      case Op::kTraceChunk: {
        const std::vector<std::uint32_t> refs =
            protocol::DecodeChunkPayload(request.encoding, request.payload);
        const std::uint64_t received = store_.AppendUploadChunk(
            request.upload, request.seq, refs.data(), refs.size());
        Respond(job, protocol::TraceChunkResponse(request.id, request.upload,
                                                  request.seq, received,
                                                  request.rid));
        break;
      }
      default: {
        const PinnedTrace pinned = store_.FinishUpload(request.upload);
        job.digest = pinned.digest;
        Respond(job, protocol::TraceEndResponse(request.id, pinned.digest,
                                                pinned.stats, request.rid));
        break;
      }
    }
  } catch (const Error& e) {
    Fail(job, support::ToString(e.category()), e.what());
  } catch (const std::exception& e) {
    Fail(job, support::ToString(ErrorCategory::kInternal), e.what());
  }
}

void JobScheduler::ExecuteBatch(std::deque<Job> batch) {
  support::ScopedTraceSpan batch_span("service.batch");
  const auto now = std::chrono::steady_clock::now();

  // One resolution per distinct trace reference in the gulp.
  std::unordered_map<std::string, ResolvedTrace> resolved;
  struct Group {
    std::string digest;
    analytic::ExplorerOptions options;
    std::string engine_name;
    std::vector<Job*> jobs;
  };
  std::vector<Group> groups;
  std::unordered_map<std::string, std::size_t> group_index;
  // Joint requests group on (data digest, instr digest, space, prune): one
  // ExploreJoint run answers every request in the group.
  struct JointGroup {
    std::string digest;        // data stream
    std::string digest_instr;  // instruction stream
    std::shared_ptr<const trace::Trace> data;
    std::shared_ptr<const trace::Trace> instr;
    std::string space_name;
    bool prune = true;
    std::vector<Job*> jobs;
  };
  std::vector<JointGroup> joint_groups;
  std::unordered_map<std::string, std::size_t> joint_group_index;

  for (Job& job : batch) {
    if (FailIfExpired(job, now, "deadline passed while queued")) continue;
    const protocol::Request& request = job.request;
    if (request.op == Op::kTraceBegin || request.op == Op::kTraceChunk ||
        request.op == Op::kTraceEnd) {
      // Upload ops carry no trace reference to resolve; they are pure
      // (ordered) store calls and must stay in batch order so the strict
      // chunk sequencing observed by the store matches the client's.
      HandleUpload(job);
      continue;
    }
    const bool force_ingest = request.op == Op::kIngest;
    const std::string resolve_key = request.digest.empty()
                                        ? "ref:" + request.trace + '\0' +
                                              request.kind
                                        : "digest:" + request.digest;
    auto it = resolved.find(resolve_key);
    if (it == resolved.end() || force_ingest) {
      it = resolved.insert_or_assign(resolve_key,
                                     Resolve(request, force_ingest))
               .first;
    }
    const ResolvedTrace& trace = it->second;
    if (trace.failed) {
      Fail(job, trace.code, trace.message);
      continue;
    }
    job.digest = trace.pinned.digest;
    switch (request.op) {
      case Op::kIngest:
        Respond(job, protocol::IngestResponse(
                         request.id, trace.pinned.digest,
                         trace.pinned.stats, request.rid));
        break;
      case Op::kStats:
        Respond(job, protocol::StatsResponse(
                         request.id, trace.pinned.digest,
                         trace.pinned.stats,
                         trace::ToString(trace.pinned.kind),
                         request.rid));
        break;
      case Op::kExplore: {
        const std::string key = trace.pinned.digest + '|' + request.engine +
                                '|' + std::to_string(request.line_words) +
                                '|' + std::to_string(request.max_index_bits);
        auto [pos, inserted] = group_index.try_emplace(key, groups.size());
        if (inserted) {
          Group group;
          group.digest = trace.pinned.digest;
          group.engine_name = request.engine;
          group.options.engine = EngineFromName(request.engine);
          group.options.line_words = request.line_words;
          group.options.max_index_bits = request.max_index_bits;
          group.options.jobs = pool_.jobs();
          groups.push_back(std::move(group));
        }
        groups[pos->second].jobs.push_back(&job);
        break;
      }
      case Op::kExploreJoint: {
        // The loop above resolved the data stream (trace/digest, kind
        // "data"); the instruction stream resolves through the same
        // memoisation under its own key.
        protocol::Request instr_request = request;
        instr_request.trace = request.trace_instr;
        instr_request.digest = request.digest_instr;
        instr_request.kind = "instr";
        const std::string instr_key =
            instr_request.digest.empty()
                ? "ref:" + instr_request.trace + '\0' + instr_request.kind
                : "digest:" + instr_request.digest;
        auto instr_it = resolved.find(instr_key);
        if (instr_it == resolved.end()) {
          instr_it = resolved
                         .insert_or_assign(instr_key,
                                           Resolve(instr_request, false))
                         .first;
        }
        const ResolvedTrace& instr_trace = instr_it->second;
        if (instr_trace.failed) {
          Fail(job, instr_trace.code, instr_trace.message);
          break;
        }
        const std::string key = trace.pinned.digest + '|' +
                                instr_trace.pinned.digest + '|' +
                                request.space + '|' +
                                (request.prune ? "1" : "0");
        auto [pos, inserted] =
            joint_group_index.try_emplace(key, joint_groups.size());
        if (inserted) {
          JointGroup group;
          group.digest = trace.pinned.digest;
          group.digest_instr = instr_trace.pinned.digest;
          group.data = MaterializedOf(trace.pinned);
          group.instr = MaterializedOf(instr_trace.pinned);
          group.space_name = request.space;
          group.prune = request.prune;
          joint_groups.push_back(std::move(group));
        }
        joint_groups[pos->second].jobs.push_back(&job);
        break;
      }
      default:
        // ping/metrics/shutdown/stats(server)/health are routed inline by
        // the service; reaching the scheduler with one is a programming
        // error upstream.
        Fail(job, support::ToString(ErrorCategory::kInternal),
             "operation cannot be scheduled");
        break;
    }
  }

  for (Group& group : groups) {
    // Explicit-K requests that are already cached never need the prelude —
    // answer them first and only build for what remains.
    std::vector<Job*> remaining;
    remaining.reserve(group.jobs.size());
    for (Job* job : group.jobs) {
      if (job->request.has_k) {
        ResultKey key{group.digest,
                      static_cast<std::uint8_t>(group.options.engine),
                      group.options.line_words, group.options.max_index_bits,
                      job->request.k};
        if (auto hit = cache_.Lookup(key)) {
          job->outcome = "cache_hit";
          Respond(*job, protocol::ExploreResponse(
                            job->request.id, group.digest, group.engine_name,
                            hit->k, hit->stats, hit->points, true,
                            job->request.rid));
          continue;
        }
      }
      remaining.push_back(job);
    }
    if (remaining.empty()) continue;

    std::shared_ptr<const analytic::Explorer> explorer;
    bool prelude_reused = false;
    try {
      explorer = store_.GetOrBuildExplorer(group.digest, group.options,
                                           &prelude_reused);
    } catch (const Error& e) {
      for (Job* job : remaining) {
        Fail(*job, support::ToString(e.category()), e.what());
      }
      continue;
    } catch (const std::exception& e) {
      for (Job* job : remaining) {
        Fail(*job, support::ToString(ErrorCategory::kInternal),
             e.what());
      }
      continue;
    }

    // Per-request fan-out: every remaining request is one cheap histogram
    // query against the shared prelude.
    pool_.ParallelFor(remaining.size(), [&](std::size_t i) {
      Job& job = *remaining[i];
      try {
        support::ScopedTraceSpan solve_span("service.solve");
        if (FailIfExpired(job, std::chrono::steady_clock::now(),
                          "deadline passed before solve")) {
          return;
        }
        const std::uint64_t k = ResolveK(job.request, explorer->stats());
        ResultKey key{group.digest,
                      static_cast<std::uint8_t>(group.options.engine),
                      group.options.line_words, group.options.max_index_bits,
                      k};
        // Fraction requests do their single cache probe here, after K
        // resolution; explicit-K misses were already counted above, so
        // skip a second probe for them.
        if (!job.request.has_k) {
          if (auto hit = cache_.Lookup(key)) {
            job.outcome = "cache_hit";
            Respond(job, protocol::ExploreResponse(
                             job.request.id, group.digest, group.engine_name,
                             hit->k, hit->stats, hit->points, true,
                             job.request.rid));
            return;
          }
        }
        const analytic::ExplorationResult result = explorer->Solve(k);
        auto value = std::make_shared<CachedResult>();
        value->stats = explorer->stats();
        value->k = k;
        value->points = result.points;
        cache_.Insert(key, value);
        // "prelude_reused" marks the whole group as riding an already-built
        // prelude — one fused pass amortised over every rid in the group.
        if (prelude_reused) job.outcome = "prelude_reused";
        Respond(job, protocol::ExploreResponse(
                         job.request.id, group.digest,
                         group.engine_name, k, value->stats,
                         value->points, false, job.request.rid));
      } catch (const Error& e) {
        Fail(job, support::ToString(e.category()), e.what());
      } catch (const std::exception& e) {
        Fail(job, support::ToString(ErrorCategory::kInternal), e.what());
      }
    });
  }

  for (JointGroup& group : joint_groups) {
    const ResultKey key{group.digest, /*engine=*/
                        static_cast<std::uint8_t>(analytic::Engine::kFused),
                        /*line_words=*/0, /*max_index_bits=*/0, /*k=*/0,
                        group.digest_instr,
                        "joint|" + group.space_name + "|prune=" +
                            (group.prune ? "1" : "0")};
    std::string payload;
    bool cached = false;
    if (auto hit = cache_.Lookup(key)) {
      payload = hit->payload;
      cached = true;
    } else {
      // Everything already past its deadline is answered without paying for
      // the joint run; if nothing is left, skip the run entirely.
      std::vector<Job*> remaining;
      remaining.reserve(group.jobs.size());
      for (Job* job : group.jobs) {
        if (!FailIfExpired(*job, std::chrono::steady_clock::now(),
                           "deadline passed before joint exploration")) {
          remaining.push_back(job);
        }
      }
      group.jobs = std::move(remaining);
      if (group.jobs.empty()) continue;
      try {
        support::ScopedTraceSpan joint_span("service.explore_joint");
        const trace::AccessSequence accesses =
            explore::InterleaveProportional(*group.instr, *group.data);
        explore::JointOptions options;
        options.prune = group.prune;
        options.jobs = pool_.jobs();
        options.metrics = metrics_;
        const explore::JointResult result = ExploreJoint(
            accesses, explore::JointSpaceByName(group.space_name), options);
        payload = explore::JointReportJson(
            result, explore::JointSpaceByName(group.space_name));
        auto value = std::make_shared<CachedResult>();
        value->payload = payload;
        cache_.Insert(key, value);
      } catch (const Error& e) {
        for (Job* job : group.jobs) {
          Fail(*job, support::ToString(e.category()), e.what());
        }
        continue;
      } catch (const std::exception& e) {
        for (Job* job : group.jobs) {
          Fail(*job, support::ToString(ErrorCategory::kInternal),
               e.what());
        }
        continue;
      }
    }
    for (Job* job : group.jobs) {
      if (cached) job->outcome = "cache_hit";
      Respond(*job, protocol::ExploreJointResponse(
                        job->request.id, group.digest,
                        group.digest_instr, "fused",
                        group.space_name, group.prune, cached,
                        payload, job->request.rid));
    }
  }
}

}  // namespace ces::service
