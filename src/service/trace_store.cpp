#include "service/trace_store.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/sha256.hpp"
#include "support/trace_event.hpp"
#include "trace/dinero.hpp"
#include "trace/trace_io.hpp"
#include "workloads/workloads.hpp"

namespace ces::service {

namespace {

using support::Error;
using support::ErrorCategory;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The canonical digest preamble: what BeginUpload seeds its incremental
// hasher with must be bit-for-bit what DigestOf hashes first, or streamed
// and in-memory ingests of the same content would stop deduplicating.
void HashDigestHeader(support::Sha256& hasher, trace::StreamKind kind,
                      std::uint32_t address_bits, std::uint64_t count) {
  std::uint8_t header[21] = {'C', 'E', 'S', '-', 'T', 'R', '1', 0};
  header[8] = static_cast<std::uint8_t>(kind);
  for (int i = 0; i < 4; ++i) {
    header[9 + i] = static_cast<std::uint8_t>(address_bits >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    header[13 + i] = static_cast<std::uint8_t>(count >> (8 * i));
  }
  hasher.Update(header, sizeof(header));
}

// Packs references little-endian, the shared byte layout of the digest,
// the chunk payloads and the CTRC spill body.
std::size_t PackRefsLe(const std::uint32_t* refs, std::size_t n,
                       std::uint8_t* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i * 4 + 0] = static_cast<std::uint8_t>(refs[i]);
    out[i * 4 + 1] = static_cast<std::uint8_t>(refs[i] >> 8);
    out[i * 4 + 2] = static_cast<std::uint8_t>(refs[i] >> 16);
    out[i * 4 + 3] = static_cast<std::uint8_t>(refs[i] >> 24);
  }
  return n * 4;
}

void WriteU32LeBytes(std::ostream& os, std::uint32_t value) {
  const std::uint8_t bytes[4] = {static_cast<std::uint8_t>(value),
                                 static_cast<std::uint8_t>(value >> 8),
                                 static_cast<std::uint8_t>(value >> 16),
                                 static_cast<std::uint8_t>(value >> 24)};
  os.write(reinterpret_cast<const char*>(bytes), sizeof(bytes));
}

}  // namespace

trace::Trace LoadTraceRef(const std::string& ref, const std::string& kind,
                          support::MetricsRegistry* metrics) {
  support::ScopedTraceSpan span("service.load_trace");
  if (EndsWith(ref, ".din")) {
    std::ifstream is(ref);
    if (!is) {
      throw Error(ErrorCategory::kIo, "dinero", "cannot open " + ref);
    }
    return trace::ReadDinero(is,
                             kind == "instr" ? trace::StreamKind::kInstruction
                                             : trace::StreamKind::kData,
                             metrics);
  }
  // A reference that is not a file on disk but names a built-in workload
  // runs the workload and takes its trace, mirroring the cachedse CLI.
  if (!std::ifstream(ref)) {
    if (const auto* workload = ces::workloads::FindWorkload(ref)) {
      auto run = ces::workloads::Run(*workload);
      if (!run.output_matches) {
        throw Error(ErrorCategory::kInternal, "workload",
                    "verification failed: " + ref);
      }
      trace::Trace trace = kind == "instr"
                               ? std::move(run.instruction_trace)
                               : std::move(run.data_trace);
      support::MetricsRegistry::Add(metrics, "trace.refs_generated",
                                    trace.size());
      return trace;
    }
  }
  return trace::LoadFromFile(ref, metrics);
}

std::string TraceStore::DigestOf(const trace::Trace& trace) {
  support::Sha256 hasher;
  HashDigestHeader(hasher, trace.kind, trace.address_bits, trace.refs.size());
  // References are packed little-endian explicitly so the digest — a wire-
  // visible identifier — is byte-order independent.
  std::uint8_t chunk[4096];
  std::size_t used = 0;
  for (std::uint32_t ref : trace.refs) {
    used += PackRefsLe(&ref, 1, chunk + used);
    if (used == sizeof(chunk)) {
      hasher.Update(chunk, used);
      used = 0;
    }
  }
  if (used > 0) hasher.Update(chunk, used);
  return "sha256:" + hasher.FinishHex();
}

TraceStore::TraceStore(std::size_t max_traces,
                       support::MetricsRegistry* metrics,
                       std::string spill_dir)
    : max_traces_(max_traces == 0 ? 1 : max_traces),
      metrics_(metrics),
      spill_dir_(std::move(spill_dir)) {
  if (spill_dir_.empty()) {
    std::error_code ec;
    const auto base = std::filesystem::temp_directory_path(ec);
    spill_dir_ = (ec ? std::filesystem::path("/tmp") : base) /
                 ("cachedse-spill-" + std::to_string(::getpid()));
  }
}

TraceStore::~TraceStore() {
  // Abandoned sessions and pinned spills live in our (usually per-process)
  // spill directory; sweep them so daemon restarts do not accumulate.
  std::error_code ec;
  for (auto& [token, session] : uploads_) {
    session.out.close();
    std::filesystem::remove(session.path, ec);
  }
  for (auto& [digest, entry] : entries_) {
    if (!entry.spill_path.empty()) {
      std::filesystem::remove(entry.spill_path, ec);
      std::filesystem::remove(
          std::filesystem::path(entry.spill_path).replace_extension(".ctrz"),
          ec);
    }
  }
  std::filesystem::remove(spill_dir_, ec);  // only if now empty
}

PinnedTrace TraceStore::PinOf(const std::string& digest,
                              const Entry& entry) const {
  PinnedTrace pinned;
  pinned.trace = entry.trace;
  pinned.view = entry.view;
  pinned.stats = entry.stats;
  pinned.kind = entry.kind;
  pinned.digest = digest;
  return pinned;
}

void TraceStore::Touch(Entry& entry) {
  lru_.splice(lru_.end(), lru_, entry.lru_it);
}

PinnedTrace TraceStore::Ingest(trace::Trace trace) {
  support::ScopedTraceSpan span("service.store.ingest");
  const std::string digest = DigestOf(trace);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      Touch(it->second);
      support::MetricsRegistry::Add(metrics_, "service.store.dedup_hits");
      return PinOf(digest, it->second);
    }
  }
  // Stats are part of the pinned state (the stats op and fraction->K
  // resolution read them). The O(n) pass runs outside the lock so a large
  // ingest does not stall concurrent Find/Ingest/GetOrBuildExplorer; a
  // concurrent ingest of the same content may duplicate the work, which the
  // recheck below resolves in favour of the first insert.
  trace::TraceStats stats = trace::ComputeStats(trace);
  const trace::StreamKind kind = trace.kind;
  auto shared = std::make_shared<const trace::Trace>(std::move(trace));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it != entries_.end()) {
    Touch(it->second);
    support::MetricsRegistry::Add(metrics_, "service.store.dedup_hits");
    return PinOf(digest, it->second);
  }
  Entry entry;
  entry.stats = stats;
  entry.trace = shared;
  entry.kind = kind;
  entry.lru_it = lru_.insert(lru_.end(), digest);
  entries_.emplace(digest, std::move(entry));
  support::MetricsRegistry::Add(metrics_, "service.store.ingested");
  EvictIfNeeded();
  support::MetricsRegistry::SetGauge(metrics_, "service.store.traces",
                                     entries_.size());
  PinnedTrace pinned;
  pinned.trace = std::move(shared);
  pinned.stats = stats;
  pinned.kind = kind;
  pinned.digest = digest;
  return pinned;
}

PinnedTrace TraceStore::Find(const std::string& digest) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it == entries_.end()) return {};
  Touch(it->second);
  return PinOf(digest, it->second);
}

void TraceStore::EvictIfNeeded() {
  while (entries_.size() > max_traces_) {
    // lru_ front is by construction the least recently touched digest, so
    // eviction is a pop instead of the old full min-scan over the map.
    const std::string victim = lru_.front();
    auto it = entries_.find(victim);
    if (!it->second.spill_path.empty()) {
      // Drop the raw spill; the mmap view of any in-flight build keeps the
      // inode alive until it unmaps. The compressed archive stays as the
      // at-rest copy (docs/TRACE_FORMATS.md documents the layout).
      std::error_code ec;
      std::filesystem::remove(it->second.spill_path, ec);
    }
    entries_.erase(it);
    lru_.pop_front();
    support::MetricsRegistry::Add(metrics_, "service.store.evicted");
  }
}

std::string TraceStore::EnsureSpillDir() {
  std::error_code ec;
  std::filesystem::create_directories(spill_dir_, ec);
  if (ec) {
    throw Error(ErrorCategory::kIo, "trace-upload",
                "cannot create spill directory " + spill_dir_ + ": " +
                    ec.message());
  }
  return spill_dir_;
}

void TraceStore::DropSessionLocked(const std::string& token) {
  auto it = uploads_.find(token);
  if (it == uploads_.end()) return;
  it->second.out.close();
  std::error_code ec;
  std::filesystem::remove(it->second.path, ec);
  uploads_.erase(it);
}

std::string TraceStore::BeginUpload(trace::StreamKind kind,
                                    std::uint32_t address_bits,
                                    std::uint64_t count, std::string name) {
  if (count > 0xffffffffull) {
    throw Error(ErrorCategory::kRange, "trace-upload",
                "declared count " + std::to_string(count) +
                    " exceeds the u32 CTRC count field");
  }
  const std::string dir = EnsureSpillDir();
  std::lock_guard<std::mutex> lock(uploads_mutex_);
  // Bound abandoned sessions (a client that disconnected mid-upload never
  // sends trace-end): admitting past the cap silently reaps the stalest.
  constexpr std::size_t kMaxOpenUploads = 64;
  while (uploads_.size() >= kMaxOpenUploads) {
    auto oldest = uploads_.begin();
    for (auto it = uploads_.begin(); it != uploads_.end(); ++it) {
      if (it->second.order < oldest->second.order) oldest = it;
    }
    const std::string stale = oldest->first;
    DropSessionLocked(stale);
    support::MetricsRegistry::Add(metrics_, "service.upload.aborted");
  }
  const std::string token = "up-" + std::to_string(++upload_counter_);
  UploadSession session;
  session.kind = kind;
  session.address_bits = address_bits;
  session.count = count;
  session.order = upload_counter_;
  session.name = std::move(name);
  session.path = dir + "/" + token + ".ctrc.part";
  session.out.open(session.path, std::ios::binary | std::ios::trunc);
  if (!session.out) {
    throw Error(ErrorCategory::kIo, "trace-upload",
                "cannot create spill file " + session.path);
  }
  // The spill is a plain CTRC file from byte 0, so the sealed upload mmaps
  // with the ordinary reader path and survives inspection by the CLI.
  session.out.write("CTRC", 4);
  WriteU32LeBytes(session.out, 1);  // version
  WriteU32LeBytes(session.out, static_cast<std::uint32_t>(kind));
  WriteU32LeBytes(session.out, address_bits);
  WriteU32LeBytes(session.out, static_cast<std::uint32_t>(count));
  HashDigestHeader(session.hasher, kind, address_bits, count);
  uploads_.emplace(token, std::move(session));
  support::MetricsRegistry::Add(metrics_, "service.upload.begun");
  support::MetricsRegistry::SetGauge(metrics_, "service.upload.open",
                                     uploads_.size());
  return token;
}

std::uint64_t TraceStore::AppendUploadChunk(const std::string& token,
                                            std::uint64_t seq,
                                            const std::uint32_t* refs,
                                            std::size_t n) {
  std::lock_guard<std::mutex> lock(uploads_mutex_);
  auto it = uploads_.find(token);
  if (it == uploads_.end()) {
    throw Error(ErrorCategory::kValidation, "trace-upload",
                "unknown upload token " + token +
                    " (expired, sealed, or never begun)");
  }
  UploadSession& session = it->second;
  if (seq < session.chunks) {
    // An already-applied chunk again: a client retry after lost responses
    // (the retry machinery may resend a whole pipelined suffix on a fresh
    // connection). Acknowledge without re-applying — the sealed digest is
    // the integrity backstop if a replayed body ever differed.
    support::MetricsRegistry::Add(metrics_, "service.upload.replayed");
    return session.received;
  }
  if (seq != session.chunks) {
    throw Error(ErrorCategory::kValidation, "trace-upload",
                "out-of-order chunk seq " + std::to_string(seq) +
                    " (expected " + std::to_string(session.chunks) + ")");
  }
  if (session.received + n > session.count) {
    throw Error(ErrorCategory::kValidation, "trace-upload",
                "chunk overruns the declared count: " +
                    std::to_string(session.received) + " + " +
                    std::to_string(n) + " > " +
                    std::to_string(session.count));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (session.address_bits < 32 &&
        (refs[i] >> session.address_bits) != 0) {
      throw Error(ErrorCategory::kValidation, "trace-upload",
                  "reference " + std::to_string(session.received + i) +
                      " exceeds address_bits=" +
                      std::to_string(session.address_bits));
    }
  }
  std::uint8_t buffer[4096];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t step = std::min(n - done, sizeof(buffer) / 4);
    const std::size_t bytes = PackRefsLe(refs + done, step, buffer);
    session.out.write(reinterpret_cast<const char*>(buffer),
                      static_cast<std::streamsize>(bytes));
    session.hasher.Update(buffer, bytes);
    done += step;
  }
  if (!session.out) {
    throw Error(ErrorCategory::kIo, "trace-upload",
                "spill write failed: " + session.path);
  }
  ++session.chunks;
  session.received += n;
  support::MetricsRegistry::Add(metrics_, "service.upload.chunks");
  support::MetricsRegistry::Add(metrics_, "service.upload.refs", n);
  return session.received;
}

PinnedTrace TraceStore::FinishUpload(const std::string& token) {
  UploadSession session;
  {
    std::lock_guard<std::mutex> lock(uploads_mutex_);
    auto it = uploads_.find(token);
    if (it == uploads_.end()) {
      throw Error(ErrorCategory::kValidation, "trace-upload",
                  "unknown upload token " + token +
                      " (expired, sealed, or never begun)");
    }
    if (it->second.received != it->second.count) {
      throw Error(ErrorCategory::kValidation, "trace-upload",
                  "upload sealed after " +
                      std::to_string(it->second.received) + " of " +
                      std::to_string(it->second.count) +
                      " declared references");
    }
    session = std::move(it->second);
    uploads_.erase(it);
    support::MetricsRegistry::SetGauge(metrics_, "service.upload.open",
                                       uploads_.size());
  }
  session.out.flush();
  session.out.close();
  if (session.out.fail()) {
    std::error_code ec;
    std::filesystem::remove(session.path, ec);
    throw Error(ErrorCategory::kIo, "trace-upload",
                "spill flush failed: " + session.path);
  }
  const std::string digest = "sha256:" + session.hasher.FinishHex();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it != entries_.end()) {
      // Content already pinned (in-memory or a previous upload): the spill
      // taught us nothing new, drop it and refresh the entry.
      std::error_code ec;
      std::filesystem::remove(session.path, ec);
      Touch(it->second);
      support::MetricsRegistry::Add(metrics_, "service.store.dedup_hits");
      support::MetricsRegistry::Add(metrics_, "service.upload.finished");
      return PinOf(digest, it->second);
    }
  }
  // Content-addressed final names: <hex>.ctrc (the raw spill, mmapped) and
  // <hex>.ctrz (the compressed at-rest archive).
  const std::string hex = digest.substr(7);
  const std::string final_path = spill_dir_ + "/" + hex + ".ctrc";
  std::error_code ec;
  std::filesystem::rename(session.path, final_path, ec);
  if (ec) {
    std::filesystem::remove(session.path, ec);
    throw Error(ErrorCategory::kIo, "trace-upload",
                "cannot finalise spill " + final_path + ": " + ec.message());
  }
  std::shared_ptr<trace::MmapTraceView> view;
  try {
    view = std::make_shared<trace::MmapTraceView>(final_path, metrics_);
  } catch (...) {
    std::filesystem::remove(final_path, ec);
    throw;
  }
  view->set_name(session.name);
  // Stats (one bounded-memory streaming pass) and the compressed archive
  // happen outside both locks; concurrent duplicate uploads resolve in
  // favour of the first insert below, exactly like Ingest.
  const trace::TraceStats stats = trace::ComputeStats(*view);
  {
    std::ofstream archive(spill_dir_ + "/" + hex + ".ctrz",
                          std::ios::binary | std::ios::trunc);
    if (archive) trace::WriteCompressed(archive, *view);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(digest);
  if (it != entries_.end()) {
    std::filesystem::remove(final_path, ec);
    Touch(it->second);
    support::MetricsRegistry::Add(metrics_, "service.store.dedup_hits");
    support::MetricsRegistry::Add(metrics_, "service.upload.finished");
    return PinOf(digest, it->second);
  }
  Entry entry;
  entry.view = view;
  entry.spill_path = final_path;
  entry.stats = stats;
  entry.kind = view->kind();
  entry.lru_it = lru_.insert(lru_.end(), digest);
  entries_.emplace(digest, std::move(entry));
  support::MetricsRegistry::Add(metrics_, "service.store.ingested");
  support::MetricsRegistry::Add(metrics_, "service.upload.finished");
  EvictIfNeeded();
  support::MetricsRegistry::SetGauge(metrics_, "service.store.traces",
                                     entries_.size());
  PinnedTrace pinned;
  pinned.view = std::move(view);
  pinned.stats = stats;
  pinned.kind = pinned.view->kind();
  pinned.digest = digest;
  return pinned;
}

void TraceStore::AbortUpload(const std::string& token) {
  std::lock_guard<std::mutex> lock(uploads_mutex_);
  DropSessionLocked(token);
  support::MetricsRegistry::SetGauge(metrics_, "service.upload.open",
                                     uploads_.size());
}

std::shared_ptr<const analytic::Explorer> TraceStore::GetOrBuildExplorer(
    const std::string& digest, const analytic::ExplorerOptions& options,
    bool* reused) {
  const PreludeKey key{options.engine, options.line_words,
                       options.max_index_bits};
  std::shared_ptr<const trace::Trace> trace;
  std::shared_ptr<const trace::TraceView> view;
  std::promise<std::shared_ptr<const analytic::Explorer>> promise;
  std::shared_future<std::shared_ptr<const analytic::Explorer>> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it == entries_.end()) {
      throw Error(ErrorCategory::kValidation, "trace-store",
                  "unknown digest " + digest + " (evicted or never ingested)");
    }
    Touch(it->second);
    auto prelude = it->second.preludes.find(key);
    if (prelude != it->second.preludes.end()) {
      future = prelude->second;
      support::MetricsRegistry::Add(metrics_, "service.prelude.reused");
      if (reused != nullptr) *reused = true;
    } else {
      if (reused != nullptr) *reused = false;
      future = promise.get_future().share();
      it->second.preludes.emplace(key, future);
      trace = it->second.trace;
      view = it->second.view;
      builder = true;
    }
  }
  if (builder) {
    support::ScopedTraceSpan span("service.prelude.build");
    analytic::ExplorerOptions build_options = options;
    build_options.metrics = metrics_;
    try {
      // Spill-backed entries build straight off the mmap view — the prelude
      // streams the trace without materialising it.
      auto explorer =
          trace != nullptr
              ? std::make_shared<const analytic::Explorer>(*trace,
                                                           build_options)
              : std::make_shared<const analytic::Explorer>(*view,
                                                           build_options);
      support::MetricsRegistry::Add(metrics_, "service.prelude.built");
      promise.set_value(std::move(explorer));
    } catch (...) {
      // Drop the failed future so a later request retries the build, and
      // propagate the failure to everyone already waiting on this one.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(digest);
        if (it != entries_.end()) it->second.preludes.erase(key);
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

std::size_t TraceStore::pinned_traces() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t TraceStore::open_uploads() const {
  std::lock_guard<std::mutex> lock(uploads_mutex_);
  return uploads_.size();
}

}  // namespace ces::service
