// Content-addressed trace store with pinned exploration preludes.
//
// The analytical explorer's whole economy (paper Fig. 1) is: pay the
// trace-length-proportional prelude once, then answer every (D, A, K) query
// from the miss histograms. A one-shot CLI throws that investment away at
// process exit; the daemon keeps it. The store addresses traces by the
// SHA-256 of their *canonical content* — kind, address bits and the raw
// word-address sequence, independent of the file format or name they
// arrived under — so the same trace ingested as .trc, .ctr and .ctrz is
// stripped once, and a digest returned to one client is a stable handle for
// every other client.
//
// Per digest, the store pins one Explorer per (engine, line_words,
// max_index_bits) actually queried. Preludes are built at most
// once per key even under concurrent requests (late arrivals block on the
// builder's future), which is what turns a burst of same-trace requests into
// one fused pass — and because the scheduler passes the pool's job count
// into the build, that pass is the subtree-parallel fused traversal. Pinned traces are LRU-evicted beyond `max_traces`; evicting a
// trace drops its preludes with it.
// Streaming uploads (BeginUpload / AppendUploadChunk / FinishUpload) take
// a trace in sequenced chunks without ever holding it in memory: chunks are
// spilled to an on-disk CTRC file and digested incrementally, so the sealed
// upload lands as the *same* content address an in-memory ingest of the
// equivalent trace would produce. Sealed uploads stay spill-backed — the
// entry pins an mmap TraceView instead of a materialised Trace, and the
// explorer prelude streams straight off the page cache. A compressed CTRZ
// twin is written next to the spill as the at-rest archive.
#pragma once

#include <cstdint>
#include <fstream>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "analytic/explorer.hpp"
#include "support/sha256.hpp"
#include "trace/strip.hpp"
#include "trace/trace.hpp"
#include "trace/trace_view.hpp"

namespace ces::support {
class MetricsRegistry;
}  // namespace ces::support

namespace ces::service {

// Loads a trace from a server-side reference: an existing file in any trace
// format (.trc/.ctr/.ctrz/.din — .din and workload runs honour `kind`), or
// a built-in workload name. Mirrors the cachedse CLI's resolution rules.
// Throws support::Error on failure.
trace::Trace LoadTraceRef(const std::string& ref, const std::string& kind,
                          support::MetricsRegistry* metrics = nullptr);

struct PinnedTrace {
  // Exactly one of the two is set: `trace` for in-memory entries (ingest),
  // `view` for spill-backed entries (streaming uploads). `kind` is valid
  // either way, so responders never dereference to learn it.
  std::shared_ptr<const trace::Trace> trace;
  std::shared_ptr<const trace::TraceView> view;
  trace::TraceStats stats;  // of the unblocked (line_words == 1) trace
  trace::StreamKind kind = trace::StreamKind::kData;
  std::string digest;

  bool pinned() const { return trace != nullptr || view != nullptr; }
};

class TraceStore {
 public:
  // `spill_dir` hosts the upload spill files; empty picks a per-process
  // directory under the system temp path, created on first use.
  explicit TraceStore(std::size_t max_traces = 64,
                      support::MetricsRegistry* metrics = nullptr,
                      std::string spill_dir = {});
  ~TraceStore();

  // "sha256:<64 hex>" over the canonical content (kind, address_bits,
  // refs); the trace's display name does not participate.
  static std::string DigestOf(const trace::Trace& trace);

  // Pins `trace` (idempotent: re-ingesting identical content refreshes the
  // LRU position and returns the existing entry). May evict the least
  // recently used trace beyond the capacity.
  PinnedTrace Ingest(trace::Trace trace);

  // Empty .trace pointer when the digest is not pinned (evicted or never
  // ingested) — the caller decides whether that is an error.
  PinnedTrace Find(const std::string& digest);

  // The pinned prelude for (digest, options.engine, options.line_words,
  // options.max_index_bits), built on first use.
  // Concurrent callers for the same key share one build. Throws
  // support::Error (kValidation) when the digest is not pinned.
  // When `reused` is non-null it is set to whether an already-pinned prelude
  // served this call (true) or this call built it (false) — the scheduler's
  // request log attributes per-request cost with it.
  std::shared_ptr<const analytic::Explorer> GetOrBuildExplorer(
      const std::string& digest, const analytic::ExplorerOptions& options,
      bool* reused = nullptr);

  // --- Chunked streaming ingest ------------------------------------------
  //
  // The upload protocol: BeginUpload declares the content header (the same
  // fields DigestOf hashes first, so the digest accumulates incrementally as
  // chunks arrive), AppendUploadChunk appends strictly sequenced reference
  // chunks, FinishUpload seals the session into a pinned, spill-backed
  // entry. A replay of any already-applied chunk (seq < applied count) is
  // acknowledged without re-applying, which makes client retries over a
  // fresh connection idempotent. Sessions are capped; beginning a new one
  // beyond the cap silently aborts the stalest (mid-upload disconnects
  // therefore leak nothing).

  // Returns the session token. Throws kRange (count beyond u32), kIo (spill
  // file cannot be created).
  std::string BeginUpload(trace::StreamKind kind, std::uint32_t address_bits,
                          std::uint64_t count, std::string name);

  // Appends chunk `seq` (0-based, strictly sequential); returns total
  // references applied. Throws kValidation (unknown token, out-of-order
  // seq, overrun of the declared count, reference wider than address_bits),
  // kIo (spill write failure).
  std::uint64_t AppendUploadChunk(const std::string& token, std::uint64_t seq,
                                  const std::uint32_t* refs, std::size_t n);

  // Seals the upload: verifies the declared count arrived, finalises the
  // digest, writes the CTRZ archive, and pins an mmap view of the spill.
  // Idempotent against already-pinned content (the spill is discarded and
  // the existing entry returned). Throws kValidation (unknown token, short
  // upload), kIo (spill rename / archive write / mmap failure).
  PinnedTrace FinishUpload(const std::string& token);

  // Drops an upload session and its spill file; unknown tokens are ignored
  // (abort races with the cap eviction). Never throws.
  void AbortUpload(const std::string& token);

  std::size_t pinned_traces() const;
  std::size_t open_uploads() const;
  const std::string& spill_dir() const { return spill_dir_; }

 private:
  struct PreludeKey {
    analytic::Engine engine;
    std::uint32_t line_words;
    std::uint32_t max_index_bits;
    auto operator<=>(const PreludeKey&) const = default;
  };
  struct Entry {
    std::shared_ptr<const trace::Trace> trace;     // in-memory entries
    std::shared_ptr<const trace::TraceView> view;  // spill-backed entries
    std::string spill_path;  // unlinked on eviction (empty for in-memory)
    trace::TraceStats stats;
    trace::StreamKind kind = trace::StreamKind::kData;
    // Position in lru_: recency is the list order, so eviction is O(1)
    // instead of a full min-scan over the entries.
    std::list<std::string>::iterator lru_it;
    std::map<PreludeKey,
             std::shared_future<std::shared_ptr<const analytic::Explorer>>>
        preludes;
  };

  struct UploadSession {
    trace::StreamKind kind = trace::StreamKind::kData;
    std::uint32_t address_bits = 32;
    std::uint64_t count = 0;     // declared total references
    std::uint64_t received = 0;  // references applied so far
    std::uint64_t chunks = 0;    // applied chunk count == next expected seq
    std::uint64_t order = 0;     // admission order, for cap eviction
    std::string name;
    std::string path;  // the .part spill file
    std::ofstream out;
    support::Sha256 hasher;
  };

  void EvictIfNeeded();                        // callers hold mutex_
  void Touch(Entry& entry);                    // callers hold mutex_
  PinnedTrace PinOf(const std::string& digest, const Entry& entry) const;
  void DropSessionLocked(const std::string& token);  // holds uploads_mutex_
  std::string EnsureSpillDir();

  const std::size_t max_traces_;
  support::MetricsRegistry* metrics_;
  std::string spill_dir_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = least recently used digest
  // Upload sessions live under their own lock: chunk appends must not
  // contend with explorer builds or Find/Ingest traffic.
  mutable std::mutex uploads_mutex_;
  std::unordered_map<std::string, UploadSession> uploads_;
  std::uint64_t upload_counter_ = 0;
};

}  // namespace ces::service
