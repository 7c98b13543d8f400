// The exploration service: trace store, result cache, scheduler and the
// NDJSON server/client, driven in-process.
//
// The load-bearing guarantees pinned here:
//  * content addressing — the digest depends on canonical trace content
//    only, not on the file format or name it arrived under;
//  * one prelude per burst — concurrent same-trace requests share a single
//    explorer build;
//  * cache correctness — LRU order, byte-budget accounting, cross-shard
//    determinism, and soundness under a concurrency hammer (run under TSan
//    in CI);
//  * scheduler policy — bounded admission sheds with retry_after_ms,
//    expired deadlines are answered without compute, Drain answers
//    everything already admitted;
//  * end-to-end equivalence — responses over a real socket carry exactly
//    the design points the offline Explorer computes, repeat requests are
//    served from the cache, and a loaded server drains cleanly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "json_validator.hpp"

#include "analytic/explorer.hpp"
#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/result_cache.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/trace_store.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

namespace {

using ces::service::CachedResult;
using ces::service::ResultCache;
using ces::service::ResultKey;
using ces::service::TraceStore;
using ces::support::Error;
using ces::support::ErrorCategory;
using ces::support::MetricsRegistry;

ErrorCategory CategoryOf(const std::function<void()>& body) {
  try {
    body();
  } catch (const Error& e) {
    return e.category();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw unstructured exception: " << e.what();
    return ErrorCategory::kInternal;
  }
  ADD_FAILURE() << "no error thrown";
  return ErrorCategory::kInternal;
}

// --------------------------------------------------------------------------
// ResultCache

ResultKey KeyFor(std::uint64_t k, const std::string& digest = "sha256:test") {
  ResultKey key;
  key.digest = digest;
  key.k = k;
  return key;
}

std::shared_ptr<CachedResult> ValueFor(std::uint64_t k,
                                       std::size_t n_points = 4) {
  auto value = std::make_shared<CachedResult>();
  value->k = k;
  for (std::size_t i = 0; i < n_points; ++i) {
    ces::analytic::DesignPoint point;
    point.depth = 1u << i;
    point.assoc = 1;
    point.warm_misses = k + i;
    value->points.push_back(point);
  }
  return value;
}

TEST(ResultCache, LookupMissThenHit) {
  MetricsRegistry metrics;
  ResultCache cache(1u << 20, 1, &metrics);
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(1), ValueFor(1));
  const auto hit = cache.Lookup(KeyFor(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->k, 1u);
  EXPECT_EQ(metrics.counter("service.cache.miss"), 1u);
  EXPECT_EQ(metrics.counter("service.cache.hit"), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedFirst) {
  // One shard so the LRU order is global. Budget sized for ~3 entries.
  const std::size_t cost = ValueFor(0)->CostBytes(KeyFor(0));
  MetricsRegistry metrics;
  ResultCache cache(3 * cost, 1, &metrics);
  cache.Insert(KeyFor(1), ValueFor(1));
  cache.Insert(KeyFor(2), ValueFor(2));
  cache.Insert(KeyFor(3), ValueFor(3));
  EXPECT_EQ(cache.entries(), 3u);

  // Touch 1 so 2 becomes the LRU tail, then overflow.
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(4), ValueFor(4));
  EXPECT_EQ(cache.entries(), 3u);
  EXPECT_EQ(cache.Lookup(KeyFor(2)), nullptr);  // evicted
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(3)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(4)), nullptr);
  EXPECT_EQ(metrics.counter("service.cache.eviction"), 1u);
}

TEST(ResultCache, ByteAccountingMatchesEntryCosts) {
  MetricsRegistry metrics;
  ResultCache cache(1u << 20, 4, &metrics);
  std::size_t expected = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    auto value = ValueFor(k, 1 + static_cast<std::size_t>(k % 7));
    expected += value->CostBytes(KeyFor(k));
    cache.Insert(KeyFor(k), std::move(value));
  }
  EXPECT_EQ(cache.bytes(), expected);
  EXPECT_EQ(cache.entries(), 32u);
  EXPECT_EQ(metrics.gauge("service.cache.bytes"), expected);

  // Replacing a key swaps its cost, not accumulates it.
  auto bigger = ValueFor(0, 20);
  const std::size_t old_cost = ValueFor(0, 1)->CostBytes(KeyFor(0));
  const std::size_t new_cost = bigger->CostBytes(KeyFor(0));
  cache.Insert(KeyFor(0), std::move(bigger));
  EXPECT_EQ(cache.bytes(), expected - old_cost + new_cost);
  EXPECT_EQ(cache.entries(), 32u);
}

TEST(ResultCache, TinyBudgetStillAdmitsTheNewestEntry) {
  ResultCache cache(1, 1);  // smaller than any single entry
  cache.Insert(KeyFor(1), ValueFor(1));
  EXPECT_NE(cache.Lookup(KeyFor(1)), nullptr);
  cache.Insert(KeyFor(2), ValueFor(2));
  EXPECT_EQ(cache.Lookup(KeyFor(1)), nullptr);
  EXPECT_NE(cache.Lookup(KeyFor(2)), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ResultCache, ShardAssignmentIsStableAcrossInstances) {
  // The FNV-1a shard hash must not depend on process state, pointer values
  // or std::hash — the same key lands in the same shard in every run, which
  // is what makes hit/miss sequences reproducible.
  ResultCache a(1u << 20, 8);
  ResultCache b(1u << 20, 8);
  for (std::uint64_t k = 0; k < 256; ++k) {
    const ResultKey key = KeyFor(k, "sha256:digest-" + std::to_string(k % 5));
    EXPECT_EQ(a.ShardOf(key), b.ShardOf(key));
    EXPECT_EQ(key.StableHash(), KeyFor(k, key.digest).StableHash());
  }
  // Distinct fields must actually participate in the hash.
  ResultKey base = KeyFor(7);
  ResultKey other = base;
  other.engine = 1;
  EXPECT_NE(base.StableHash(), other.StableHash());
  other = base;
  other.line_words = 4;
  EXPECT_NE(base.StableHash(), other.StableHash());
  other = base;
  other.max_index_bits = 12;
  EXPECT_NE(base.StableHash(), other.StableHash());
  other = base;
  other.digest_instr = "sha256:instr";
  EXPECT_NE(base.StableHash(), other.StableHash());
  other = base;
  other.variant = "joint|small|prune=1";
  EXPECT_NE(base.StableHash(), other.StableHash());
}

TEST(ResultCache, JointEntriesKeyOnBothDigestsAndVariant) {
  // A joint-front entry and a plain explore entry for the same data digest
  // must never collide, and the payload participates in byte accounting.
  MetricsRegistry metrics;
  ResultCache cache(1u << 20, 4, &metrics);
  ResultKey plain = KeyFor(0);
  ResultKey joint = plain;
  joint.digest_instr = "sha256:instr";
  joint.variant = "joint|default|prune=1";
  EXPECT_FALSE(plain == joint);

  auto front = std::make_shared<CachedResult>();
  front->payload = "{\"schema\":\"ces-joint-v1\"}";
  const std::size_t payload_bytes = front->payload.size();
  cache.Insert(plain, ValueFor(0, 0));
  cache.Insert(joint, front);
  EXPECT_EQ(cache.entries(), 2u);
  const auto hit = cache.Lookup(joint);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->payload, front->payload);
  EXPECT_GE(front->CostBytes(joint),
            ValueFor(0, 0)->CostBytes(plain) + payload_bytes);

  // Pruned and unpruned variants are distinct entries too.
  ResultKey unpruned = joint;
  unpruned.variant = "joint|default|prune=0";
  EXPECT_EQ(cache.Lookup(unpruned), nullptr);
}

TEST(ResultCache, IdenticalOperationSequencesProduceIdenticalCaches) {
  // Cross-shard determinism: replaying the same inserts/lookups against a
  // fresh cache reproduces byte-for-byte the same occupancy.
  auto run = [] {
    ResultCache cache(4096, 4);
    for (std::uint64_t k = 0; k < 200; ++k) {
      cache.Insert(KeyFor(k * 37 % 64), ValueFor(k));
      cache.Lookup(KeyFor(k % 16));
    }
    return std::pair<std::size_t, std::size_t>(cache.bytes(),
                                               cache.entries());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

TEST(ResultCache, ConcurrencyHammer) {
  // 8 threads, overlapping key ranges, constant eviction pressure. The
  // assertions are the invariants (budget respected, lookups see coherent
  // values); the real check is TSan finding no races in CI.
  MetricsRegistry metrics;
  ResultCache cache(8192, 4, &metrics);
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &failed, t] {
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t k = (i * 7 + static_cast<std::uint64_t>(t)) % 96;
        if (i % 3 == 0) {
          cache.Insert(KeyFor(k), ValueFor(k));
        } else if (auto hit = cache.Lookup(KeyFor(k))) {
          if (hit->k != k) failed.store(true);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(cache.bytes(),
            metrics.gauge("service.cache.bytes"));
  EXPECT_GT(metrics.counter("service.cache.eviction"), 0u);
}

// --------------------------------------------------------------------------
// TraceStore

std::string TempPath(const char* suffix) {
  static std::atomic<int> counter{0};
  return testing::TempDir() + "ces_service_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + suffix;
}

TEST(TraceStore, DigestIgnoresFormatAndName) {
  ces::trace::Trace trace = ces::trace::PaperExampleTrace();
  const std::string digest = TraceStore::DigestOf(trace);
  EXPECT_EQ(digest.compare(0, 7, "sha256:"), 0);
  EXPECT_EQ(digest.size(), 7u + 64u);

  // Same content through two on-disk formats and different display names.
  const std::string raw = TempPath(".trc");
  const std::string compressed = TempPath(".ctr");
  ces::trace::SaveToFile(raw, trace);
  ces::trace::SaveToFile(compressed, trace);
  const ces::trace::Trace from_raw =
      ces::service::LoadTraceRef(raw, "data");
  const ces::trace::Trace from_compressed =
      ces::service::LoadTraceRef(compressed, "data");
  EXPECT_EQ(TraceStore::DigestOf(from_raw), digest);
  EXPECT_EQ(TraceStore::DigestOf(from_compressed), digest);
  std::remove(raw.c_str());
  std::remove(compressed.c_str());

  // Content changes change the digest.
  ces::trace::Trace instr = ces::trace::PaperExampleTrace();
  instr.kind = ces::trace::StreamKind::kInstruction;
  EXPECT_NE(TraceStore::DigestOf(instr), digest);
  ces::trace::Trace longer = ces::trace::PaperExampleTrace();
  longer.refs.push_back(longer.refs.front());
  EXPECT_NE(TraceStore::DigestOf(longer), digest);
}

TEST(TraceStore, IngestIsIdempotentAndEvictsLru) {
  MetricsRegistry metrics;
  TraceStore store(2, &metrics);
  const auto first = store.Ingest(ces::trace::PaperExampleTrace());
  const auto again = store.Ingest(ces::trace::PaperExampleTrace());
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.trace.get(), again.trace.get());  // same pinned object
  EXPECT_EQ(store.pinned_traces(), 1u);
  EXPECT_EQ(metrics.counter("service.store.ingested"), 1u);
  EXPECT_EQ(metrics.counter("service.store.dedup_hits"), 1u);

  const auto second =
      store.Ingest(ces::trace::SequentialLoop(0x100, 32, 2));
  EXPECT_EQ(store.pinned_traces(), 2u);
  // Touch `first` so `second` is the LRU victim when a third arrives.
  EXPECT_NE(store.Find(first.digest).trace, nullptr);
  store.Ingest(ces::trace::StridedSweep(0x200, 8, 16, 2));
  EXPECT_EQ(store.pinned_traces(), 2u);
  EXPECT_EQ(store.Find(second.digest).trace, nullptr);  // evicted
  EXPECT_NE(store.Find(first.digest).trace, nullptr);
  EXPECT_EQ(metrics.counter("service.store.evicted"), 1u);
}

TEST(TraceStore, ConcurrentBurstBuildsOnePrelude) {
  MetricsRegistry metrics;
  TraceStore store(4, &metrics);
  const auto pinned = store.Ingest(ces::trace::PaperExampleTrace());

  ces::analytic::ExplorerOptions options;
  options.max_index_bits = 4;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const ces::analytic::Explorer>> explorers(16);
  for (std::size_t t = 0; t < explorers.size(); ++t) {
    threads.emplace_back([&, t] {
      explorers[t] = store.GetOrBuildExplorer(pinned.digest, options);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& explorer : explorers) {
    ASSERT_NE(explorer, nullptr);
    EXPECT_EQ(explorer.get(), explorers[0].get());  // one shared build
  }
  EXPECT_EQ(metrics.counter("service.prelude.built"), 1u);
  EXPECT_EQ(metrics.counter("service.prelude.reused"), 15u);

  EXPECT_THROW(store.GetOrBuildExplorer("sha256:" + std::string(64, '0'),
                                        options),
               Error);
}

TEST(TraceStore, LruEvictionFollowsTouchOrderExactly) {
  // Regression for the O(n^2) min-scan eviction: the intrusive LRU list
  // must evict in exact recency order under interleaved touches, not just
  // "something old eventually goes".
  MetricsRegistry metrics;
  TraceStore store(3, &metrics);
  const auto a = store.Ingest(ces::trace::SequentialLoop(0x100, 8, 2));
  const auto b = store.Ingest(ces::trace::SequentialLoop(0x200, 8, 2));
  const auto c = store.Ingest(ces::trace::SequentialLoop(0x300, 8, 2));
  // Recency a < b < c; touching a then b leaves c the coldest.
  EXPECT_TRUE(store.Find(a.digest).pinned());
  EXPECT_TRUE(store.Find(b.digest).pinned());

  const auto d = store.Ingest(ces::trace::SequentialLoop(0x400, 8, 2));
  EXPECT_FALSE(store.Find(c.digest).pinned());  // c was the victim, not a
  const auto e = store.Ingest(ces::trace::SequentialLoop(0x500, 8, 2));
  EXPECT_FALSE(store.Find(a.digest).pinned());  // then a, in exact order
  EXPECT_TRUE(store.Find(b.digest).pinned());
  EXPECT_TRUE(store.Find(d.digest).pinned());
  EXPECT_TRUE(store.Find(e.digest).pinned());
  EXPECT_EQ(store.pinned_traces(), 3u);
  EXPECT_EQ(metrics.counter("service.store.evicted"), 2u);
}

// --------------------------------------------------------------------------
// Streaming uploads

ces::trace::Trace UploadableTrace() {
  ces::Rng rng(0xc0de);
  ces::trace::Trace trace = ces::trace::LocalityMix(rng, 64, 1024, 3000);
  trace.kind = ces::trace::StreamKind::kInstruction;
  trace.address_bits = 24;
  trace.name = "streamed";
  return trace;
}

TEST(TraceStore, StreamingUploadLandsOnTheCanonicalContentAddress) {
  MetricsRegistry metrics;
  const std::string spill = TempPath(".spill");
  TraceStore store(4, &metrics, spill);
  const ces::trace::Trace trace = UploadableTrace();

  const std::string token = store.BeginUpload(
      trace.kind, trace.address_bits, trace.refs.size(), trace.name);
  EXPECT_EQ(store.open_uploads(), 1u);
  std::uint64_t seq = 0;
  std::uint64_t applied = 0;
  constexpr std::size_t kChunk = 257;  // deliberately not a divisor of N
  for (std::size_t at = 0; at < trace.refs.size(); at += kChunk, ++seq) {
    const std::size_t n = std::min(kChunk, trace.refs.size() - at);
    applied = store.AppendUploadChunk(token, seq, trace.refs.data() + at, n);
  }
  EXPECT_EQ(applied, trace.refs.size());
  const auto pinned = store.FinishUpload(token);
  EXPECT_EQ(store.open_uploads(), 0u);

  // The incrementally accumulated digest IS the canonical content address:
  // a streamed upload and an in-memory ingest of the same content are the
  // same entry to every other client.
  EXPECT_EQ(pinned.digest, TraceStore::DigestOf(trace));
  EXPECT_EQ(pinned.trace, nullptr);  // spill-backed, not materialised...
  ASSERT_NE(pinned.view, nullptr);   // ...pinning an mmap view of the spill
  EXPECT_EQ(pinned.kind, trace.kind);
  EXPECT_EQ(pinned.view->name(), "streamed");
  EXPECT_EQ(pinned.view->size(), trace.refs.size());

  const ces::trace::TraceStats expected = ces::trace::ComputeStats(trace);
  EXPECT_EQ(pinned.stats.n, expected.n);
  EXPECT_EQ(pinned.stats.n_unique, expected.n_unique);
  EXPECT_EQ(pinned.stats.max_misses, expected.max_misses);

  // On disk: the sealed CTRC spill plus its CTRZ archive, and the archive
  // decodes back to the uploaded content.
  const std::string hex = pinned.digest.substr(7);
  EXPECT_TRUE(std::filesystem::exists(spill + "/" + hex + ".ctrc"));
  EXPECT_TRUE(std::filesystem::exists(spill + "/" + hex + ".ctrz"));
  EXPECT_EQ(ces::trace::LoadFromFile(spill + "/" + hex + ".ctrz").refs,
            trace.refs);

  // Exploration over the spill-backed entry matches the offline explorer.
  ces::analytic::ExplorerOptions options;
  options.max_index_bits = 6;
  const auto from_store = store.GetOrBuildExplorer(pinned.digest, options);
  const ces::analytic::Explorer offline(trace, options);
  EXPECT_EQ(from_store->stats().max_misses, offline.stats().max_misses);
  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{25}}) {
    const auto got = from_store->Solve(k);
    const auto want = offline.Solve(k);
    ASSERT_EQ(got.points.size(), want.points.size()) << k;
    for (std::size_t i = 0; i < want.points.size(); ++i) {
      EXPECT_EQ(got.points[i].depth, want.points[i].depth);
      EXPECT_EQ(got.points[i].assoc, want.points[i].assoc);
      EXPECT_EQ(got.points[i].warm_misses, want.points[i].warm_misses);
    }
  }
  EXPECT_EQ(metrics.counter("service.upload.finished"), 1u);
}

TEST(TraceStore, UploadSequencingReplayAndFailureRules) {
  MetricsRegistry metrics;
  TraceStore store(4, &metrics, TempPath(".spill"));
  const std::uint32_t refs[4] = {1, 2, 3, 4};
  const std::string token =
      store.BeginUpload(ces::trace::StreamKind::kData, 8, 8, "");

  EXPECT_EQ(store.AppendUploadChunk(token, 0, refs, 4), 4u);
  // A replay of an applied chunk (a client retrying over a fresh
  // connection) is acknowledged without re-applying...
  EXPECT_EQ(store.AppendUploadChunk(token, 0, refs, 4), 4u);
  EXPECT_EQ(metrics.counter("service.upload.replayed"), 1u);
  // ...but a future seq is a hole, and sealing early a short upload.
  EXPECT_EQ(CategoryOf([&] { store.AppendUploadChunk(token, 2, refs, 4); }),
            ErrorCategory::kValidation);
  EXPECT_EQ(CategoryOf([&] { store.FinishUpload(token); }),
            ErrorCategory::kValidation);

  // Overrunning the declared count and references wider than the declared
  // address space are rejected before touching the spill.
  const std::uint32_t wide[1] = {0x100};  // needs 9 bits, declared 8
  EXPECT_EQ(CategoryOf([&] { store.AppendUploadChunk(token, 1, wide, 1); }),
            ErrorCategory::kValidation);
  const std::uint32_t many[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(CategoryOf([&] { store.AppendUploadChunk(token, 1, many, 8); }),
            ErrorCategory::kValidation);

  // Unknown tokens (never begun, aborted, or sealed) are validation errors.
  EXPECT_EQ(CategoryOf([&] { store.AppendUploadChunk("up-99", 0, refs, 4); }),
            ErrorCategory::kValidation);
  store.AbortUpload(token);
  EXPECT_EQ(store.open_uploads(), 0u);
  EXPECT_EQ(CategoryOf([&] { store.AppendUploadChunk(token, 1, refs, 4); }),
            ErrorCategory::kValidation);
  store.AbortUpload(token);  // idempotent, never throws

  // Declaring 2^32+ references is the same kRange the file writers raise.
  EXPECT_EQ(CategoryOf([&] {
              store.BeginUpload(ces::trace::StreamKind::kData, 32,
                                0x100000000ull, "");
            }),
            ErrorCategory::kRange);
}

TEST(TraceStore, UploadDedupesAgainstExistingInMemoryEntry) {
  MetricsRegistry metrics;
  const std::string spill = TempPath(".spill");
  TraceStore store(4, &metrics, spill);
  const ces::trace::Trace trace = UploadableTrace();
  const auto ingested = store.Ingest(trace);
  ASSERT_NE(ingested.trace, nullptr);

  const std::string token = store.BeginUpload(
      trace.kind, trace.address_bits, trace.refs.size(), trace.name);
  store.AppendUploadChunk(token, 0, trace.refs.data(), trace.refs.size());
  const auto uploaded = store.FinishUpload(token);

  // Same content, one entry: the upload resolved to the already-pinned
  // in-memory trace and its spill was discarded.
  EXPECT_EQ(uploaded.digest, ingested.digest);
  EXPECT_EQ(uploaded.trace.get(), ingested.trace.get());
  EXPECT_EQ(store.pinned_traces(), 1u);
  EXPECT_GE(metrics.counter("service.store.dedup_hits"), 1u);
  const std::string hex = ingested.digest.substr(7);
  EXPECT_FALSE(std::filesystem::exists(spill + "/" + hex + ".ctrc"));
}

TEST(TraceStore, EvictedUploadUnlinksSpillButKeepsArchiveAndLiveViews) {
  MetricsRegistry metrics;
  const std::string spill = TempPath(".spill");
  TraceStore store(1, &metrics, spill);
  const ces::trace::Trace trace = UploadableTrace();

  const std::string token = store.BeginUpload(
      trace.kind, trace.address_bits, trace.refs.size(), trace.name);
  store.AppendUploadChunk(token, 0, trace.refs.data(), trace.refs.size());
  const auto uploaded = store.FinishUpload(token);
  const std::string hex = uploaded.digest.substr(7);

  store.Ingest(ces::trace::PaperExampleTrace());  // capacity 1: evicts it
  EXPECT_FALSE(store.Find(uploaded.digest).pinned());
  // The raw spill is unlinked on eviction; the CTRZ archive stays as the
  // at-rest copy.
  EXPECT_FALSE(std::filesystem::exists(spill + "/" + hex + ".ctrc"));
  EXPECT_TRUE(std::filesystem::exists(spill + "/" + hex + ".ctrz"));
  // POSIX semantics: the handed-out view maps the unlinked inode and stays
  // fully readable.
  EXPECT_EQ(ces::trace::MaterializeTrace(*uploaded.view).refs, trace.refs);
}

TEST(TraceStore, VanishedSpillFileSurfacesAsIoError) {
  const std::string spill = TempPath(".spill");
  TraceStore store(4, nullptr, spill);
  const std::uint32_t refs[2] = {7, 9};
  const std::string token =
      store.BeginUpload(ces::trace::StreamKind::kData, 32, 2, "");
  store.AppendUploadChunk(token, 0, refs, 2);
  // An operator (or tmp reaper) deletes the spill mid-upload: sealing must
  // be a structured kIo, and the session must be gone afterwards.
  std::filesystem::remove(spill + "/" + token + ".ctrc.part");
  EXPECT_EQ(CategoryOf([&] { store.FinishUpload(token); }),
            ErrorCategory::kIo);
  EXPECT_EQ(store.open_uploads(), 0u);
}

// --------------------------------------------------------------------------
// Protocol

TEST(Protocol, RequestRoundTripsEveryField) {
  const auto request = ces::service::ParseRequest(
      "{\"id\":\"q1\",\"op\":\"explore\",\"trace\":\"crc\","
      "\"kind\":\"instr\",\"engine\":\"reference\",\"k\":42,"
      "\"line_words\":4,\"max_index_bits\":10,\"deadline_ms\":250}");
  EXPECT_EQ(request.id, "q1");
  EXPECT_EQ(request.op, ces::service::Op::kExplore);
  EXPECT_EQ(request.trace, "crc");
  EXPECT_EQ(request.kind, "instr");
  EXPECT_EQ(request.engine, "reference");
  EXPECT_TRUE(request.has_k);
  EXPECT_EQ(request.k, 42u);
  EXPECT_FALSE(request.has_fraction);
  EXPECT_EQ(request.line_words, 4u);
  EXPECT_EQ(request.max_index_bits, 10u);
  EXPECT_EQ(request.deadline_ms, 250u);
}

TEST(Protocol, ExploreResponseRoundTrips) {
  ces::trace::TraceStats stats{100, 40, 38};
  std::vector<ces::analytic::DesignPoint> points;
  points.push_back({.depth = 4, .assoc = 2, .warm_misses = 17});
  const std::string line = ces::service::protocol::ExploreResponse(
      "q7", "sha256:" + std::string(64, 'a'), "fused", 5, stats, points,
      true);
  const auto response = ces::service::ParseResponse(line);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.id, "q7");
  EXPECT_EQ(response.engine, "fused");
  EXPECT_EQ(response.k, 5u);
  EXPECT_TRUE(response.cached);
  ASSERT_TRUE(response.has_stats);
  EXPECT_EQ(response.stats.n, 100u);
  EXPECT_EQ(response.stats.n_unique, 40u);
  EXPECT_EQ(response.stats.max_misses, 38u);
  ASSERT_EQ(response.points.size(), 1u);
  EXPECT_EQ(response.points[0].depth, 4u);
  EXPECT_EQ(response.points[0].assoc, 2u);
  EXPECT_EQ(response.points[0].size_words(), 8u);
  EXPECT_EQ(response.points[0].warm_misses, 17u);
}

TEST(Protocol, ErrorResponseCarriesRetryHint) {
  const std::string line = ces::service::protocol::ErrorResponse(
      "q9", ces::service::protocol::kCodeOverloaded, "queue full", 250);
  const auto response = ces::service::ParseResponse(line);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id, "q9");
  EXPECT_EQ(response.error_code, "overloaded");
  EXPECT_EQ(response.error_message, "queue full");
  EXPECT_EQ(response.retry_after_ms, 250u);
}

TEST(Protocol, OnlyTraceBeginAndTraceEndAreUnsafeToResend) {
  using ces::service::protocol::IsIdempotentOp;
  for (const char* op :
       {"explore", "stats", "ingest", "trace-chunk", "no-such-op", ""}) {
    EXPECT_TRUE(IsIdempotentOp(op)) << op;
  }
  EXPECT_FALSE(IsIdempotentOp("trace-begin"));
  EXPECT_FALSE(IsIdempotentOp("trace-end"));
}

TEST(Protocol, UploadRequestsParseAndValidate) {
  const auto begin = ces::service::ParseRequest(
      "{\"id\":\"b\",\"op\":\"trace-begin\",\"count\":1000,"
      "\"kind\":\"instr\",\"address_bits\":24,\"name\":\"qsort (small)\"}");
  EXPECT_EQ(begin.op, ces::service::Op::kTraceBegin);
  EXPECT_TRUE(begin.has_count);
  EXPECT_EQ(begin.count, 1000u);
  EXPECT_EQ(begin.kind, "instr");
  EXPECT_EQ(begin.address_bits, 24u);
  EXPECT_EQ(begin.name, "qsort (small)");

  const auto chunk = ces::service::ParseRequest(
      "{\"id\":\"c\",\"op\":\"trace-chunk\",\"upload\":\"up-3\",\"seq\":7,"
      "\"payload\":\"00010203\",\"encoding\":\"base64\"}");
  EXPECT_EQ(chunk.op, ces::service::Op::kTraceChunk);
  EXPECT_EQ(chunk.upload, "up-3");
  EXPECT_TRUE(chunk.has_seq);
  EXPECT_EQ(chunk.seq, 7u);
  EXPECT_EQ(chunk.payload, "00010203");
  EXPECT_EQ(chunk.encoding, "base64");

  const auto end = ces::service::ParseRequest(
      "{\"id\":\"e\",\"op\":\"trace-end\",\"upload\":\"up-3\"}");
  EXPECT_EQ(end.op, ces::service::Op::kTraceEnd);
  EXPECT_EQ(end.upload, "up-3");

  // Field discipline both ways: upload ops reject exploration fields, and
  // exploration ops reject upload fields (the fuzz corpus covers more).
  EXPECT_EQ(CategoryOf([] {
              ces::service::ParseRequest(
                  "{\"id\":\"1\",\"op\":\"trace-begin\",\"count\":4,"
                  "\"engine\":\"fused\"}");
            }),
            ErrorCategory::kValidation);
  EXPECT_EQ(CategoryOf([] {
              ces::service::ParseRequest(
                  "{\"id\":\"1\",\"op\":\"trace-chunk\",\"upload\":\"u\","
                  "\"seq\":0,\"payload\":\"00\",\"name\":\"x\"}");
            }),
            ErrorCategory::kValidation);
  EXPECT_EQ(CategoryOf([] {
              ces::service::ParseRequest(
                  "{\"id\":\"1\",\"op\":\"stats\",\"trace\":\"x\","
                  "\"seq\":0}");
            }),
            ErrorCategory::kValidation);
}

TEST(Protocol, UploadResponsesRoundTrip) {
  const auto begin = ces::service::ParseResponse(
      ces::service::protocol::TraceBeginResponse("b", "up-12", 4096));
  EXPECT_TRUE(begin.ok);
  EXPECT_EQ(begin.id, "b");
  EXPECT_EQ(begin.upload, "up-12");

  const auto chunk = ces::service::ParseResponse(
      ces::service::protocol::TraceChunkResponse("c", "up-12", 3, 1024));
  EXPECT_TRUE(chunk.ok);
  EXPECT_EQ(chunk.upload, "up-12");
  EXPECT_EQ(chunk.seq, 3u);
  EXPECT_EQ(chunk.received, 1024u);

  ces::trace::TraceStats stats{4096, 128, 120};
  const auto end = ces::service::ParseResponse(
      ces::service::protocol::TraceEndResponse(
          "e", "sha256:" + std::string(64, 'b'), stats));
  EXPECT_TRUE(end.ok);
  EXPECT_EQ(end.digest, "sha256:" + std::string(64, 'b'));
  ASSERT_TRUE(end.has_stats);
  EXPECT_EQ(end.stats.n, 4096u);
  EXPECT_EQ(end.stats.max_misses, 120u);
}

TEST(Protocol, ChunkPayloadCodecRoundTripsAndRejectsDamage) {
  using ces::service::protocol::DecodeChunkPayload;
  using ces::service::protocol::EncodeChunkPayload;

  const std::vector<std::uint32_t> refs = {0, 1, 0xdeadbeefu, 0xffffffffu,
                                           0x00c0ffeeu};
  // Every prefix length exercises every base64 padding shape (4, 8, 12...
  // payload bytes -> 0, 2, 1 pad characters in the final quantum).
  for (const std::string encoding : {std::string("hex"),
                                     std::string("base64")}) {
    for (std::size_t n = 1; n <= refs.size(); ++n) {
      const std::string payload =
          EncodeChunkPayload(encoding, refs.data(), n);
      const std::vector<std::uint32_t> back =
          DecodeChunkPayload(encoding, payload);
      EXPECT_EQ(back, std::vector<std::uint32_t>(refs.begin(),
                                                 refs.begin() +
                                                     static_cast<long>(n)))
          << encoding << " n=" << n;
    }
  }
  // Hex is case-insensitive on decode.
  EXPECT_EQ(DecodeChunkPayload("hex", "EFBEADDE"),
            (std::vector<std::uint32_t>{0xdeadbeefu}));

  struct BadCase {
    const char* encoding;
    const char* payload;
  };
  const BadCase bad[] = {
      {"hex", "abc"},        // odd digit count
      {"hex", "zz00aa00"},   // non-hex character
      {"hex", "abcd"},       // 2 bytes: not a whole little-endian u32
      {"base64", "abc"},     // length not a multiple of 4
      {"base64", "!!!!"},    // invalid alphabet
      {"base64", "=AAA"},    // padding opens the quantum
      {"base64", "AA=A"},    // data after padding
      {"base64", "ABCDEFGH"},  // 6 bytes: not a whole u32
      {"utf7", "00000000"},  // unknown encoding
  };
  for (const auto& c : bad) {
    EXPECT_EQ(CategoryOf([&] { DecodeChunkPayload(c.encoding, c.payload); }),
              ErrorCategory::kValidation)
        << c.encoding << " " << c.payload;
  }
}

// --------------------------------------------------------------------------
// Scheduler policy via the transport-free service

struct CollectedResponse {
  std::promise<ces::service::Response> promise;
  std::future<ces::service::Response> future = promise.get_future();

  ces::service::ExplorationService::Responder responder() {
    return [this](const std::string& line) {
      promise.set_value(ces::service::ParseResponse(line));
    };
  }
  ces::service::Response get() {
    EXPECT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    return future.get();
  }
};

TEST(Service, FullQueueShedsWithRetryHint) {
  MetricsRegistry metrics;
  ces::service::ExplorationService::Options options;
  options.jobs = 1;
  options.queue_limit = 2;
  options.retry_after_ms = 123;
  options.metrics = &metrics;
  ces::service::ExplorationService service(options);
  service.scheduler().Pause();  // admissions stay queued -> bound observable

  const std::string line =
      "{\"id\":\"1\",\"op\":\"stats\",\"trace\":\"missing.trc\"}";
  CollectedResponse first, second, third;
  service.Handle(line, first.responder());
  service.Handle(line, second.responder());
  service.Handle(line, third.responder());  // over the limit: shed inline

  const auto shed = third.get();
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error_code, "overloaded");
  EXPECT_EQ(shed.retry_after_ms, 123u);
  EXPECT_EQ(metrics.counter("service.queue.shed"), 1u);

  service.scheduler().Resume();
  const auto first_response = first.get();
  EXPECT_FALSE(first_response.ok);  // missing.trc: structured io error
  EXPECT_EQ(first_response.error_code, "io");
  EXPECT_FALSE(second.get().ok);
}

TEST(Service, ExpiredDeadlineIsAnsweredWithoutCompute) {
  MetricsRegistry metrics;
  ces::service::ExplorationService::Options options;
  options.jobs = 1;
  options.metrics = &metrics;
  ces::service::ExplorationService service(options);
  service.scheduler().Pause();

  CollectedResponse expired;
  service.Handle(
      "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"crc\","
      "\"deadline_ms\":1}",
      expired.responder());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.scheduler().Resume();

  const auto response = expired.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "deadline_exceeded");
  EXPECT_EQ(metrics.counter("service.deadline_exceeded"), 1u);
  // The trace was never resolved: deadline-expired jobs skip all work.
  EXPECT_EQ(metrics.counter("service.store.ingested"), 0u);
}

TEST(Service, DrainAnswersAdmittedAndShedsLateArrivals) {
  ces::service::ExplorationService::Options options;
  options.jobs = 1;
  ces::service::ExplorationService service(options);
  service.scheduler().Pause();

  CollectedResponse admitted;
  service.Handle("{\"id\":\"1\",\"op\":\"ping\"}",
                 admitted.responder());  // inline: answered immediately
  CollectedResponse queued;
  service.Handle("{\"id\":\"2\",\"op\":\"stats\",\"trace\":\"missing.trc\"}",
                 queued.responder());

  service.Drain();  // paused scheduler still answers the admitted job
  const auto response = queued.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "io");

  CollectedResponse late;
  service.Handle("{\"id\":\"3\",\"op\":\"stats\",\"trace\":\"missing.trc\"}",
                 late.responder());
  EXPECT_EQ(late.get().error_code, "shutting_down");
  EXPECT_TRUE(admitted.get().ok);
}

TEST(Service, MalformedLineGetsStructuredErrorNotAThrow) {
  ces::service::ExplorationService::Options options;
  options.jobs = 1;
  ces::service::ExplorationService service(options);
  CollectedResponse bad;
  EXPECT_NO_THROW(service.Handle("{nope", bad.responder()));
  const auto response = bad.get();
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error_code, "parse");
  EXPECT_TRUE(response.id.empty());
}

// --------------------------------------------------------------------------
// End to end over a real socket

struct ServerFixture {
  explicit ServerFixture(MetricsRegistry* metrics,
                         std::size_t queue_limit = 256) {
    ces::service::ServerOptions options;
    options.unix_path = TempPath(".sock");
    options.service.jobs = 2;
    options.service.queue_limit = queue_limit;
    options.service.metrics = metrics;
    server = std::make_unique<ces::service::Server>(std::move(options));
    server->Start();
  }

  ces::service::Client NewClient(int attempts = 4) {
    ces::service::ClientOptions options;
    options.unix_path = server->endpoint().substr(5);  // strip "unix:"
    options.timeout_ms = 30'000;
    options.max_attempts = attempts;
    options.backoff_base_ms = 1;
    options.backoff_cap_ms = 20;
    options.jitter_seed = 0x5eed;
    return ces::service::Client(std::move(options));
  }

  std::unique_ptr<ces::service::Server> server;
};

TEST(ServerEndToEnd, ExploreMatchesOfflineExplorerAndRepeatsHitTheCache) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  const std::string trace_path = TempPath(".trc");
  const ces::trace::Trace trace = ces::trace::PaperExampleTrace();
  ces::trace::SaveToFile(trace_path, trace);

  const std::string request =
      "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"" + trace_path +
      "\",\"engine\":\"fused\",\"fraction\":0.05,\"max_index_bits\":4}";
  const auto first = client.Request(request);
  ASSERT_TRUE(first.ok) << first.raw;
  EXPECT_FALSE(first.cached);

  // The offline ground truth, computed the way cachedse explore does.
  ces::analytic::ExplorerOptions options;
  options.max_index_bits = 4;
  const ces::analytic::Explorer explorer(trace, options);
  const auto k = static_cast<std::uint64_t>(
      0.05 * static_cast<double>(explorer.stats().max_misses));
  const auto expected = explorer.Solve(k);
  EXPECT_EQ(first.k, k);
  EXPECT_EQ(first.stats.n, explorer.stats().n);
  EXPECT_EQ(first.stats.n_unique, explorer.stats().n_unique);
  EXPECT_EQ(first.stats.max_misses, explorer.stats().max_misses);
  ASSERT_EQ(first.points.size(), expected.points.size());
  for (std::size_t i = 0; i < expected.points.size(); ++i) {
    EXPECT_EQ(first.points[i].depth, expected.points[i].depth);
    EXPECT_EQ(first.points[i].assoc, expected.points[i].assoc);
    EXPECT_EQ(first.points[i].warm_misses, expected.points[i].warm_misses);
  }

  // Repeat: answered from the cache, same payload.
  const auto second = client.Request(request);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.k, first.k);
  ASSERT_EQ(second.points.size(), first.points.size());
  for (std::size_t i = 0; i < first.points.size(); ++i) {
    EXPECT_EQ(second.points[i].warm_misses, first.points[i].warm_misses);
  }
  EXPECT_GE(metrics.counter("service.cache.hit"), 1u);
  EXPECT_EQ(metrics.counter("service.prelude.built"), 1u);
  std::remove(trace_path.c_str());
}

TEST(ServerEndToEnd, ExploreJointMatchesOfflineAndRepeatsHitTheCache) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  // A split instruction/data trace pair, saved as server-side files.
  ces::trace::Trace instr = ces::trace::SequentialLoop(0, 48, 4);
  instr.kind = ces::trace::StreamKind::kInstruction;
  ces::Rng rng(0x90e2);
  ces::trace::Trace data = ces::trace::RandomWorkingSet(rng, 24, 96, 4096);
  const std::string instr_path = TempPath(".trc");
  const std::string data_path = TempPath(".trc");
  ces::trace::SaveToFile(instr_path, instr);
  ces::trace::SaveToFile(data_path, data);

  const std::string request =
      "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"" + data_path +
      "\",\"trace_instr\":\"" + instr_path + "\",\"space\":\"small\"}";
  const auto first = client.Request(request);
  ASSERT_TRUE(first.ok) << first.raw;
  EXPECT_FALSE(first.cached);
  EXPECT_EQ(first.engine, "fused");
  EXPECT_EQ(first.space, "small");
  EXPECT_TRUE(first.prune);
  EXPECT_EQ(first.digest.compare(0, 7, "sha256:"), 0);
  EXPECT_EQ(first.digest_instr.compare(0, 7, "sha256:"), 0);
  EXPECT_NE(first.digest, first.digest_instr);

  // Offline ground truth: the same merge, space and engine.
  const ces::trace::AccessSequence accesses =
      ces::explore::InterleaveProportional(instr, data);
  const ces::explore::JointSpace space =
      ces::explore::JointSpaceByName("small");
  const ces::explore::JointResult result =
      ces::explore::ExploreJoint(accesses, space);
  EXPECT_EQ(first.joint_json, ces::explore::JointReportJson(result, space));

  // Repeat by path: served from the result cache, byte-identical report.
  const auto second = client.Request(request);
  ASSERT_TRUE(second.ok) << second.raw;
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.joint_json, first.joint_json);

  // Repeat by digest pair: same cache entry, no file access involved.
  const auto third = client.Request(
      "{\"id\":\"3\",\"op\":\"explore-joint\",\"digest\":\"" + first.digest +
      "\",\"digest_instr\":\"" + first.digest_instr +
      "\",\"space\":\"small\"}");
  ASSERT_TRUE(third.ok) << third.raw;
  EXPECT_TRUE(third.cached);
  EXPECT_EQ(third.joint_json, first.joint_json);

  // An unpruned run is a different cache entry but must produce the same
  // front (the differential-oracle guarantee, end to end).
  const auto unpruned = client.Request(
      "{\"id\":\"4\",\"op\":\"explore-joint\",\"digest\":\"" + first.digest +
      "\",\"digest_instr\":\"" + first.digest_instr +
      "\",\"space\":\"small\",\"prune\":false}");
  ASSERT_TRUE(unpruned.ok) << unpruned.raw;
  EXPECT_FALSE(unpruned.cached);
  EXPECT_FALSE(unpruned.prune);
  ces::explore::JointOptions exhaustive;
  exhaustive.prune = false;
  EXPECT_EQ(unpruned.joint_json,
            ces::explore::JointReportJson(
                ExploreJoint(accesses, space, exhaustive), space));

  EXPECT_GE(metrics.counter("service.cache.hit"), 2u);
  std::remove(instr_path.c_str());
  std::remove(data_path.c_str());
}

TEST(ServerEndToEnd, PipelinedBatchIsAnsweredInRequestOrder) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  const std::string trace_path = TempPath(".trc");
  ces::trace::SaveToFile(trace_path, ces::trace::PaperExampleTrace());

  std::vector<std::string> lines;
  lines.push_back("{\"id\":\"a\",\"op\":\"ping\"}");
  lines.push_back("{\"id\":\"b\",\"op\":\"ingest\",\"trace\":\"" +
                  trace_path + "\"}");
  lines.push_back("{\"id\":\"c\",\"op\":\"stats\",\"trace\":\"" +
                  trace_path + "\"}");
  for (int k = 1; k <= 5; ++k) {
    lines.push_back("{\"id\":\"k" + std::to_string(k) +
                    "\",\"op\":\"explore\",\"trace\":\"" + trace_path +
                    "\",\"k\":" + std::to_string(k) +
                    ",\"max_index_bits\":4}");
  }
  lines.push_back("{\"id\":\"bad\",\"op\":\"explore\"}");

  const auto responses = client.Batch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].id, "a");
  EXPECT_TRUE(responses[1].ok);
  const std::string digest = responses[1].digest;
  EXPECT_EQ(digest.compare(0, 7, "sha256:"), 0);
  EXPECT_TRUE(responses[2].ok);
  EXPECT_EQ(responses[2].digest, digest);
  for (int k = 1; k <= 5; ++k) {
    const auto& response = responses[2 + static_cast<std::size_t>(k)];
    EXPECT_TRUE(response.ok) << response.raw;
    EXPECT_EQ(response.id, "k" + std::to_string(k));
    EXPECT_EQ(response.k, static_cast<std::uint64_t>(k));
  }
  EXPECT_FALSE(responses.back().ok);
  EXPECT_EQ(responses.back().id, "bad");
  EXPECT_EQ(responses.back().error_code, "validation");

  // The whole same-trace burst shared one trace read and one prelude.
  EXPECT_EQ(metrics.counter("service.prelude.built"), 1u);
  EXPECT_EQ(metrics.counter("service.store.ingested"), 1u);

  // Digest-addressed follow-up: no path needed once ingested.
  const auto by_digest = client.Request(
      "{\"id\":\"d\",\"op\":\"stats\",\"digest\":\"" + digest + "\"}");
  EXPECT_TRUE(by_digest.ok);
  EXPECT_EQ(by_digest.stats.n, 10u);  // the paper example's N
  std::remove(trace_path.c_str());
}

std::string ChunkLine(const std::string& token, std::uint64_t seq,
                      const std::uint32_t* refs, std::size_t n,
                      const std::string& encoding) {
  return "{\"id\":\"c" + std::to_string(seq) +
         "\",\"op\":\"trace-chunk\",\"upload\":\"" + token +
         "\",\"seq\":" + std::to_string(seq) + ",\"payload\":\"" +
         ces::service::protocol::EncodeChunkPayload(encoding, refs, n) +
         "\",\"encoding\":\"" + encoding + "\"}";
}

TEST(ServerEndToEnd, StreamingUploadThenExploreByDigestMatchesOffline) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  ces::Rng rng(0xbeef);
  const ces::trace::Trace trace =
      ces::trace::RandomWorkingSet(rng, 48, 1200, 4096);
  const std::string local_digest = TraceStore::DigestOf(trace);

  const auto begin = client.Request(
      "{\"id\":\"b\",\"op\":\"trace-begin\",\"count\":" +
      std::to_string(trace.refs.size()) +
      ",\"kind\":\"data\",\"address_bits\":32,\"name\":\"e2e upload\"}");
  ASSERT_TRUE(begin.ok) << begin.raw;
  const std::string token = begin.upload;
  ASSERT_FALSE(token.empty());

  // The whole chunk sequence pipelined as one batch, alternating payload
  // encodings — batch order is what carries the strict seq contract.
  std::vector<std::string> lines;
  constexpr std::size_t kChunk = 300;
  std::uint64_t seq = 0;
  for (std::size_t at = 0; at < trace.refs.size(); at += kChunk, ++seq) {
    const std::size_t n = std::min(kChunk, trace.refs.size() - at);
    lines.push_back(ChunkLine(token, seq, trace.refs.data() + at, n,
                              seq % 2 == 0 ? "hex" : "base64"));
  }
  const auto chunked = client.Batch(lines);
  ASSERT_EQ(chunked.size(), lines.size());
  for (const auto& response : chunked) {
    ASSERT_TRUE(response.ok) << response.raw;
  }
  EXPECT_EQ(chunked.back().received, trace.refs.size());

  // Sealing returns the canonical digest — the one the client can verify
  // locally without trusting the server.
  const auto end = client.Request(
      "{\"id\":\"e\",\"op\":\"trace-end\",\"upload\":\"" + token + "\"}");
  ASSERT_TRUE(end.ok) << end.raw;
  EXPECT_EQ(end.digest, local_digest);
  ASSERT_TRUE(end.has_stats);
  const ces::trace::TraceStats expected = ces::trace::ComputeStats(trace);
  EXPECT_EQ(end.stats.n, expected.n);
  EXPECT_EQ(end.stats.n_unique, expected.n_unique);
  EXPECT_EQ(end.stats.max_misses, expected.max_misses);

  // Exploring the uploaded digest replays byte-identical to the offline
  // explorer over the in-memory trace.
  const auto explored = client.Request(
      "{\"id\":\"x\",\"op\":\"explore\",\"digest\":\"" + end.digest +
      "\",\"k\":5,\"max_index_bits\":5}");
  ASSERT_TRUE(explored.ok) << explored.raw;
  ces::analytic::ExplorerOptions options;
  options.max_index_bits = 5;
  const ces::analytic::Explorer offline(trace, options);
  const auto want = offline.Solve(5);
  ASSERT_EQ(explored.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(explored.points[i].depth, want.points[i].depth);
    EXPECT_EQ(explored.points[i].assoc, want.points[i].assoc);
    EXPECT_EQ(explored.points[i].warm_misses, want.points[i].warm_misses);
  }

  // The token died with the seal: further chunks are structured validation
  // errors, not crashes or silent acks.
  const std::uint32_t one = 1;
  const auto stale = client.Request(ChunkLine(token, 0, &one, 1, "hex"));
  EXPECT_FALSE(stale.ok);
  EXPECT_EQ(stale.error_code, "validation");
  EXPECT_EQ(metrics.counter("service.upload.finished"), 1u);
}

// An instruction-kind CTRC file uploaded the way `cachedse-client upload
// --trace=F` does without --kind: LoadTraceRef under the default "data"
// reference kind, then UploadTrace. The session must run under the file
// header's kind, so the server seals on the local digest and the digest
// explores to the offline answer.
TEST(ServerEndToEnd, InstructionTraceUploadSealsUnderItsHeaderKind) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  ces::Rng rng(0x1257);
  ces::trace::Trace written = ces::trace::RandomWorkingSet(rng, 40, 900, 2048);
  written.kind = ces::trace::StreamKind::kInstruction;
  const std::string path = TempPath(".ctr");
  ces::trace::SaveToFile(path, written);

  const ces::trace::Trace trace = ces::service::LoadTraceRef(path, "data");
  ASSERT_EQ(trace.kind, ces::trace::StreamKind::kInstruction);
  std::vector<std::string> rids;
  const auto end = ces::service::UploadTrace(
      client, trace, "instr upload", "base64", 128,
      [&](const ces::service::Response& r) { rids.push_back(r.rid); });
  ASSERT_TRUE(end.ok) << end.raw;
  EXPECT_EQ(end.digest, TraceStore::DigestOf(trace));
  // trace-begin, ceil(900 / 128) = 8 chunks, trace-end.
  EXPECT_EQ(rids.size(), 10u);

  const auto explored = client.Request(
      "{\"id\":\"x\",\"op\":\"explore\",\"digest\":\"" + end.digest +
      "\",\"k\":3,\"max_index_bits\":6}");
  ASSERT_TRUE(explored.ok) << explored.raw;
  ces::analytic::ExplorerOptions options;
  options.max_index_bits = 6;
  const auto want = ces::analytic::Explorer(trace, options).Solve(3);
  ASSERT_EQ(explored.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    EXPECT_EQ(explored.points[i].depth, want.points[i].depth);
    EXPECT_EQ(explored.points[i].assoc, want.points[i].assoc);
    EXPECT_EQ(explored.points[i].warm_misses, want.points[i].warm_misses);
  }
  std::remove(path.c_str());
}

TEST(ServerEndToEnd, MidUploadDisconnectLeaksNothingIntoTheStore) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  const ces::trace::Trace trace = ces::trace::PaperExampleTrace();

  std::string orphan_token;
  {
    // A client starts an upload, ships one chunk, and vanishes without
    // sealing — a crashed uploader or a dropped connection.
    ces::service::Client doomed = fixture.NewClient();
    const auto begin = doomed.Request(
        "{\"id\":\"b\",\"op\":\"trace-begin\",\"count\":" +
        std::to_string(trace.refs.size()) + ",\"address_bits\":4}");
    ASSERT_TRUE(begin.ok) << begin.raw;
    orphan_token = begin.upload;
    const auto chunk = doomed.Request(
        ChunkLine(orphan_token, 0, trace.refs.data(), 3, "hex"));
    ASSERT_TRUE(chunk.ok) << chunk.raw;
  }

  // Nothing was pinned by the half-upload, the server still answers, and a
  // fresh client lands the same content on the canonical digest.
  ces::service::Client client = fixture.NewClient();
  EXPECT_TRUE(client.Request("{\"id\":\"p\",\"op\":\"ping\"}").ok);
  EXPECT_EQ(fixture.server->service().store().pinned_traces(), 0u);
  EXPECT_EQ(fixture.server->service().store().open_uploads(), 1u);

  const auto begin = client.Request(
      "{\"id\":\"b2\",\"op\":\"trace-begin\",\"count\":" +
      std::to_string(trace.refs.size()) + ",\"address_bits\":4}");
  ASSERT_TRUE(begin.ok) << begin.raw;
  ASSERT_NE(begin.upload, orphan_token);
  const auto chunk = client.Request(ChunkLine(
      begin.upload, 0, trace.refs.data(), trace.refs.size(), "hex"));
  ASSERT_TRUE(chunk.ok) << chunk.raw;
  const auto end = client.Request(
      "{\"id\":\"e\",\"op\":\"trace-end\",\"upload\":\"" + begin.upload +
      "\"}");
  ASSERT_TRUE(end.ok) << end.raw;
  EXPECT_EQ(end.digest, TraceStore::DigestOf(trace));
  EXPECT_EQ(fixture.server->service().store().pinned_traces(), 1u);

  // The orphaned session is still just bookkeeping — resuming its token
  // works (same connection or not), so slow uploaders are not punished.
  const auto resumed = client.Request(
      ChunkLine(orphan_token, 1, trace.refs.data() + 3,
                trace.refs.size() - 3, "hex"));
  ASSERT_TRUE(resumed.ok) << resumed.raw;
  const auto orphan_end = client.Request(
      "{\"id\":\"oe\",\"op\":\"trace-end\",\"upload\":\"" + orphan_token +
      "\"}");
  ASSERT_TRUE(orphan_end.ok) << orphan_end.raw;
  EXPECT_EQ(orphan_end.digest, end.digest);  // dedupes onto the same entry
  EXPECT_EQ(fixture.server->service().store().pinned_traces(), 1u);
}

TEST(ServerEndToEnd, ClientRetriesShedRequestsUntilAnswered) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics, /*queue_limit=*/1);
  fixture.server->service().scheduler().Pause();

  // Fill the queue, then a second request must be shed...
  ces::service::Client filler = fixture.NewClient(/*attempts=*/1);
  std::thread fill([&filler] {
    try {
      filler.Request(
          "{\"id\":\"fill\",\"op\":\"stats\",\"trace\":\"missing.trc\"}");
    } catch (const Error&) {
    }
  });
  while (metrics.counter("service.requests") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...and the retrying client must eventually get through once the queue
  // reopens. Resume from a helper thread after the shed has happened.
  std::thread resumer([&] {
    while (metrics.counter("service.queue.shed") < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    fixture.server->service().scheduler().Resume();
  });
  ces::service::Client retrying = fixture.NewClient(/*attempts=*/10);
  const auto response = retrying.Request(
      "{\"id\":\"retry\",\"op\":\"stats\",\"trace\":\"missing.trc\"}");
  EXPECT_FALSE(response.ok);        // missing.trc is still an io error...
  EXPECT_EQ(response.error_code, "io");  // ...but it was answered, not shed
  EXPECT_GE(metrics.counter("service.queue.shed"), 1u);
  fill.join();
  resumer.join();
}

TEST(ServerEndToEnd, DrainsCleanlyWhileLoaded) {
  MetricsRegistry metrics;
  auto fixture = std::make_unique<ServerFixture>(&metrics);
  ces::service::Client client = fixture->NewClient();

  const std::string trace_path = TempPath(".trc");
  ces::trace::SaveToFile(trace_path, ces::trace::PaperExampleTrace());

  // A batch in flight while the shutdown op lands on another connection.
  std::vector<std::string> lines;
  for (int k = 1; k <= 8; ++k) {
    lines.push_back("{\"id\":\"k" + std::to_string(k) +
                    "\",\"op\":\"explore\",\"trace\":\"" + trace_path +
                    "\",\"k\":" + std::to_string(k) +
                    ",\"max_index_bits\":4}");
  }
  auto in_flight = std::async(std::launch::async, [&client, &lines] {
    return client.Batch(lines);
  });

  ces::service::Client controller = fixture->NewClient();
  const auto ack =
      controller.Request("{\"id\":\"s\",\"op\":\"shutdown\"}");
  EXPECT_TRUE(ack.ok);
  fixture->server->Wait();  // graceful: everything admitted is answered

  // The in-flight batch either completed (all answered before the drain)
  // or was partially shed with "shutting_down" — the client surfaces that
  // as an exhausted retry budget, never as a hang or a crash.
  try {
    const auto responses = in_flight.get();
    for (const auto& response : responses) {
      if (!response.ok) {
        EXPECT_EQ(response.error_code, "shutting_down") << response.raw;
      }
    }
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
  }
  fixture.reset();  // idempotent teardown
  std::remove(trace_path.c_str());
}

TEST(ServerEndToEnd, SecondServerOnSamePathRefusesToStartWhileLive) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  const std::string path = fixture.server->endpoint().substr(5);

  // A second daemon pointed at the live endpoint must fail Start instead of
  // silently unlinking the inode out from under the running one.
  ces::service::ServerOptions options;
  options.unix_path = path;
  ces::service::Server usurper(std::move(options));
  EXPECT_THROW(usurper.Start(), Error);

  // The original daemon kept its endpoint and still answers.
  ces::service::Client client = fixture.NewClient();
  EXPECT_TRUE(client.Request("{\"id\":\"p\",\"op\":\"ping\"}").ok);
}

TEST(ServerEndToEnd, StaleSocketInodeIsReclaimed) {
  const std::string path = TempPath(".sock");
  // Simulate a daemon that died without unlinking: bind an inode, then
  // close the socket, so connecting to the path yields ECONNREFUSED.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(stale);

  ces::service::ServerOptions options;
  options.unix_path = path;
  ces::service::Server server(std::move(options));
  EXPECT_NO_THROW(server.Start());
  server.RequestShutdown();
  server.Wait();
}

TEST(ServerEndToEnd, FinishedConnectionsAreReapedWhileRunning) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  for (int i = 0; i < 12; ++i) {
    ces::service::Client client = fixture.NewClient();
    EXPECT_TRUE(client.Request("{\"id\":\"p\",\"op\":\"ping\"}").ok);
  }  // every client has disconnected here
  // The acceptor sweeps finished connections before each accept, so fresh
  // probes eventually observe the live-connection gauge collapsing to just
  // themselves — without the sweep it would sit at 13+ until shutdown.
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    ces::service::Client probe = fixture.NewClient();
    EXPECT_TRUE(probe.Request("{\"id\":\"p\",\"op\":\"ping\"}").ok);
    reaped = metrics.gauge("service.connections.live") <= 3;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(reaped);
  EXPECT_GE(metrics.counter("service.connections"), 13u);
}

// --------------------------------------------------------------------------
// Client resend policy against a scripted peer

// A Unix-socket peer that plays a fixed script. The constructor binds the
// path without listening, so connects are refused until Listen(). Then
// connection i reads one request line and closes, after writing replies[i]
// if that entry is non-empty (an empty entry is a mid-stream hangup).
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<std::string> replies)
      : path_(TempPath(".sock")), replies_(std::move(replies)) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }
  ~ScriptedPeer() {
    Stop();
    ::close(fd_);
    std::remove(path_.c_str());
  }

  void Listen() {
    EXPECT_EQ(::listen(fd_, 8), 0);
    thread_ = std::thread([this] { Serve(); });
  }

  // Stops accepting and returns the request lines read, in order.
  std::vector<std::string> Stop() {
    ::shutdown(fd_, SHUT_RDWR);  // fails a blocked accept
    if (thread_.joinable()) thread_.join();
    return lines_;
  }

  ces::service::Client NewClient(int attempts, bool verbose = false) const {
    ces::service::ClientOptions options;
    options.unix_path = path_;
    options.timeout_ms = 10'000;
    options.max_attempts = attempts;
    options.backoff_base_ms = 5;
    options.backoff_cap_ms = 20;
    options.jitter_seed = 0x5eed;
    options.verbose = verbose;
    return ces::service::Client(std::move(options));
  }

  const std::string& path() const { return path_; }

 private:
  void Serve() {
    for (const std::string& reply : replies_) {
      const int fd = ::accept(fd_, nullptr, nullptr);
      if (fd < 0) return;
      std::string line;
      char c = 0;
      while (::recv(fd, &c, 1, 0) == 1 && c != '\n') line.push_back(c);
      lines_.push_back(line);
      if (!reply.empty()) {
        const std::string framed = reply + "\n";
        ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL);
      }
      ::close(fd);
    }
  }

  std::string path_;
  std::vector<std::string> replies_;
  int fd_ = -1;
  std::thread thread_;
  std::vector<std::string> lines_;  // read only after the join in Stop()
};

const char kExploreLine[] =
    "{\"id\":\"e\",\"op\":\"explore\",\"trace\":\"crc\",\"k\":3}";

std::string CannedExploreAnswer() {
  std::vector<ces::analytic::DesignPoint> points;
  points.push_back({.depth = 8, .assoc = 1, .warm_misses = 3});
  return ces::service::protocol::ExploreResponse(
      "e", "sha256:" + std::string(64, 'c'), "fused", 3,
      ces::trace::TraceStats{10, 4, 6}, points, false, "r1");
}

TEST(ClientResend, RefusedConnectsSpendTheAttemptBudget) {
  ScriptedPeer peer({CannedExploreAnswer()});  // bound, never listening
  ces::service::Client client = peer.NewClient(/*attempts=*/3);
  try {
    client.Batch({kExploreLine});
    FAIL() << "a peer that never listens must exhaust the budget";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
    const std::string what = e.what();
    EXPECT_NE(what.find("(3 attempts)"), std::string::npos) << what;
    EXPECT_NE(what.find("unix:" + peer.path()), std::string::npos) << what;
  }
  EXPECT_TRUE(peer.Stop().empty());
}

TEST(ClientResend, RefusedConnectIsRetriedUntilThePeerListens) {
  ScriptedPeer peer({CannedExploreAnswer()});
  ces::service::Client client = peer.NewClient(/*attempts=*/200,
                                               /*verbose=*/true);
  // The client's first connect lands long before the peer listens; the
  // budget (200 attempts of 2.5-20 ms backoff) outlasts the wait.
  auto listener = std::async(std::launch::async, [&peer] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    peer.Listen();
  });
  testing::internal::CaptureStderr();
  const std::vector<ces::service::Response> responses =
      client.Batch({kExploreLine});
  const std::string notes = testing::internal::GetCapturedStderr();
  listener.get();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok) << responses[0].raw;
  EXPECT_EQ(responses[0].k, 3u);
  EXPECT_NE(notes.find("cannot connect to unix:" + peer.path()),
            std::string::npos)
      << notes;
  EXPECT_EQ(peer.Stop(), std::vector<std::string>{kExploreLine});
}

TEST(ClientResend, MidStreamHangupResendsAnIdempotentExplore) {
  ScriptedPeer peer({"", CannedExploreAnswer()});
  peer.Listen();
  ces::service::Client client = peer.NewClient(/*attempts=*/3);
  const std::vector<ces::service::Response> responses =
      client.Batch({kExploreLine});
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].ok) << responses[0].raw;
  EXPECT_EQ(responses[0].id, "e");
  ASSERT_EQ(responses[0].points.size(), 1u);
  EXPECT_EQ(responses[0].points[0].depth, 8u);
  // The first connection hung up after reading the line; the second got
  // the identical line again and answered it.
  EXPECT_EQ(peer.Stop(),
            (std::vector<std::string>{kExploreLine, kExploreLine}));
}

TEST(ClientResend, MidStreamHangupWithTraceBeginInFlightAbortsWithIo) {
  const std::string begin =
      "{\"id\":\"b\",\"op\":\"trace-begin\",\"count\":4,"
      "\"address_bits\":32}";
  ScriptedPeer peer({"", CannedExploreAnswer()});
  peer.Listen();
  ces::service::Client client = peer.NewClient(/*attempts=*/3);
  try {
    client.Batch({begin});
    FAIL() << "an unanswered trace-begin must not be resent";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kIo);
    EXPECT_NE(std::string(e.what()).find("'trace-begin'"), std::string::npos)
        << e.what();
  }
  // Exactly one connection saw it: the session may exist server-side, so a
  // second trace-begin would open a duplicate.
  EXPECT_EQ(peer.Stop(), std::vector<std::string>{begin});
}

// --------------------------------------------------------------------------
// Telemetry: request ids, the structured request log, stats/health ops

// Splits an NDJSON file into its non-empty lines.
std::vector<std::string> ReadLogLines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  if (f != nullptr) {
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
      content.append(buffer, n);
    }
    std::fclose(f);
  }
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t newline = content.find('\n', start);
    if (newline == std::string::npos) break;
    if (newline > start) lines.push_back(content.substr(start, newline - start));
    start = newline + 1;
  }
  return lines;
}

// The fixed field order every request-log line must carry, verbatim.
const char* const kLogFields[] = {"ts_us",   "rid",     "id",     "op",
                                  "trace",   "digest",  "outcome", "error",
                                  "queue_us", "exec_us", "total_us", "bytes"};

TEST(Telemetry, RequestLogCoversEveryPathWithFixedSchema) {
  const std::string log_path = TempPath(".ndjson");
  const std::string hostile = TempPath("evil\"na\\me\n.trc");
  MetricsRegistry metrics;
  ces::support::RequestLog log;
  ASSERT_TRUE(log.Open(log_path));
  {
    ces::service::ExplorationService::Options options;
    options.jobs = 2;
    options.metrics = &metrics;
    options.request_log = &log;
    ces::service::ExplorationService service(options);

    CollectedResponse ping, computed, hit, io_error, server_stats, bad;
    service.Handle("{\"id\":\"p\",\"op\":\"ping\"}", ping.responder());
    EXPECT_TRUE(ping.get().ok);
    service.Handle("{\"id\":\"e1\",\"op\":\"explore\",\"trace\":\"crc\","
                   "\"k\":4}",
                   computed.responder());
    EXPECT_TRUE(computed.get().ok);
    service.Handle("{\"id\":\"e2\",\"op\":\"explore\",\"trace\":\"crc\","
                   "\"k\":4}",
                   hit.responder());
    EXPECT_TRUE(hit.get().cached);
    // A hostile trace reference: the error path must keep the log valid.
    service.Handle("{\"id\":\"x\",\"op\":\"stats\",\"trace\":" +
                       ces::support::JsonQuote(hostile) + "}",
                   io_error.responder());
    EXPECT_EQ(io_error.get().error_code, "io");
    service.Handle("{\"id\":\"s\",\"op\":\"stats\"}",
                   server_stats.responder());
    EXPECT_TRUE(server_stats.get().ok);
    service.Handle("{nope", bad.responder());
    EXPECT_EQ(bad.get().error_code, "parse");
    service.Drain();
  }

  const std::vector<std::string> lines = ReadLogLines(log_path);
  ASSERT_EQ(lines.size(), 6u);
  std::set<std::string> outcomes;
  for (const std::string& line : lines) {
    // Every line is standalone-valid JSON with the exact field order: the
    // next key's quoted name must appear, in sequence, as written.
    const ces::testjson::JsonValidator validator(line);
    EXPECT_TRUE(validator.Valid()) << validator.error() << "\n" << line;
    std::size_t cursor = 0;
    for (const char* field : kLogFields) {
      const std::string needle = std::string("\"") + field + "\":";
      const std::size_t at = line.find(needle, cursor);
      ASSERT_NE(at, std::string::npos) << field << " missing in " << line;
      cursor = at + needle.size();
    }
    // outcome is the 7th field; extract it for the coverage check below.
    const std::size_t at = line.find("\"outcome\":\"");
    ASSERT_NE(at, std::string::npos);
    const std::size_t begin = at + 11;
    outcomes.insert(line.substr(begin, line.find('"', begin) - begin));
  }
  EXPECT_TRUE(outcomes.count("inline"));     // ping, server stats
  EXPECT_TRUE(outcomes.count("computed"));   // first explore
  EXPECT_TRUE(outcomes.count("cache_hit"));  // repeat explore
  EXPECT_TRUE(outcomes.count("error"));      // hostile trace + bad line
  // The hostile trace name survived JsonQuote round-trippable (escaped, not
  // raw): no line may contain a raw newline (NDJSON framing) and the name's
  // quote must be escaped.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
  const auto hostile_line =
      std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
        return line.find("\"id\":\"x\"") != std::string::npos;
      });
  ASSERT_NE(hostile_line, lines.end());
  EXPECT_NE(hostile_line->find("evil\\\"na\\\\me\\n.trc"), std::string::npos)
      << *hostile_line;
  // Latency accounting: computed explores carry exec time and total >= queue.
  const auto computed_line =
      std::find_if(lines.begin(), lines.end(), [](const std::string& line) {
        return line.find("\"outcome\":\"computed\"") != std::string::npos;
      });
  ASSERT_NE(computed_line, lines.end());
  EXPECT_NE(computed_line->find("\"digest\":\"sha256:"), std::string::npos);
  std::remove(log_path.c_str());
}

TEST(Telemetry, RidsAreUniqueAndEchoedThroughBatchedFanout) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  // A mixed pipelined batch: same-trace explores that the scheduler batches
  // into one fused pass, plus inline ops — every response must carry its
  // own server-assigned rid.
  std::vector<std::string> lines;
  for (int k = 1; k <= 6; ++k) {
    lines.push_back("{\"id\":\"e" + std::to_string(k) +
                    "\",\"op\":\"explore\",\"trace\":\"crc\",\"k\":" +
                    std::to_string(k) + "}");
  }
  lines.push_back("{\"id\":\"p\",\"op\":\"ping\"}");
  lines.push_back("{\"id\":\"s\",\"op\":\"stats\"}");
  const auto responses = client.Batch(lines);
  ASSERT_EQ(responses.size(), lines.size());
  std::set<std::string> rids;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok) << responses[i].raw;
    ASSERT_FALSE(responses[i].rid.empty()) << responses[i].raw;
    EXPECT_EQ(responses[i].rid[0], 'r');
    rids.insert(responses[i].rid);
  }
  EXPECT_EQ(rids.size(), lines.size());  // one rid per request, no reuse

  // Error responses carry a rid too.
  const auto error = client.Request("{\"id\":\"bad\",\"op\":\"nope\"}");
  EXPECT_FALSE(error.ok);
  EXPECT_FALSE(error.rid.empty());
  EXPECT_EQ(rids.count(error.rid), 0u);
  fixture.server->RequestShutdown();
  fixture.server->Wait();
}

TEST(Telemetry, StatsAndHealthOpsExposeTheSnapshot) {
  MetricsRegistry metrics;
  ServerFixture fixture(&metrics);
  ces::service::Client client = fixture.NewClient();

  EXPECT_TRUE(
      client.Request("{\"id\":\"w\",\"op\":\"explore\",\"trace\":\"crc\","
                     "\"k\":3}")
          .ok);
  const auto stats = client.Request("{\"id\":\"s\",\"op\":\"stats\"}");
  ASSERT_TRUE(stats.ok) << stats.raw;
  EXPECT_FALSE(stats.server_json.empty());
  EXPECT_NE(stats.server_json.find("\"uptime_us\""), std::string::npos);
  EXPECT_NE(stats.server_json.find("\"git_sha\""), std::string::npos);
  EXPECT_NE(stats.server_json.find("\"traces_pinned\":1"), std::string::npos);
  // The active prelude kernel rides in the snapshot so an operator can tell
  // which dispatch level a deployed daemon resolved (docs/SIMD.md).
  const std::string expect_kernel =
      std::string("\"simd_kernel\":\"") +
      ces::support::simd::LevelName(ces::support::simd::ActiveLevel()) + "\"";
  EXPECT_NE(stats.server_json.find(expect_kernel), std::string::npos)
      << stats.server_json;
  // The metrics snapshot rides along, with exact percentile fields on the
  // latency histograms.
  EXPECT_NE(stats.raw.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(stats.raw.find("\"service.request.latency_us\""),
            std::string::npos);
  EXPECT_NE(stats.raw.find("\"p99\":"), std::string::npos);
  // `stats` with a trace reference keeps its original meaning.
  const auto trace_stats =
      client.Request("{\"id\":\"t\",\"op\":\"stats\",\"trace\":\"crc\"}");
  ASSERT_TRUE(trace_stats.ok);
  EXPECT_TRUE(trace_stats.has_stats);
  EXPECT_TRUE(trace_stats.server_json.empty());

  const auto health = client.Request("{\"id\":\"h\",\"op\":\"health\"}");
  ASSERT_TRUE(health.ok) << health.raw;
  EXPECT_TRUE(health.has_healthy);
  EXPECT_TRUE(health.healthy);
  EXPECT_NE(health.server_json.find("\"draining\":false"),
            std::string::npos);
  fixture.server->RequestShutdown();
  fixture.server->Wait();
}

TEST(Telemetry, DeterministicMetricsAreByteIdenticalAcrossJobs) {
  // The same synchronous request sequence at jobs=1/2/8 must leave the
  // deterministic metrics surface (counters + histograms — exactly what
  // ToJson() emits by default) byte-identical; the stats op's volatile
  // sections are where the run-specific numbers live.
  std::vector<std::string> snapshots;
  for (const unsigned jobs : {1u, 2u, 8u}) {
    MetricsRegistry metrics;
    {
      ces::service::ExplorationService::Options options;
      options.jobs = jobs;
      options.metrics = &metrics;
      ces::service::ExplorationService service(options);
      for (const char* line :
           {"{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"crc\",\"k\":5}",
            "{\"id\":\"2\",\"op\":\"explore\",\"trace\":\"crc\",\"k\":5}",
            "{\"id\":\"3\",\"op\":\"stats\",\"trace\":\"crc\"}",
            "{\"id\":\"4\",\"op\":\"stats\"}", "{\"id\":\"5\",\"op\":\"health\"}"}) {
        CollectedResponse collected;
        service.Handle(line, collected.responder());
        EXPECT_TRUE(collected.get().ok) << line;
      }
      service.Drain();
    }
    snapshots.push_back(metrics.ToJson());
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
  // The surface is not trivially empty: it counted real service work.
  EXPECT_NE(snapshots[0].find("\"service.requests\""), std::string::npos);
}

}  // namespace
