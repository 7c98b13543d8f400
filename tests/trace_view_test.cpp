// Out-of-core trace access: mmap-vs-memory equivalence and robustness.
//
// The load-bearing guarantee of the TraceView layer is differential: every
// observable — strip output, statistics, exploration profiles, and the
// deterministic metrics surface — must be byte-identical between the mmap
// view and the materialised in-memory pipeline on the same content, for
// every jobs count. On top of that, corrupt CTRC files must surface the
// same structured error categories as the stream readers, and a full pass
// over a trace ~10x a configured memory budget must keep the resident set
// flat (the release-behind contract).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <streambuf>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_view.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CES_UNDER_ASAN 1
#endif
#endif
#if !defined(CES_UNDER_ASAN) && defined(__SANITIZE_ADDRESS__)
#define CES_UNDER_ASAN 1
#endif

namespace {

using namespace ces::trace;
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

std::string TempPath(const char* suffix) {
  static std::atomic<int> counter{0};
  return testing::TempDir() + "ces_view_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + suffix;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good());
}

void AppendU32(std::string& bytes, std::uint32_t value) {
  bytes.push_back(static_cast<char>(value & 0xff));
  bytes.push_back(static_cast<char>((value >> 8) & 0xff));
  bytes.push_back(static_cast<char>((value >> 16) & 0xff));
  bytes.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::string CtrcBytes(std::uint32_t kind, std::uint32_t address_bits,
                      std::uint32_t count, std::uint32_t version = 1,
                      const char* magic = "CTRC") {
  std::string bytes(magic, 4);
  AppendU32(bytes, version);
  AppendU32(bytes, kind);
  AppendU32(bytes, address_bits);
  AppendU32(bytes, count);
  return bytes;
}

// A representative trace saved as a raw CTRC file; the caller removes it.
std::string SaveCtrc(const Trace& trace) {
  const std::string path = TempPath(".ctr");
  SaveToFile(path, trace);
  return path;
}

Trace MixedTrace() {
  ces::Rng rng(0x71ce);
  Trace trace = LocalityMix(rng, 96, 2048, 6000);
  trace.kind = StreamKind::kInstruction;
  trace.address_bits = 24;
  return trace;
}

TEST(TraceView, MmapAgreesWithMemoryOnHeaderStripStatsAndMaterialize) {
  const Trace trace = MixedTrace();
  const std::string path = SaveCtrc(trace);

  const auto view = TryOpenMmap(path);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->size(), trace.refs.size());
  EXPECT_EQ(view->kind(), trace.kind);
  EXPECT_EQ(view->address_bits(), trace.address_bits);

  // Strip and statistics, including the re-blocking path (line_words > 1),
  // match the materialised pipeline exactly.
  for (const std::uint32_t line_words : {1u, 4u}) {
    const StrippedTrace streamed = Strip(*view, line_words);
    const StrippedTrace direct = Strip(WithLineSize(trace, line_words));
    EXPECT_EQ(streamed.unique, direct.unique) << line_words;
    EXPECT_EQ(streamed.ids, direct.ids) << line_words;
    EXPECT_EQ(streamed.is_first, direct.is_first) << line_words;

    const TraceStats a = ComputeStats(*view, line_words);
    const TraceStats b = ComputeStats(direct);
    EXPECT_EQ(a.n, b.n) << line_words;
    EXPECT_EQ(a.n_unique, b.n_unique) << line_words;
    EXPECT_EQ(a.max_misses, b.max_misses) << line_words;
  }

  // MaterializeTrace is the exact inverse of the save.
  const Trace round = MaterializeTrace(*view);
  EXPECT_EQ(round.refs, trace.refs);
  EXPECT_EQ(round.kind, trace.kind);
  EXPECT_EQ(round.address_bits, trace.address_bits);
  std::remove(path.c_str());
}

TEST(TraceView, StreamingCompressorMatchesInMemoryWriterByteForByte) {
  Trace trace = MixedTrace();
  trace.name.clear();  // CTRZ carries no name either way
  const std::string path = SaveCtrc(trace);
  const auto view = TryOpenMmap(path);
  ASSERT_NE(view, nullptr);

  std::ostringstream from_trace;
  WriteCompressed(from_trace, trace);
  std::ostringstream from_view;
  WriteCompressed(from_view, *view);
  EXPECT_EQ(from_view.str(), from_trace.str());

  // ...and the archive decodes back to the original content.
  std::istringstream archive(from_view.str());
  EXPECT_EQ(ReadCompressed(archive).refs, trace.refs);
  std::remove(path.c_str());
}

TEST(TraceView, ExplorerFromViewIsByteIdenticalAcrossJobs) {
  // The pinned repo-wide invariant, extended out-of-core: profiles AND the
  // deterministic metrics surface (`--metrics=json` without timings) are
  // byte-identical between Explorer(view) and Explorer(trace), for every
  // jobs count.
  const Trace trace = MixedTrace();
  const std::string path = SaveCtrc(trace);

  std::string expected_metrics;
  std::vector<std::uint64_t> expected_misses;
  for (const bool mmapped : {false, true}) {
    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
      MetricsRegistry metrics;
      ces::analytic::ExplorerOptions options;
      options.max_index_bits = 8;
      options.jobs = jobs;
      options.metrics = &metrics;

      // Both paths read the same file so the parse-side counters
      // (trace.refs_parsed) participate in the comparison too.
      std::unique_ptr<MmapTraceView> view;
      Trace loaded;
      if (mmapped) {
        view = TryOpenMmap(path, &metrics);
        ASSERT_NE(view, nullptr);
      } else {
        loaded = LoadFromFile(path, &metrics);
      }
      const ces::analytic::Explorer explorer =
          mmapped ? ces::analytic::Explorer(*view, options)
                  : ces::analytic::Explorer(loaded, options);

      std::vector<std::uint64_t> misses;
      for (const std::uint64_t k : {0ull, 3ull, 50ull}) {
        for (const auto& point : explorer.Solve(k).points) {
          misses.push_back(point.warm_misses);
          misses.push_back(point.depth);
          misses.push_back(point.assoc);
        }
      }
      const std::string json = metrics.ToJson(/*include_volatile=*/false);
      if (expected_metrics.empty()) {
        expected_metrics = json;
        expected_misses = misses;
      } else {
        EXPECT_EQ(misses, expected_misses)
            << "mmapped=" << mmapped << " jobs=" << jobs;
        EXPECT_EQ(json, expected_metrics)
            << "mmapped=" << mmapped << " jobs=" << jobs;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(TraceView, CorruptFilesSurfaceTheStreamReadersCategories) {
  struct Case {
    const char* name;
    std::string bytes;
    ErrorCategory expected;
  };
  std::string short_payload = CtrcBytes(0, 32, /*count=*/8);
  AppendU32(short_payload, 1);  // 1 of 8 declared refs present
  std::string trailing = CtrcBytes(0, 32, /*count=*/1);
  AppendU32(trailing, 7);
  trailing += "junk";  // 4 bytes no declared reference accounts for
  const Case cases[] = {
      {"garbage magic", CtrcBytes(0, 32, 0, 1, "XXXX"),
       ErrorCategory::kFormat},
      {"bad version", CtrcBytes(0, 32, 0, /*version=*/9),
       ErrorCategory::kFormat},
      {"bad kind", CtrcBytes(7, 32, 0), ErrorCategory::kFormat},
      {"zero address bits", CtrcBytes(0, 0, 0), ErrorCategory::kValidation},
      {"oversized address bits", CtrcBytes(0, 48, 0),
       ErrorCategory::kValidation},
      {"count overruns file", short_payload, ErrorCategory::kValidation},
      {"header cut short", std::string("CTRC\x01\x00", 6),
       ErrorCategory::kTruncated},
      {"bytes after the payload", trailing, ErrorCategory::kFormat},
  };
  for (const auto& c : cases) {
    const std::string path = TempPath(".ctr");
    WriteFileBytes(path, c.bytes);
    EXPECT_EQ(CategoryOf([&] { MmapTraceView bad(path); }), c.expected)
        << c.name;
    std::remove(path.c_str());
  }

  // A CTRZ file explains itself rather than claiming corruption.
  const std::string packed_path = TempPath(".ctrz");
  std::ostringstream packed;
  WriteCompressed(packed, PaperExampleTrace());
  WriteFileBytes(packed_path, packed.str());
  try {
    MmapTraceView bad(packed_path);
    FAIL() << "CTRZ into the mmap view must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUnsupported);
    EXPECT_NE(std::string(e.what()).find("CTRZ"), std::string::npos);
  }
  std::remove(packed_path.c_str());
}

TEST(TraceView, ReadValidatesReferencesAgainstDeclaredBits) {
  // The header is fine (8 bits), the payload is not (0x100 needs 9): the
  // damage surfaces at read time with the same category the stream reader
  // uses, instead of poisoning downstream analysis.
  std::string bytes = CtrcBytes(0, /*address_bits=*/8, /*count=*/2);
  AppendU32(bytes, 0xff);
  AppendU32(bytes, 0x100);
  const std::string path = TempPath(".ctr");
  WriteFileBytes(path, bytes);

  const auto view = TryOpenMmap(path);
  ASSERT_NE(view, nullptr);  // header validation alone passes
  std::uint32_t out[4];
  EXPECT_EQ(CategoryOf([&] { view->Read(0, out, 4); }),
            ErrorCategory::kValidation);
  std::remove(path.c_str());
}

TEST(TraceView, TryOpenFallsBackGracefullyByFormat) {
  // Missing file and foreign formats: nullptr, so callers fall back to the
  // in-memory readers; only genuinely corrupt CTRC still throws (above).
  EXPECT_EQ(TryOpenMmap("/nonexistent/trace.ctr"), nullptr);

  const Trace trace = PaperExampleTrace();
  const std::string text_path = TempPath(".trc");
  SaveToFile(text_path, trace);
  EXPECT_EQ(TryOpenMmap(text_path), nullptr);

  const std::string packed_path = TempPath(".ctrz");
  SaveToFile(packed_path, trace);
  EXPECT_EQ(TryOpenMmap(packed_path), nullptr);

  // OpenTraceView never returns nullptr: every mode loads every format.
  const std::string ctrc_path = SaveCtrc(trace);
  for (const TraceIoMode mode :
       {TraceIoMode::kAuto, TraceIoMode::kMemory, TraceIoMode::kMmap}) {
    for (const std::string& p : {text_path, packed_path, ctrc_path}) {
      const auto view = OpenTraceView(p, mode);
      ASSERT_NE(view, nullptr) << p;
      EXPECT_EQ(MaterializeTrace(*view).refs, trace.refs) << p;
    }
  }
  EXPECT_EQ(CategoryOf([] { OpenTraceView("/nonexistent/trace.ctr"); }),
            ErrorCategory::kIo);
  std::remove(text_path.c_str());
  std::remove(packed_path.c_str());
  std::remove(ctrc_path.c_str());
}

// --- Differential: id table and codec --------------------------------------
//
// Every strip and statistics entry point shares one id table, so agreeing
// with each other proves nothing on its own: each path is also checked
// against an ordered-map oracle that numbers lines the obvious way.

StrippedTrace OracleStrip(const Trace& trace, std::uint32_t line_words) {
  std::uint32_t shift = 0;
  while ((1u << shift) < line_words) ++shift;
  StrippedTrace out;
  out.address_bits =
      trace.address_bits > shift ? trace.address_bits - shift : 1;
  std::map<std::uint32_t, std::uint32_t> id_of;
  for (const std::uint32_t ref : trace.refs) {
    const std::uint32_t line = ref >> shift;
    const auto found = id_of.find(line);
    const bool cold = found == id_of.end();
    const std::uint32_t id =
        cold ? static_cast<std::uint32_t>(out.unique.size()) : found->second;
    if (cold) {
      id_of.emplace(line, id);
      out.unique.push_back(line);
    }
    out.ids.push_back(id);
    out.is_first.push_back(cold);
  }
  return out;
}

// The definition: warm positions whose id differs from the one before.
TraceStats OracleStats(const StrippedTrace& stripped) {
  TraceStats stats;
  stats.n = stripped.ids.size();
  stats.n_unique = stripped.unique.size();
  for (std::size_t j = 1; j < stripped.ids.size(); ++j) {
    if (!stripped.is_first[j] && stripped.ids[j] != stripped.ids[j - 1]) {
      ++stats.max_misses;
    }
  }
  return stats;
}

void ExpectSameStrip(const StrippedTrace& got, const StrippedTrace& want,
                     const std::string& where) {
  EXPECT_EQ(got.unique, want.unique) << where;
  EXPECT_EQ(got.ids, want.ids) << where;
  EXPECT_EQ(got.is_first, want.is_first) << where;
  EXPECT_EQ(got.address_bits, want.address_bits) << where;
}

void ExpectSameStats(const TraceStats& got, const TraceStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.n, want.n) << where;
  EXPECT_EQ(got.n_unique, want.n_unique) << where;
  EXPECT_EQ(got.max_misses, want.max_misses) << where;
}

Trace MakeTrace(std::vector<std::uint32_t> refs, std::uint32_t address_bits) {
  Trace trace;
  trace.refs = std::move(refs);
  trace.address_bits = address_bits;
  return trace;
}

// Seeded adversarial shapes for the id table, each a (name, trace) pair.
std::vector<std::pair<std::string, Trace>> AdversarialTraces() {
  ces::Rng rng(0xd1ff);
  std::vector<std::pair<std::string, Trace>> traces;
  traces.emplace_back("empty", MakeTrace({}, 32));
  // Address 0 first: a same-line fast path that fires before any line was
  // seen would hand it a stale id instead of numbering it.
  traces.emplace_back(
      "extremes",
      MakeTrace({0, 0xffffffffu, 0, 0xffffffffu, 0xffffffffu, 0, 1,
                  0xfffffffeu, 0x80000000u, 0x7fffffffu, 0},
                 32));
  {
    std::vector<std::uint32_t> bits1(3000);
    for (auto& ref : bits1) ref = static_cast<std::uint32_t>(rng.Next() & 1);
    traces.emplace_back("address_bits 1", MakeTrace(std::move(bits1), 1));
  }
  {
    // 40k distinct lines: the table doubles from 256 slots past 64k.
    // Strided addresses vary in their high bits, shuffled ones everywhere.
    std::vector<std::uint32_t> strided(40000);
    for (std::uint32_t i = 0; i < strided.size(); ++i) strided[i] = i << 16;
    traces.emplace_back("all distinct, strided",
                        MakeTrace(strided, 32));
    std::vector<std::uint32_t> shuffled(40000);
    for (std::uint32_t i = 0; i < shuffled.size(); ++i) {
      shuffled[i] = i * 0x9e3779b1u;
    }
    for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
      std::swap(shuffled[i], shuffled[rng.NextBounded(i + 1)]);
    }
    // ...and then every line again, so lookups after the rehashes count.
    std::vector<std::uint32_t> twice = shuffled;
    twice.insert(twice.end(), shuffled.rbegin(), shuffled.rend());
    traces.emplace_back("all distinct, revisited",
                        MakeTrace(std::move(twice), 32));
  }
  traces.emplace_back("one hot line",
                      MakeTrace(std::vector<std::uint32_t>(5000, 0x1234), 32));
  {
    std::vector<std::uint32_t> alternating(5000);
    for (std::size_t i = 0; i < alternating.size(); ++i) {
      alternating[i] = i % 2 == 0 ? 0x40 : 0x47;  // one line at 8 words
    }
    traces.emplace_back("two alternating lines",
                        MakeTrace(std::move(alternating), 32));
  }
  for (const std::uint32_t hot : {4u, 96u, 700u}) {
    Trace mix = LocalityMix(rng, hot, 4 * hot, 20000);
    traces.emplace_back("locality mix " + std::to_string(hot),
                        std::move(mix));
  }
  return traces;
}

TEST(Differential, StripAndStatsAgreeAcrossPathsAndWithAnOracle) {
  for (const auto& [name, trace] : AdversarialTraces()) {
    const std::string path = SaveCtrc(trace);
    const MmapTraceView mapped(path);
    const MemoryTraceView in_memory(std::make_shared<const Trace>(trace));
    for (const std::uint32_t line_words : {1u, 2u, 4u, 8u}) {
      const std::string where =
          name + " at " + std::to_string(line_words) + " words/line";
      const StrippedTrace want = OracleStrip(trace, line_words);
      const TraceStats want_stats = OracleStats(want);
      const StrippedTrace direct =
          line_words == 1 ? Strip(trace)
                          : Strip(WithLineSize(trace, line_words));
      ExpectSameStrip(direct, want, where + ", Strip(Trace)");
      ExpectSameStrip(Strip(in_memory, line_words), want,
                      where + ", Strip(MemoryTraceView)");
      ExpectSameStrip(Strip(mapped, line_words), want,
                      where + ", Strip(MmapTraceView)");
      ExpectSameStats(ComputeStats(direct), want_stats,
                      where + ", ComputeStats(StrippedTrace)");
      ExpectSameStats(ComputeStats(trace, line_words), want_stats,
                      where + ", ComputeStats(Trace)");
      ExpectSameStats(ComputeStats(in_memory, line_words), want_stats,
                      where + ", ComputeStats(MemoryTraceView)");
      ExpectSameStats(ComputeStats(mapped, line_words), want_stats,
                      where + ", ComputeStats(MmapTraceView)");
    }
    std::remove(path.c_str());
  }
}

// A stream that cannot seek and hands out its bytes a few at a time, like a
// pipe: the readers must not depend on knowing the length up front.
class PipeBuf final : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (at_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(7, bytes_.size() - at_);
    char* begin = bytes_.data() + at_;
    setg(begin, begin, begin + n);
    at_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string bytes_;
  std::size_t at_ = 0;
};

Trace ReadPiped(const std::string& bytes, bool compressed) {
  PipeBuf buf(bytes);
  std::istream is(&buf);
  return compressed ? ReadCompressed(is) : ReadBinary(is);
}

TEST(Differential, CodecRoundTripsOnSeekableAndNonSeekableStreams) {
  std::vector<std::pair<std::string, Trace>> traces = AdversarialTraces();
  // Every delta of ±(2^32 - 1), the widest a CTRZ varint carries (5 bytes).
  traces.emplace_back("extreme deltas",
                      MakeTrace({0xffffffffu, 0, 0xffffffffu, 0}, 32));
  for (auto& [name, trace] : traces) {
    trace.kind = StreamKind::kInstruction;
    for (const bool compressed : {false, true}) {
      const std::string where =
          name + (compressed ? " as CTRZ" : " as CTRC");
      std::ostringstream encoded;
      if (compressed) {
        WriteCompressed(encoded, trace);
      } else {
        WriteBinary(encoded, trace);
      }
      std::istringstream seekable(encoded.str());
      const Trace loaded =
          compressed ? ReadCompressed(seekable) : ReadBinary(seekable);
      EXPECT_EQ(loaded.refs, trace.refs) << where;
      EXPECT_EQ(loaded.address_bits, trace.address_bits) << where;
      EXPECT_EQ(loaded.kind, trace.kind) << where;
      const Trace piped = ReadPiped(encoded.str(), compressed);
      EXPECT_EQ(piped.refs, trace.refs) << where << " (non-seekable)";
      EXPECT_EQ(piped.address_bits, trace.address_bits) << where;
    }
    // The streaming encoder over a view writes the same bytes.
    std::ostringstream from_trace;
    WriteCompressed(from_trace, trace);
    std::ostringstream from_view;
    WriteCompressed(from_view,
                    MemoryTraceView(std::make_shared<const Trace>(trace)));
    EXPECT_EQ(from_view.str(), from_trace.str()) << name;
  }
  {
    // Each extreme delta is a 5-byte varint: 20 header + 4 * 5 bytes.
    std::ostringstream encoded;
    WriteCompressed(encoded, MakeTrace({0xffffffffu, 0, 0xffffffffu, 0}, 32));
    EXPECT_EQ(encoded.str().size(), 40u);
  }

  // A lying header count is rejected by the real stream length, seekable
  // or not, before the reference vector is sized for it.
  std::string raw_lie = CtrcBytes(0, 32, 0xffffffffu);
  AppendU32(raw_lie, 1);
  AppendU32(raw_lie, 2);
  std::string packed_lie = CtrcBytes(0, 32, 0xfffffff0u, 1, "CTRZ");
  packed_lie += '\x02';
  for (const bool compressed : {false, true}) {
    const std::string& bytes = compressed ? packed_lie : raw_lie;
    try {
      ReadPiped(bytes, compressed);
      ADD_FAILURE() << "a lying count must not parse";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), ErrorCategory::kValidation) << e.what();
      EXPECT_NE(std::string(e.what()).find("header count"),
                std::string::npos)
          << e.what();
    }
  }
  // Bytes after the payload are damage on a pipe too.
  std::string trailing = CtrcBytes(0, 32, 1, 1, "CTRZ");
  trailing += "\x02\x02";
  EXPECT_EQ(CategoryOf([&] { ReadPiped(trailing, true); }),
            ErrorCategory::kFormat);
}

TEST(TraceView, OutOfCorePassKeepsResidentSetFlat) {
#ifdef CES_UNDER_ASAN
  GTEST_SKIP() << "ru_maxrss is dominated by sanitizer shadow memory";
#else
  // A ~21 MiB CTRC trace streamed against a 2 MiB nominal budget: the
  // release-behind window (4 MiB) bounds the resident growth of the scan,
  // so the peak RSS delta stays far below the file size. 1024 addresses
  // looping 5120 times give exactly known statistics to assert against.
  constexpr std::uint32_t kUnique = 1024;
  constexpr std::uint32_t kLaps = 5120;
  constexpr std::uint64_t kTotal = std::uint64_t{kUnique} * kLaps;  // 5.2M

  const std::string path = TempPath(".ctr");
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    std::string header = CtrcBytes(0, 32, static_cast<std::uint32_t>(kTotal));
    os.write(header.data(), static_cast<std::streamsize>(header.size()));
    std::vector<std::uint32_t> lap(kUnique);
    for (std::uint32_t i = 0; i < kUnique; ++i) lap[i] = 0x1000 + i;
    for (std::uint32_t l = 0; l < kLaps; ++l) {
      os.write(reinterpret_cast<const char*>(lap.data()),
               static_cast<std::streamsize>(lap.size() * 4));
    }
    ASSERT_TRUE(os.good());
  }

  struct rusage before {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);

  const MmapTraceView view(path);
  ASSERT_EQ(view.size(), kTotal);
  const TraceStats stats = ComputeStats(view);

  struct rusage after {};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);

  // The analytic ground truth: one cold lap, then every warm access maps to
  // a different address than its predecessor — all warm accesses miss in
  // the depth-1 direct-mapped bound.
  EXPECT_EQ(stats.n, kTotal);
  EXPECT_EQ(stats.n_unique, kUnique);
  EXPECT_EQ(stats.max_misses, kTotal - kUnique);

  // ru_maxrss is in KiB on Linux. The file is ~20.5 MiB; a materialised
  // load would grow the peak by at least that. The streaming pass must stay
  // within the release window plus slack — a quarter of the file.
  const long delta_kib = after.ru_maxrss - before.ru_maxrss;
  EXPECT_LT(delta_kib, 6 * 1024)
      << "streaming pass grew peak RSS by " << delta_kib
      << " KiB over a ~21 MiB trace — release-behind is not working";
  std::remove(path.c_str());
#endif
}

}  // namespace
