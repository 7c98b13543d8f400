#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "trace/dinero.hpp"
#include "trace/strip.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace ces::trace;
using ces::support::Error;
using ces::support::ErrorCategory;
using ces::support::MetricsRegistry;

// Runs `body`, which must throw a structured Error, and returns its category.
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

void AppendU32(std::string& bytes, std::uint32_t value) {
  bytes.push_back(static_cast<char>(value & 0xff));
  bytes.push_back(static_cast<char>((value >> 8) & 0xff));
  bytes.push_back(static_cast<char>((value >> 16) & 0xff));
  bytes.push_back(static_cast<char>((value >> 24) & 0xff));
}

// A CTRC/CTRZ header with the given count; callers append the payload.
std::string BinaryHeader(const char* magic, std::uint32_t kind,
                         std::uint32_t address_bits, std::uint32_t count,
                         std::uint32_t version = 1) {
  std::string bytes(magic, 4);
  AppendU32(bytes, version);
  AppendU32(bytes, kind);
  AppendU32(bytes, address_bits);
  AppendU32(bytes, count);
  return bytes;
}

TEST(Strip, AssignsIdsInFirstAppearanceOrder) {
  Trace trace;
  trace.refs = {7, 7, 3, 7, 9, 3};
  const StrippedTrace stripped = Strip(trace);
  EXPECT_EQ(stripped.unique, (std::vector<std::uint32_t>{7, 3, 9}));
  EXPECT_EQ(stripped.ids, (std::vector<std::uint32_t>{0, 0, 1, 0, 2, 1}));
  EXPECT_EQ(stripped.is_first,
            (std::vector<bool>{true, false, true, false, true, false}));
  EXPECT_EQ(stripped.warm_count(), 3u);
}

TEST(Strip, EmptyTrace) {
  const StrippedTrace stripped = Strip(Trace{});
  EXPECT_EQ(stripped.size(), 0u);
  EXPECT_EQ(stripped.unique_count(), 0u);
  const TraceStats stats = ComputeStats(stripped);
  EXPECT_EQ(stats.n, 0u);
  EXPECT_EQ(stats.max_misses, 0u);
}

TEST(Stats, MaxMissesIsDepthOneDirectMapped) {
  // 5 5 5 -> two warm hits; 5 6 5 6 -> two warm misses.
  Trace trace;
  trace.refs = {5, 5, 5, 6, 5, 6};
  const TraceStats stats = ComputeStats(trace);
  EXPECT_EQ(stats.n, 6u);
  EXPECT_EQ(stats.n_unique, 2u);
  // Warm accesses: positions 1,2 (hit), 4 (miss), 5 (miss), and position 3 is
  // cold. Position 4 and 5 alternate -> misses.
  EXPECT_EQ(stats.max_misses, 2u);
}

TEST(Stats, MatchesPaperExampleShape) {
  const TraceStats stats = ComputeStats(PaperExampleTrace());
  EXPECT_EQ(stats.n, 10u);
  EXPECT_EQ(stats.n_unique, 5u);
  EXPECT_EQ(stats.max_misses, 5u);  // no adjacent repeats in the example
}

TEST(WithLineSizeTest, ReblocksAddresses) {
  Trace trace;
  trace.refs = {0, 1, 2, 3, 4, 8};
  trace.address_bits = 8;
  const Trace blocked = WithLineSize(trace, 4);
  EXPECT_EQ(blocked.refs, (std::vector<std::uint32_t>{0, 0, 0, 0, 1, 2}));
  EXPECT_EQ(blocked.address_bits, 6u);
  // Identity for one-word lines.
  EXPECT_EQ(WithLineSize(trace, 1).refs, trace.refs);
}

TEST(SignificantBits, ReflectsVaryingBitsOnly) {
  Trace trace;
  trace.refs = {0x1000, 0x1004, 0x1006};
  EXPECT_EQ(SignificantAddressBits(Strip(trace)), 3u);  // bits 0..2 vary
  Trace single;
  single.refs = {0x42, 0x42};
  EXPECT_EQ(SignificantAddressBits(Strip(single)), 0u);
  EXPECT_EQ(SignificantAddressBits(Strip(Trace{})), 0u);
}

TEST(TraceIo, TextRoundTrip) {
  Trace trace = PaperExampleTrace();
  trace.kind = StreamKind::kInstruction;
  std::stringstream stream;
  WriteText(stream, trace);
  const Trace loaded = ReadText(stream);
  EXPECT_EQ(loaded.refs, trace.refs);
  EXPECT_EQ(loaded.kind, trace.kind);
  EXPECT_EQ(loaded.address_bits, trace.address_bits);
  EXPECT_EQ(loaded.name, trace.name);
}

TEST(TraceIo, BinaryRoundTrip) {
  ces::Rng rng(3);
  const Trace trace = RandomWorkingSet(rng, 500, 4096);
  std::stringstream stream;
  WriteBinary(stream, trace);
  const Trace loaded = ReadBinary(stream);
  EXPECT_EQ(loaded.refs, trace.refs);
  EXPECT_EQ(loaded.kind, trace.kind);
}

TEST(TraceIo, CompressedRoundTrip) {
  ces::Rng rng(17);
  Trace trace = LocalityMix(rng, 300, 3000, 20000);
  trace.kind = StreamKind::kInstruction;
  trace.address_bits = 24;
  std::stringstream stream;
  WriteCompressed(stream, trace);
  const Trace loaded = ReadCompressed(stream);
  EXPECT_EQ(loaded.refs, trace.refs);
  EXPECT_EQ(loaded.kind, trace.kind);
  EXPECT_EQ(loaded.address_bits, trace.address_bits);
}

TEST(TraceIo, CompressionShrinksSequentialStreams) {
  // Instruction-fetch-like trace: deltas are mostly +1 -> one byte each.
  const Trace trace = SequentialLoop(0x100000, 512, 40);
  std::stringstream raw;
  WriteBinary(raw, trace);
  std::stringstream packed;
  WriteCompressed(packed, trace);
  EXPECT_LT(packed.str().size() * 3, raw.str().size());
  EXPECT_EQ(ReadCompressed(packed).refs, trace.refs);
}

TEST(TraceIo, CompressedHandlesExtremeDeltas) {
  Trace trace;
  trace.refs = {0, 0xffffffff, 0, 0x80000000, 0x7fffffff, 1};
  std::stringstream stream;
  WriteCompressed(stream, trace);
  EXPECT_EQ(ReadCompressed(stream).refs, trace.refs);
}

TEST(TraceIo, FileDispatchByMagicAndExtension) {
  const Trace trace = PaperExampleTrace();
  const std::string dir = ::testing::TempDir();
  for (const std::string name :
       {std::string("t.trc"), std::string("t.ctr"), std::string("t.ctrz")}) {
    const std::string path = dir + "/" + name;
    SaveToFile(path, trace);
    EXPECT_EQ(LoadFromFile(path).refs, trace.refs) << name;
  }
}

TEST(TraceIo, RejectsGarbage) {
  std::stringstream binary("not a trace at all");
  EXPECT_THROW(ReadBinary(binary), std::runtime_error);
  std::stringstream text("zzz-not-hex");
  EXPECT_THROW(ReadText(text), std::runtime_error);
}

TEST(TraceIo, TextRejectsTrailingGarbage) {
  std::stringstream garbage("deadbeefZZ\n");
  EXPECT_EQ(CategoryOf([&] { ReadText(garbage); }), ErrorCategory::kParse);
  // ...but plain trailing whitespace and CRLF line endings are fine.
  std::stringstream spaced("12 \r\nff\r\n");
  EXPECT_EQ(ReadText(spaced).refs, (std::vector<std::uint32_t>{0x12, 0xff}));
}

TEST(TraceIo, TextRejectsAddressesWiderThan32Bits) {
  std::stringstream wide("1ffffffff\n");
  try {
    ReadText(wide);
    FAIL() << "33-bit address must not silently wrap";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kRange);
    EXPECT_EQ(e.line(), 1u);  // the error names the offending line
  }
}

TEST(TraceIo, TextRejectsUnknownKindHeader) {
  std::stringstream bad("# kind banana\n0\n");
  EXPECT_EQ(CategoryOf([&] { ReadText(bad); }), ErrorCategory::kParse);
}

TEST(TraceIo, TextValidatesAddressBitsHeader) {
  std::stringstream zero("# address_bits 0\n");
  EXPECT_EQ(CategoryOf([&] { ReadText(zero); }), ErrorCategory::kValidation);
  std::stringstream wide("# address_bits 40\n");
  EXPECT_EQ(CategoryOf([&] { ReadText(wide); }), ErrorCategory::kValidation);
  std::stringstream mangled("# address_bits xyz\n");
  EXPECT_EQ(CategoryOf([&] { ReadText(mangled); }), ErrorCategory::kParse);
}

TEST(TraceIo, TextRejectsAddressExceedingDeclaredBits) {
  std::stringstream bad("# address_bits 8\n100\n");  // 0x100 needs 9 bits
  EXPECT_EQ(CategoryOf([&] { ReadText(bad); }), ErrorCategory::kValidation);
  std::stringstream ok("# address_bits 8\nff\n");
  EXPECT_EQ(ReadText(ok).refs, (std::vector<std::uint32_t>{0xff}));
}

TEST(TraceIo, BinaryRejectsOversizedHeaderCount) {
  // A 4-byte corrupt count must not drive a gigabyte reserve: the reader
  // checks the declared count against the remaining stream up front.
  std::string bytes = BinaryHeader("CTRC", 0, 32, 0xffffffffu);
  AppendU32(bytes, 1);
  AppendU32(bytes, 2);
  std::stringstream stream(bytes);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(stream); }),
            ErrorCategory::kValidation);
}

TEST(TraceIo, CompressedRejectsOversizedHeaderCount) {
  std::string bytes = BinaryHeader("CTRZ", 0, 32, 0xffffffffu);
  bytes.push_back('\x02');  // one varint: delta +1
  std::stringstream stream(bytes);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(stream); }),
            ErrorCategory::kValidation);
}

TEST(TraceIo, BinaryRejectsBadKindAndAddressBits) {
  std::string bad_kind = BinaryHeader("CTRC", 7, 32, 0);
  std::stringstream kind_stream(bad_kind);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(kind_stream); }),
            ErrorCategory::kFormat);
  std::string bad_bits = BinaryHeader("CTRC", 0, 48, 0);
  std::stringstream bits_stream(bad_bits);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(bits_stream); }),
            ErrorCategory::kValidation);
}

TEST(TraceIo, BinaryRejectsRefExceedingDeclaredBits) {
  std::string bytes = BinaryHeader("CTRC", 0, 8, 1);
  AppendU32(bytes, 0x100);  // needs 9 bits
  std::stringstream stream(bytes);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(stream); }),
            ErrorCategory::kValidation);
}

TEST(TraceIo, BinaryReportsTruncationAndBadVersion) {
  // Payload shorter than the declared count: the seekable-stream count check
  // fires before any allocation.
  std::string short_payload = BinaryHeader("CTRC", 0, 32, 1);
  short_payload.push_back('\x01');  // 1 of 4 payload bytes
  std::stringstream stream(short_payload);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(stream); }),
            ErrorCategory::kValidation);

  // Stream ends inside the header.
  std::string header_cut("CTRC", 4);
  AppendU32(header_cut, 1);  // version only; kind/bits/count missing
  std::stringstream cut_stream(header_cut);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(cut_stream); }),
            ErrorCategory::kTruncated);

  std::string bad_version = BinaryHeader("CTRC", 0, 32, 0, /*version=*/9);
  std::stringstream version_stream(bad_version);
  EXPECT_EQ(CategoryOf([&] { ReadBinary(version_stream); }),
            ErrorCategory::kFormat);

  std::stringstream short_magic("CT");
  EXPECT_EQ(CategoryOf([&] { ReadBinary(short_magic); }),
            ErrorCategory::kTruncated);
}

TEST(TraceIo, BytesAfterThePayloadAreFormatDamageOnEveryPath) {
  // A count that stops short of the bytes present would describe a
  // different trace than the file holds, so the leftovers are rejected, by
  // the stream readers and by LoadFromFile alike, with one category.
  const Trace trace = PaperExampleTrace();
  std::ostringstream raw;
  WriteBinary(raw, trace);
  std::ostringstream packed;
  WriteCompressed(packed, trace);
  const std::string raw_junk = raw.str() + "junk";
  const std::string packed_junk = packed.str() + "abc";

  std::istringstream raw_stream(raw_junk);
  try {
    ReadBinary(raw_stream);
    FAIL() << "trailing bytes after a CTRC payload must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kFormat);
    EXPECT_EQ(e.byte_offset(), raw.str().size());  // the first extra byte
  }
  std::istringstream packed_stream(packed_junk);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(packed_stream); }),
            ErrorCategory::kFormat);

  const std::string dir = ::testing::TempDir();
  for (const auto& [name, bytes] :
       {std::pair<std::string, std::string>{"junk.ctr", raw_junk},
        std::pair<std::string, std::string>{"junk.ctrz", packed_junk}}) {
    const std::string path = dir + "/" + name;
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os << bytes;
    }
    EXPECT_EQ(CategoryOf([&] { LoadFromFile(path); }), ErrorCategory::kFormat)
        << name;
    std::remove(path.c_str());
  }

  // A CTRZ count one short of the varints present leaves the last one over.
  std::string short_count = BinaryHeader("CTRZ", 0, 32, 1);
  short_count += "\x02\x02";
  std::istringstream short_stream(short_count);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(short_stream); }),
            ErrorCategory::kFormat);
}

TEST(TraceIo, CompressedMagicToRawReaderIsUnsupportedNotBadMagic) {
  // A CTRZ stream handed to ReadBinary must explain itself, not claim the
  // file is corrupt (and vice versa for CTRC into ReadCompressed).
  const Trace trace = PaperExampleTrace();
  std::stringstream packed;
  WriteCompressed(packed, trace);
  try {
    ReadBinary(packed);
    FAIL() << "CTRZ into ReadBinary must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kUnsupported);
    EXPECT_NE(std::string(e.what()).find("CTRZ"), std::string::npos);
  }
  std::stringstream raw;
  WriteBinary(raw, trace);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(raw); }),
            ErrorCategory::kUnsupported);
}

TEST(TraceIo, CompressedRejectsDeltaLeavingAddressSpace) {
  std::string bytes = BinaryHeader("CTRZ", 0, 32, 1);
  bytes.push_back('\x01');  // zigzag(-1): previous becomes -1
  std::stringstream stream(bytes);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(stream); }),
            ErrorCategory::kRange);
}

TEST(TraceIo, RefCountBeyondU32IsRangeNotSilentTruncation) {
  // Regression: the writers used to cast refs.size() straight into the u32
  // count field, so a 2^32+5-reference trace would serialise a count of 5
  // and "round-trip" to a 5-reference trace. The shared guard makes that a
  // structured kRange error — unit-tested directly, since materialising
  // 2^32 references is not an option.
  EXPECT_EQ(internal::CheckedRefCount(0, "t"), 0u);
  EXPECT_EQ(internal::CheckedRefCount(0xffffffffu, "t"), 0xffffffffu);
  if constexpr (sizeof(std::size_t) > 4) {
    const auto wrap = static_cast<std::size_t>(0x100000000ull);
    EXPECT_EQ(CategoryOf([&] { internal::CheckedRefCount(wrap, "t"); }),
              ErrorCategory::kRange);
    EXPECT_EQ(CategoryOf([&] { internal::CheckedRefCount(wrap + 5, "t"); }),
              ErrorCategory::kRange);
  }
}

TEST(TraceIo, CompressedRejectsNonCanonicalAndOverflowingVarints) {
  // 0x80 0x00 decodes to the same value as a bare 0x00: two byte strings
  // aliasing one trace. The reader insists on the canonical (shortest)
  // encoding, so a tampered-but-equal stream cannot share a digest with the
  // original.
  std::string overlong = BinaryHeader("CTRZ", 0, 32, 1);
  overlong.push_back('\x80');
  overlong.push_back('\x00');
  std::stringstream overlong_stream(overlong);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(overlong_stream); }),
            ErrorCategory::kFormat);

  // Nine continuation groups put the final group at bit 63; a value of 2
  // there needs bit 64. Must be kFormat, not a silent wrap into a bogus
  // delta.
  std::string overflow = BinaryHeader("CTRZ", 0, 32, 1);
  for (int i = 0; i < 9; ++i) overflow.push_back('\x80');
  overflow.push_back('\x02');
  std::stringstream overflow_stream(overflow);
  EXPECT_EQ(CategoryOf([&] { ReadCompressed(overflow_stream); }),
            ErrorCategory::kFormat);
}

TEST(TraceIo, TextNameHeaderSurvivesHostileNames) {
  // Regression: ReadText used `header >> name`, which stops at the first
  // space — "qsort (small run)" silently round-tripped as "qsort".
  for (const std::string name :
       {std::string("qsort (small run)"), std::string("tabs\tand  runs"),
        std::string("trailing # hash")}) {
    Trace trace = PaperExampleTrace();
    trace.name = name;
    std::stringstream stream;
    WriteText(stream, trace);
    EXPECT_EQ(ReadText(stream).name, name) << name;
  }
  // Edge whitespace trims, interior whitespace survives, and the "-"
  // placeholder still means "no name".
  std::stringstream padded("# name   spaced  out  \n0\n");
  EXPECT_EQ(ReadText(padded).name, "spaced  out");
  std::stringstream dashed("# name -\n0\n");
  EXPECT_TRUE(ReadText(dashed).name.empty());
}

TEST(TraceIo, LoadFromFileMissingIsIoError) {
  EXPECT_EQ(
      CategoryOf([] { LoadFromFile("/nonexistent/trace.ctr"); }),
      ErrorCategory::kIo);
}

TEST(TraceIo, ReadersRecordMetrics) {
  MetricsRegistry metrics;
  std::stringstream text("# ces trace v1\n# exotic header\n\n12\n34\n");
  EXPECT_EQ(ReadText(text, &metrics).refs.size(), 2u);
  EXPECT_EQ(metrics.counter("trace.refs_parsed"), 2u);
  EXPECT_EQ(metrics.counter("trace.lines_skipped"), 1u);
  EXPECT_EQ(metrics.counter("trace.headers_ignored"), 1u);

  MetricsRegistry binary_metrics;
  const Trace trace = PaperExampleTrace();
  std::stringstream stream;
  WriteBinary(stream, trace);
  ReadBinary(stream, &binary_metrics);
  EXPECT_EQ(binary_metrics.counter("trace.refs_parsed"), trace.size());
}

TEST(Dinero, ReadsSelectedStream) {
  std::stringstream din(
      "# comment\n"
      "2 400\n"   // ifetch at byte 0x400 -> word 0x100
      "0 1000\n"  // read
      "1 1004\n"  // write
      "2 404\n");
  const Trace instr = ReadDinero(din, StreamKind::kInstruction);
  EXPECT_EQ(instr.refs, (std::vector<std::uint32_t>{0x100, 0x101}));
  din.clear();
  din.seekg(0);
  const Trace data = ReadDinero(din, StreamKind::kData);
  EXPECT_EQ(data.refs, (std::vector<std::uint32_t>{0x400, 0x401}));
}

TEST(Dinero, RoundTrip) {
  Trace trace = PaperExampleTrace();
  trace.kind = StreamKind::kData;
  std::stringstream stream;
  WriteDinero(stream, trace);
  const Trace loaded = ReadDinero(stream, StreamKind::kData);
  EXPECT_EQ(loaded.refs, trace.refs);

  Trace instr = PaperExampleTrace();
  instr.kind = StreamKind::kInstruction;
  std::stringstream istream2;
  WriteDinero(istream2, instr);
  EXPECT_EQ(ReadDinero(istream2, StreamKind::kInstruction).refs, instr.refs);
}

TEST(Dinero, RejectsMalformedInput) {
  std::stringstream bad_label("7 400\n");
  EXPECT_THROW(ReadDinero(bad_label, StreamKind::kData), std::runtime_error);
  std::stringstream bad_address("0 zz\n");
  EXPECT_THROW(ReadDinero(bad_address, StreamKind::kData), std::runtime_error);
}

TEST(Dinero, RoundTripsHighAddressesWithoutOverflow) {
  // Regression: WriteDinero used to shift the 32-bit word address left by
  // two without widening, corrupting every ref >= 2^30.
  Trace trace;
  trace.kind = StreamKind::kData;
  trace.refs = {0x3fffffffu, 0x40000000u, 0xdeadbeefu, 0xffffffffu};
  std::stringstream stream;
  WriteDinero(stream, trace);
  EXPECT_EQ(ReadDinero(stream, StreamKind::kData).refs, trace.refs);
}

TEST(Dinero, RejectsAddressesBeyondWordAddressSpace) {
  // Byte addresses up to 34 bits are word addresses; 35 bits would wrap.
  std::stringstream wide("0 7ffffffffff\n");
  try {
    ReadDinero(wide, StreamKind::kData);
    FAIL() << "wide address must not silently wrap";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kRange);
    EXPECT_EQ(e.line(), 1u);
  }
  // The largest representable byte address still round-trips.
  std::stringstream max("0 3fffffffc\n");
  EXPECT_EQ(ReadDinero(max, StreamKind::kData).refs,
            (std::vector<std::uint32_t>{0xffffffffu}));
}

TEST(Dinero, RejectsTrailingGarbageAndCountsFiltered) {
  std::stringstream garbage("0 400 junk\n");
  EXPECT_EQ(CategoryOf([&] { ReadDinero(garbage, StreamKind::kData); }),
            ErrorCategory::kParse);
  MetricsRegistry metrics;
  std::stringstream din("# c\n2 400\n0 1000\n1 1004\n");
  const Trace data = ReadDinero(din, StreamKind::kData, &metrics);
  EXPECT_EQ(data.refs.size(), 2u);
  EXPECT_EQ(metrics.counter("trace.refs_parsed"), 2u);
  EXPECT_EQ(metrics.counter("dinero.records_filtered"), 1u);
  EXPECT_EQ(metrics.counter("trace.lines_skipped"), 1u);
}

TEST(Synthetic, SequentialLoopShape) {
  const Trace trace = SequentialLoop(100, 8, 3);
  EXPECT_EQ(trace.size(), 24u);
  const TraceStats stats = ComputeStats(trace);
  EXPECT_EQ(stats.n_unique, 8u);
  EXPECT_EQ(trace.refs.front(), 100u);
  EXPECT_EQ(trace.refs.back(), 107u);
}

TEST(Synthetic, StridedSweepAddresses) {
  const Trace trace = StridedSweep(0, 64, 4, 2);
  EXPECT_EQ(trace.refs, (std::vector<std::uint32_t>{0, 64, 128, 192, 0, 64,
                                                    128, 192}));
}

TEST(Synthetic, RandomWorkingSetBounds) {
  ces::Rng rng(11);
  const Trace trace = RandomWorkingSet(rng, 32, 1000, 500);
  EXPECT_EQ(trace.size(), 1000u);
  for (std::uint32_t ref : trace.refs) {
    EXPECT_GE(ref, 500u);
    EXPECT_LT(ref, 532u);
  }
  EXPECT_LE(ComputeStats(trace).n_unique, 32u);
}

TEST(Synthetic, LocalityMixMostlyHot) {
  ces::Rng rng(13);
  const Trace trace = LocalityMix(rng, 64, 4096, 20000, 0.9);
  std::size_t hot = 0;
  for (std::uint32_t ref : trace.refs) hot += ref < 64;
  // Hot runs are longer than cold runs, so well over half the references
  // land in the hot region.
  EXPECT_GT(hot, trace.size() / 2);
}

TEST(Synthetic, DeterministicForSameSeed) {
  ces::Rng a(99);
  ces::Rng b(99);
  EXPECT_EQ(LocalityMix(a, 128, 1024, 5000).refs,
            LocalityMix(b, 128, 1024, 5000).refs);
}

}  // namespace
