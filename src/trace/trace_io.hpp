// Trace serialisation.
//
// Three interchangeable formats:
//  * Text (.trc): '#'-prefixed header lines, then one lower-case hex word
//    address per line. Human-readable, diff-friendly, Dinero-style.
//  * Binary (.ctr): magic "CTRC", version, kind, address bits, count, then a
//    little-endian u32 array. Compact for the large workload traces.
//  * Compressed binary (.ctrz): magic "CTRZ", same header, then zigzag
//    address deltas as LEB128 varints (see WriteCompressed below).
//
// All readers are strict: they throw support::Error with a stable category
// (and the offending line or byte offset) on malformed input — trailing
// garbage on hex lines, addresses exceeding the declared address_bits,
// unknown `kind` headers, header counts larger than the remaining stream,
// truncated streams, bytes left over after a binary payload. They never
// over-allocate on attacker-controlled counts: the binary readers take the
// whole remaining stream in one buffer and check the declared count against
// its real size before sizing the reference vector.
//
// Every reader takes an optional support::MetricsRegistry* and records
// "trace.refs_parsed" (all formats) plus "trace.lines_skipped" and
// "trace.headers_ignored" (text); nullptr disables collection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace ces::support {
class MetricsRegistry;
}  // namespace ces::support

namespace ces::trace {

void WriteText(std::ostream& os, const Trace& trace);
// Throws support::Error (kParse/kRange/kValidation) naming the line.
Trace ReadText(std::istream& is,
               support::MetricsRegistry* metrics = nullptr);

void WriteBinary(std::ostream& os, const Trace& trace);
// Reads the rest of the stream, which must hold exactly one trace. Throws
// support::Error: kFormat (bad magic/version/kind, or bytes after the
// payload), kUnsupported (a CTRZ stream — use ReadCompressed or
// LoadFromFile), kValidation (impossible header count or out-of-range
// reference), kTruncated.
Trace ReadBinary(std::istream& is,
                 support::MetricsRegistry* metrics = nullptr);

// Compressed binary (.ctrz): zigzag-encoded address deltas as LEB128
// varints. Reference streams are delta-friendly (instruction fetch is
// mostly +1), so this typically shrinks instruction traces by ~4x over the
// raw format.
void WriteCompressed(std::ostream& os, const Trace& trace);
Trace ReadCompressed(std::istream& is,
                     support::MetricsRegistry* metrics = nullptr);

// File helpers; format chosen by extension: ".trc" text, ".ctrz" compressed
// binary, anything else raw binary. Loading detects raw-vs-compressed by
// magic regardless of extension. Throw support::Error (kIo) on IO failure.
void SaveToFile(const std::string& path, const Trace& trace);
Trace LoadFromFile(const std::string& path,
                   support::MetricsRegistry* metrics = nullptr);

namespace internal {

// The CTRC/CTRZ header stores the reference count as a u32. Writers (and the
// streaming-ingest path, which commits the count before any payload arrives)
// funnel through this instead of a bare cast, so a trace of 2^32 or more
// references is a structured kRange error rather than a silently wrapped
// count field. Unit-testable without allocating 2^32 references.
std::uint32_t CheckedRefCount(std::size_t count, const char* context);

// The 20-byte CTRC/CTRZ header: a 4-byte magic, then version, kind,
// address_bits and count, each a little-endian u32.
inline constexpr std::size_t kBinaryHeaderBytes = 20;
inline constexpr char kRawMagic[4] = {'C', 'T', 'R', 'C'};
inline constexpr char kCompressedMagic[4] = {'C', 'T', 'R', 'Z'};

struct BinaryHeader {
  StreamKind kind = StreamKind::kData;
  std::uint32_t address_bits = 32;
  std::uint32_t count = 0;
};

// Parses the fields after the magic of a CTRC/CTRZ header held in
// bytes[0, size); the magic is the caller's to check, since each entry point
// names the reader a foreign magic belongs to. Fields are checked in order,
// so the first bad one is reported: kTruncated when `size` ends inside one,
// kFormat for a version other than 1 or an unknown kind, kValidation for
// address_bits outside [1, 32].
BinaryHeader ParseBinaryHeader(const unsigned char* bytes, std::size_t size,
                               const char* context);

// Copies `n` little-endian u32 references from `src` to `out` and checks
// each against `address_bits`; the first one that does not fit is
// kValidation, named as reference `first` + its index.
void DecodeRawRefs(const unsigned char* src, std::size_t n,
                   std::uint32_t address_bits, std::uint64_t first,
                   const char* context, std::uint32_t* out);

// kFormat when a binary payload that should end at byte `end` of the stream
// is followed by more bytes (the stream is `size` bytes long): a longer
// count would have described a different trace, so the bytes are damage.
void RejectTrailingBytes(std::uint64_t end, std::uint64_t size,
                         const char* context);

// The one CTRC/CTRZ encoder. The constructor writes the header for `count`
// references; Append encodes references (LE u32 for CTRC, zigzag-encoded
// deltas as LEB128 varints for CTRZ) into a local buffer that is handed to
// the stream with os.write; Finish flushes the rest and checks that exactly
// `count` references were appended. WriteBinary and both WriteCompressed
// overloads are thin wrappers over it.
class BinaryWriter {
 public:
  BinaryWriter(std::ostream& os, bool compressed, StreamKind kind,
               std::uint32_t address_bits, std::uint64_t count);

  void Append(const std::uint32_t* refs, std::size_t n);
  void Finish();

 private:
  void Flush();

  std::ostream& os_;
  bool compressed_;
  std::uint64_t count_;
  std::uint64_t appended_ = 0;
  std::uint32_t previous_ = 0;  // CTRZ delta base; ref[-1] = 0
  std::vector<unsigned char> buffer_;
  std::size_t used_ = 0;
};

}  // namespace internal

}  // namespace ces::trace
