#include "trace/trace_io.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <new>
#include <ostream>
#include <sstream>

#include "support/check.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace_event.hpp"

namespace ces::trace {
namespace {

using support::Error;
using support::ErrorCategory;
using support::MetricsRegistry;

constexpr std::uint32_t kVersion = 1;

// Bytes a binary stream's rest is read in when its length is unknown.
constexpr std::size_t kReadChunkBytes = std::size_t{1} << 16;
// Encoder buffer: flushed to the stream once fewer than kMaxRefBytes remain.
constexpr std::size_t kWriteBufferBytes = std::size_t{1} << 16;
// A CTRZ delta lies in [-(2^32 - 1), 2^32 - 1], so its zigzag code is below
// 2^33 and its varint at most 5 bytes; CTRC references take 4.
constexpr std::size_t kMaxRefBytes = 5;

std::uint64_t ZigZag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

std::int64_t UnZigZag(std::uint64_t encoded) {
  return static_cast<std::int64_t>(encoded >> 1) ^
         -static_cast<std::int64_t>(encoded & 1);
}

std::uint32_t LoadU32Le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void StoreU32Le(unsigned char* p, std::uint32_t value) {
  p[0] = static_cast<unsigned char>(value & 0xff);
  p[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((value >> 24) & 0xff);
}

// The multi-byte varint of the CTRZ decoder, entered at its first byte.
// Strict: one byte string per value. Overlong chains (past 10 bytes),
// overflowing 10th bytes (bits beyond 63) and non-canonical encodings (a
// most-significant group of zero, e.g. 80 00 for 0) are kFormat; running
// out of bytes mid-varint is kTruncated.
[[gnu::noinline]] std::uint64_t DecodeVarint(const unsigned char*& p,
                                             const unsigned char* end,
                                             const char* context) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (p == end) {
      throw Error(ErrorCategory::kTruncated, context,
                  "stream ended inside a varint");
    }
    const unsigned byte = *p++;
    if (shift > 63) {
      throw Error(ErrorCategory::kFormat, context,
                  "varint longer than 10 bytes");
    }
    const std::uint64_t group = byte & 0x7f;
    if (shift == 63 && group > 1) {
      // The 10th byte contributes bits 63..69 of the value; anything beyond
      // bit 63 cannot fit a u64, so accepting it would silently drop the
      // high bits and let two distinct byte streams decode to one value.
      throw Error(ErrorCategory::kFormat, context,
                  "varint overflows 64 bits");
    }
    if (group == 0 && shift > 0 && (byte & 0x80) == 0) {
      // A most-significant group of zero is an overlong encoding (for
      // example 0x80 0x00 for 0): the canonical form is shorter, so this
      // byte string and the canonical one would alias the same value.
      throw Error(ErrorCategory::kFormat, context,
                  "non-canonical varint (overlong encoding)");
    }
    value |= group << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

// Decodes `count` CTRZ references from bytes [p, end) into `out`; returns
// the first byte past the last varint.
const unsigned char* DecodeDeltas(const unsigned char* p,
                                  const unsigned char* end,
                                  std::uint32_t count,
                                  std::uint32_t address_bits,
                                  const char* context, std::uint32_t* out) {
  const std::uint32_t high_bits =
      address_bits < 32 ? ~((std::uint32_t{1} << address_bits) - 1) : 0;
  std::int64_t previous = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    // Instruction fetch is mostly +1 and data strides are short: nearly
    // every delta fits one byte.
    const std::uint64_t code =
        p != end && *p < 0x80 ? *p++ : DecodeVarint(p, end, context);
    const std::int64_t delta = UnZigZag(code);
    // previous is in [0, 2^32 - 1], so neither bound can overflow.
    if (delta < -previous || delta > 0xffffffffll - previous) {
      throw Error(ErrorCategory::kRange, context,
                  "reference " + std::to_string(i) +
                      " decodes outside the 32-bit address space");
    }
    previous += delta;
    const auto ref = static_cast<std::uint32_t>(previous);
    if ((ref & high_bits) != 0) {
      throw Error(ErrorCategory::kValidation, context,
                  "reference " + std::to_string(i) + " exceeds address_bits=" +
                      std::to_string(address_bits));
    }
    out[i] = ref;
  }
  return p;
}

// Anonymous pages straight from the kernel, unmapped on destruction. The
// decode buffer lives here rather than on the heap: a freed heap block of
// several MiB can stay resident below the reference vector allocated after
// it, so the buffer would outlive its decode in the resident set.
class PageBuffer {
 public:
  PageBuffer() = default;
  PageBuffer(const PageBuffer&) = delete;
  PageBuffer& operator=(const PageBuffer&) = delete;
  ~PageBuffer() { Release(); }

  unsigned char* data() const { return data_; }

  // Grows to at least `size` bytes, keeping the contents.
  void Reserve(std::size_t size) {
    if (size <= capacity_) return;
    void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    if (data_ != nullptr) std::memcpy(map, data_, capacity_);
    Release();
    data_ = static_cast<unsigned char*>(map);
    capacity_ = size;
  }

 private:
  void Release() {
    if (data_ != nullptr) ::munmap(data_, capacity_);
    data_ = nullptr;
    capacity_ = 0;
  }

  unsigned char* data_ = nullptr;
  std::size_t capacity_ = 0;
};

// Reads the rest of `is` into `buffer`; returns its length in bytes. A
// seekable stream is read with one call; otherwise the buffer doubles from
// kReadChunkBytes until the stream ends, so its size is bounded by the
// bytes really there.
std::size_t ReadRest(std::istream& is, PageBuffer& buffer) {
  std::size_t capacity = kReadChunkBytes;
  const std::istream::pos_type here = is.tellg();
  if (here != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    if (end != std::istream::pos_type(-1) && is) {
      capacity = static_cast<std::size_t>(end - here);
    }
    is.clear();
  }
  std::size_t size = 0;
  for (;;) {
    buffer.Reserve(capacity);
    is.read(reinterpret_cast<char*>(buffer.data()) + size,
            static_cast<std::streamsize>(capacity - size));
    size += static_cast<std::size_t>(is.gcount());
    if (size < capacity || is.peek() == std::char_traits<char>::eof()) break;
    capacity = std::max(2 * capacity, kReadChunkBytes);
  }
  return size;
}

// True when a reference does not fit the declared address width.
bool ExceedsAddressBits(std::uint32_t ref, std::uint32_t address_bits) {
  return address_bits < 32 && (ref >> address_bits) != 0;
}

void ReadMagic(std::istream& is, char (&magic)[4], const char* context,
               const std::string& too_short) {
  is.read(magic, sizeof(magic));
  if (!is) {
    throw Error(ErrorCategory::kTruncated, context, too_short, Error::kNoLine,
                0);
  }
}

// Checks that `magic` opens a CTRZ (compressed) or CTRC stream; the other
// binary magic is kUnsupported with a message naming the right reader.
void CheckMagic(const char (&magic)[4], bool compressed) {
  const char* context = compressed ? "trace-compressed" : "trace-binary";
  const char* expected =
      compressed ? internal::kCompressedMagic : internal::kRawMagic;
  const char* other =
      compressed ? internal::kRawMagic : internal::kCompressedMagic;
  if (std::memcmp(magic, other, sizeof(magic)) == 0) {
    throw Error(ErrorCategory::kUnsupported, context,
                compressed ? "raw (CTRC) stream; use ReadBinary or LoadFromFile"
                           : "compressed (CTRZ) stream; use ReadCompressed or "
                             "LoadFromFile",
                Error::kNoLine, 0);
  }
  if (std::memcmp(magic, expected, sizeof(magic)) != 0) {
    throw Error(ErrorCategory::kFormat, context,
                compressed ? "bad magic (expected CTRZ)"
                           : "bad magic (expected CTRC)",
                Error::kNoLine, 0);
  }
}

// Decodes the rest of a binary stream whose 4-byte magic (already checked by
// the entry point) is `magic`; `compressed` selects the payload coding.
Trace ReadBinaryPayload(std::istream& is, const char (&magic)[4],
                        bool compressed, MetricsRegistry* metrics) {
  const char* context = compressed ? "trace-compressed" : "trace-binary";
  support::ScopedTraceSpan span(compressed ? "trace.read_compressed"
                                           : "trace.read_binary");
  unsigned char head[internal::kBinaryHeaderBytes];
  std::memcpy(head, magic, sizeof(magic));
  is.read(reinterpret_cast<char*>(head) + sizeof(magic),
          static_cast<std::streamsize>(sizeof(head) - sizeof(magic)));
  const internal::BinaryHeader header = internal::ParseBinaryHeader(
      head, sizeof(magic) + static_cast<std::size_t>(is.gcount()), context);

  PageBuffer rest;
  const std::size_t remaining = ReadRest(is, rest);
  // A raw payload needs 4 bytes per reference, a compressed one at least 1
  // (a varint is never empty). Checked against the bytes really present, so
  // a lying count is rejected before the reference vector is sized.
  const std::uint64_t min_bytes_needed =
      static_cast<std::uint64_t>(header.count) * (compressed ? 1 : 4);
  if (min_bytes_needed > remaining) {
    throw Error(ErrorCategory::kValidation, context,
                "header count " + std::to_string(header.count) +
                    " needs >= " + std::to_string(min_bytes_needed) +
                    " bytes but only " + std::to_string(remaining) +
                    " remain");
  }
  const std::uint64_t size = internal::kBinaryHeaderBytes + remaining;
  const unsigned char* payload = rest.data();
  Trace trace;
  trace.kind = header.kind;
  trace.address_bits = header.address_bits;
  if (compressed) {
    trace.refs.resize(header.count);
    const unsigned char* end =
        DecodeDeltas(payload, payload + remaining, header.count,
                     header.address_bits, context, trace.refs.data());
    const auto consumed = static_cast<std::uint64_t>(end - payload);
    internal::RejectTrailingBytes(internal::kBinaryHeaderBytes + consumed,
                                  size, context);
  } else {
    internal::RejectTrailingBytes(
        internal::kBinaryHeaderBytes + min_bytes_needed, size, context);
    trace.refs.resize(header.count);
    internal::DecodeRawRefs(payload, header.count, header.address_bits, 0,
                            context, trace.refs.data());
  }
  MetricsRegistry::Add(metrics, "trace.refs_parsed", trace.refs.size());
  return trace;
}

bool IsBlank(const std::string& line) {
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) return false;
  }
  return true;
}

}  // namespace

void WriteText(std::ostream& os, const Trace& trace) {
  os << "# ces trace v1\n";
  os << "# name " << (trace.name.empty() ? "-" : trace.name) << "\n";
  os << "# kind " << ToString(trace.kind) << "\n";
  os << "# address_bits " << trace.address_bits << "\n";
  char buf[16];
  for (std::uint32_t ref : trace.refs) {
    std::snprintf(buf, sizeof(buf), "%x\n", ref);
    os << buf;
  }
}

Trace ReadText(std::istream& is, MetricsRegistry* metrics) {
  constexpr const char* kContext = "trace-text";
  support::ScopedTraceSpan span("trace.read_text");
  Trace trace;
  std::string line;
  std::uint64_t line_number = 0;
  std::uint64_t skipped = 0;
  std::uint64_t ignored_headers = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (IsBlank(line)) {
      ++skipped;
      continue;
    }
    if (line[0] == '#') {
      std::istringstream header(line.substr(1));
      std::string key;
      header >> key;
      if (key == "name") {
        // The name is everything after the key, edge whitespace trimmed —
        // `header >> name` would stop at the first space and silently
        // corrupt round-trips of names like "qsort (small)".
        std::string rest;
        std::getline(header, rest);
        const auto first = rest.find_first_not_of(" \t");
        if (first == std::string::npos) {
          trace.name.clear();
        } else {
          const auto last = rest.find_last_not_of(" \t");
          trace.name = rest.substr(first, last - first + 1);
        }
        if (trace.name == "-") trace.name.clear();
      } else if (key == "kind") {
        std::string kind;
        header >> kind;
        if (kind == "instruction") {
          trace.kind = StreamKind::kInstruction;
        } else if (kind == "data") {
          trace.kind = StreamKind::kData;
        } else {
          throw Error(ErrorCategory::kParse, kContext,
                      "unknown kind '" + kind + "'", line_number);
        }
      } else if (key == "address_bits") {
        std::uint64_t bits = 0;
        if (!(header >> bits)) {
          throw Error(ErrorCategory::kParse, kContext,
                      "malformed address_bits header", line_number);
        }
        if (bits == 0 || bits > 32) {
          throw Error(ErrorCategory::kValidation, kContext,
                      "address_bits " + std::to_string(bits) +
                          " outside [1, 32]",
                      line_number);
        }
        trace.address_bits = static_cast<std::uint32_t>(bits);
      } else if (key == "ces") {
        // The "# ces trace v1" banner WriteText emits; nothing to record.
      } else {
        // Unknown header keys are tolerated for forward compatibility, but
        // counted so an unexpected producer shows up in the run metrics.
        ++ignored_headers;
      }
      continue;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(line.c_str(), &end, 16);
    if (end == line.c_str()) {
      throw Error(ErrorCategory::kParse, kContext,
                  "malformed address '" + line + "'", line_number);
    }
    if (errno == ERANGE || value > 0xffffffffull) {
      throw Error(ErrorCategory::kRange, kContext,
                  "address '" + line + "' does not fit in 32 bits",
                  line_number);
    }
    for (const char* p = end; *p != '\0'; ++p) {
      if (std::isspace(static_cast<unsigned char>(*p)) == 0) {
        throw Error(ErrorCategory::kParse, kContext,
                    "trailing garbage after address: '" + line + "'",
                    line_number);
      }
    }
    const auto ref = static_cast<std::uint32_t>(value);
    if (ExceedsAddressBits(ref, trace.address_bits)) {
      throw Error(ErrorCategory::kValidation, kContext,
                  "address '" + line + "' exceeds address_bits=" +
                      std::to_string(trace.address_bits),
                  line_number);
    }
    trace.refs.push_back(ref);
  }
  MetricsRegistry::Add(metrics, "trace.refs_parsed", trace.refs.size());
  MetricsRegistry::Add(metrics, "trace.lines_skipped", skipped);
  MetricsRegistry::Add(metrics, "trace.headers_ignored", ignored_headers);
  return trace;
}

void WriteBinary(std::ostream& os, const Trace& trace) {
  internal::BinaryWriter writer(os, /*compressed=*/false, trace.kind,
                                trace.address_bits, trace.refs.size());
  writer.Append(trace.refs.data(), trace.refs.size());
  writer.Finish();
}

Trace ReadBinary(std::istream& is, MetricsRegistry* metrics) {
  char magic[4];
  ReadMagic(is, magic, "trace-binary",
            "stream shorter than the 4-byte magic");
  CheckMagic(magic, /*compressed=*/false);
  return ReadBinaryPayload(is, magic, /*compressed=*/false, metrics);
}

void WriteCompressed(std::ostream& os, const Trace& trace) {
  internal::BinaryWriter writer(os, /*compressed=*/true, trace.kind,
                                trace.address_bits, trace.refs.size());
  writer.Append(trace.refs.data(), trace.refs.size());
  writer.Finish();
}

Trace ReadCompressed(std::istream& is, MetricsRegistry* metrics) {
  char magic[4];
  ReadMagic(is, magic, "trace-compressed",
            "stream shorter than the 4-byte magic");
  CheckMagic(magic, /*compressed=*/true);
  return ReadBinaryPayload(is, magic, /*compressed=*/true, metrics);
}

void SaveToFile(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    throw Error(ErrorCategory::kIo, "trace-file", "cannot open " + path);
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".trc") {
    WriteText(os, trace);
  } else if (path.size() >= 5 && path.substr(path.size() - 5) == ".ctrz") {
    WriteCompressed(os, trace);
  } else {
    WriteBinary(os, trace);
  }
  if (!os) {
    throw Error(ErrorCategory::kIo, "trace-file", "write failed: " + path);
  }
}

Trace LoadFromFile(const std::string& path, MetricsRegistry* metrics) {
  support::ScopedTraceSpan span("trace.load");
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw Error(ErrorCategory::kIo, "trace-file", "cannot open " + path);
  }
  if (path.size() >= 4 && path.substr(path.size() - 4) == ".trc") {
    return ReadText(is, metrics);
  }
  // Dispatch raw vs compressed by magic, not extension.
  char magic[4];
  ReadMagic(is, magic, "trace-file",
            "file shorter than the 4-byte magic: " + path);
  const bool compressed =
      std::memcmp(magic, internal::kCompressedMagic, sizeof(magic)) == 0;
  CheckMagic(magic, compressed);
  return ReadBinaryPayload(is, magic, compressed, metrics);
}

namespace internal {

std::uint32_t CheckedRefCount(std::size_t count, const char* context) {
  if (count > 0xffffffffull) {
    throw Error(ErrorCategory::kRange, context,
                "trace has " + std::to_string(count) +
                    " references; the header count field is a u32 "
                    "(max 4294967295)");
  }
  return static_cast<std::uint32_t>(count);
}

BinaryHeader ParseBinaryHeader(const unsigned char* bytes, std::size_t size,
                               const char* context) {
  std::size_t at = 4;  // past the magic
  const auto field = [&] {
    if (size < at + 4) {
      throw Error(ErrorCategory::kTruncated, context,
                  "stream ended inside a u32 field");
    }
    at += 4;
    return LoadU32Le(bytes + at - 4);
  };
  const std::uint32_t version = field();
  if (version != kVersion) {
    throw Error(ErrorCategory::kFormat, context,
                "unsupported version " + std::to_string(version) +
                    " (expected " + std::to_string(kVersion) + ")");
  }
  BinaryHeader header;
  const std::uint32_t raw_kind = field();
  if (raw_kind > static_cast<std::uint32_t>(StreamKind::kData)) {
    throw Error(ErrorCategory::kFormat, context,
                "unknown stream kind " + std::to_string(raw_kind));
  }
  header.kind = static_cast<StreamKind>(raw_kind);
  header.address_bits = field();
  if (header.address_bits == 0 || header.address_bits > 32) {
    throw Error(ErrorCategory::kValidation, context,
                "address_bits " + std::to_string(header.address_bits) +
                    " outside [1, 32]");
  }
  header.count = field();
  return header;
}

void DecodeRawRefs(const unsigned char* src, std::size_t n,
                   std::uint32_t address_bits, std::uint64_t first,
                   const char* context, std::uint32_t* out) {
  if (n == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, src, n * sizeof(std::uint32_t));
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = LoadU32Le(src + 4 * i);
  }
  if (address_bits >= 32) return;
  // OR-reduce first (vectorises); search for the culprit only on damage.
  std::uint32_t high = 0;
  for (std::size_t i = 0; i < n; ++i) high |= out[i] >> address_bits;
  if (high == 0) return;
  std::size_t i = 0;
  while (!ExceedsAddressBits(out[i], address_bits)) ++i;
  throw Error(ErrorCategory::kValidation, context,
              "reference " + std::to_string(first + i) +
                  " exceeds address_bits=" + std::to_string(address_bits));
}

void RejectTrailingBytes(std::uint64_t end, std::uint64_t size,
                         const char* context) {
  if (size > end) {
    throw Error(ErrorCategory::kFormat, context,
                std::to_string(size - end) +
                    " trailing bytes after the declared payload",
                Error::kNoLine, end);
  }
}

BinaryWriter::BinaryWriter(std::ostream& os, bool compressed, StreamKind kind,
                           std::uint32_t address_bits, std::uint64_t count)
    : os_(os),
      compressed_(compressed),
      count_(count),
      buffer_(kWriteBufferBytes) {
  const std::uint32_t checked = CheckedRefCount(
      static_cast<std::size_t>(count),
      compressed ? "trace-compressed" : "trace-binary");
  std::memcpy(buffer_.data(), compressed ? kCompressedMagic : kRawMagic, 4);
  StoreU32Le(buffer_.data() + 4, kVersion);
  StoreU32Le(buffer_.data() + 8, static_cast<std::uint32_t>(kind));
  StoreU32Le(buffer_.data() + 12, address_bits);
  StoreU32Le(buffer_.data() + 16, checked);
  used_ = kBinaryHeaderBytes;
}

void BinaryWriter::Append(const std::uint32_t* refs, std::size_t n) {
  appended_ += n;
  for (std::size_t i = 0; i < n; ++i) {
    if (buffer_.size() - used_ < kMaxRefBytes) Flush();
    unsigned char* p = buffer_.data() + used_;
    const std::uint32_t ref = refs[i];
    if (compressed_) {
      std::uint64_t code = ZigZag(static_cast<std::int64_t>(ref) -
                                  static_cast<std::int64_t>(previous_));
      previous_ = ref;
      while (code >= 0x80) {
        *p++ = static_cast<unsigned char>((code & 0x7f) | 0x80);
        code >>= 7;
      }
      *p++ = static_cast<unsigned char>(code);
    } else {
      StoreU32Le(p, ref);
      p += 4;
    }
    used_ = static_cast<std::size_t>(p - buffer_.data());
  }
}

void BinaryWriter::Finish() {
  CES_CHECK(appended_ == count_);
  Flush();
}

void BinaryWriter::Flush() {
  os_.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(used_));
  used_ = 0;
}

}  // namespace internal

}  // namespace ces::trace
