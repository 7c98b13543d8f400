// Out-of-core trace access: the TraceView abstraction.
//
// Everything upstream of this header assumed a trace is a materialised
// std::vector<uint32_t>; that caps exploration at traces that fit in RAM.
// A TraceView is the minimal read surface the analytic prelude, the
// streaming statistics and the ingest pipeline actually need: header fields
// plus chunked sequential access to the reference sequence. Three
// implementations:
//
//  * MemoryTraceView — wraps an in-memory Trace (the compatibility path;
//    every format the readers understand can be loaded behind it).
//  * MmapTraceView — maps a raw binary CTRC file and decodes references
//    straight out of the page cache. The header is validated up front
//    (magic, version, kind, address_bits, count against the file size,
//    which must match it exactly);
//    payload pages are faulted in lazily as the scan advances and, for the
//    default sequential pattern, *released* behind the read cursor
//    (MADV_DONTNEED), so a full pass over a trace 10x larger than the
//    memory budget keeps the resident set flat.
//  * OpenTraceView — factory with graceful fallback: CTRC files get the
//    mmap view, everything else (text, CTRZ, missing mmap support) loads
//    through the ordinary in-memory readers.
//
// Reads validate each reference against the declared address_bits exactly
// like the in-memory readers, so a corrupt payload surfaces as the same
// structured support::Error instead of poisoning downstream analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "trace/trace.hpp"

namespace ces::support {
class MetricsRegistry;
}  // namespace ces::support

namespace ces::trace {

// How a tool resolves a trace path to a view. kAuto picks mmap for raw
// binary CTRC files and the in-memory path otherwise; kMmap prefers mmap
// but still falls back gracefully for formats that cannot be mapped; kMemory
// forces the materialised path (the pre-existing behaviour).
enum class TraceIoMode : std::uint8_t { kAuto = 0, kMemory, kMmap };

class TraceView {
 public:
  virtual ~TraceView() = default;

  virtual std::uint64_t size() const = 0;
  virtual std::uint32_t address_bits() const = 0;
  virtual StreamKind kind() const = 0;
  virtual const std::string& name() const = 0;

  // Copies up to `max` references starting at position `begin` into `out`;
  // returns the number copied (0 iff begin >= size()). Monotone forward
  // scans are the intended pattern — implementations may release memory
  // behind the read cursor; reading backwards stays correct but may refault
  // pages. Throws support::Error (kValidation) when a decoded reference
  // exceeds the declared address_bits.
  virtual std::size_t Read(std::uint64_t begin, std::uint32_t* out,
                           std::size_t max) const = 0;

  // One sequential pass in bounded chunks: fn(const std::uint32_t* refs,
  // std::size_t n) is invoked with consecutive slices covering the whole
  // sequence.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    constexpr std::size_t kChunkRefs = std::size_t{1} << 16;
    std::uint32_t buffer[kChunkRefs];
    std::uint64_t at = 0;
    for (;;) {
      const std::size_t got = Read(at, buffer, kChunkRefs);
      if (got == 0) return;
      fn(static_cast<const std::uint32_t*>(buffer), got);
      at += got;
    }
  }
};

// In-memory adapter: shares ownership of the wrapped trace, so a view can
// outlive the store entry it came from.
class MemoryTraceView final : public TraceView {
 public:
  explicit MemoryTraceView(std::shared_ptr<const Trace> trace);

  std::uint64_t size() const override { return trace_->refs.size(); }
  std::uint32_t address_bits() const override { return trace_->address_bits; }
  StreamKind kind() const override { return trace_->kind; }
  const std::string& name() const override { return trace_->name; }
  std::size_t Read(std::uint64_t begin, std::uint32_t* out,
                   std::size_t max) const override;

  const std::shared_ptr<const Trace>& trace() const { return trace_; }

 private:
  std::shared_ptr<const Trace> trace_;
};

// Memory-mapped CTRC file. Construction validates the header and maps the
// payload read-only; references are decoded little-endian out of the
// mapping, so the view is byte-order independent like the stream reader.
// Throws support::Error — kIo (open/map failure), kFormat (bad magic,
// version or kind, or bytes past the declared payload), kUnsupported (a
// CTRZ file; varints are not random-access), kValidation (bad address_bits,
// or a count larger than the file).
class MmapTraceView final : public TraceView {
 public:
  explicit MmapTraceView(const std::string& path,
                         support::MetricsRegistry* metrics = nullptr,
                         bool release_behind = true);
  ~MmapTraceView() override;

  MmapTraceView(const MmapTraceView&) = delete;
  MmapTraceView& operator=(const MmapTraceView&) = delete;

  std::uint64_t size() const override { return count_; }
  std::uint32_t address_bits() const override { return address_bits_; }
  StreamKind kind() const override { return kind_; }
  const std::string& name() const override { return name_; }
  std::size_t Read(std::uint64_t begin, std::uint32_t* out,
                   std::size_t max) const override;

  // CTRC carries no name field; the ingest pipeline labels the view with
  // the uploader-declared display name.
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  void ReleaseBehind(std::uint64_t consumed_refs) const;

  std::uint64_t count_ = 0;
  std::uint32_t address_bits_ = 32;
  StreamKind kind_ = StreamKind::kData;
  std::string name_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  const unsigned char* payload_ = nullptr;  // first byte of the ref array
  bool release_behind_ = true;
  // Bytes of payload already madvised away, owned by release_mutex_ so
  // concurrent readers of a shared view stay safe.
  mutable std::mutex release_mutex_;
  mutable std::uint64_t released_bytes_ = 0;
};

// Maps `path` when it is a raw binary CTRC file; returns nullptr when the
// file does not exist or carries a different format (the caller falls back
// to the in-memory readers). Corrupt CTRC files still throw — silently
// reloading a damaged file through a slower path would mask the damage.
std::unique_ptr<MmapTraceView> TryOpenMmap(
    const std::string& path, support::MetricsRegistry* metrics = nullptr);

// Factory with graceful fallback (see TraceIoMode). Never returns nullptr;
// throws support::Error when the trace cannot be loaded at all.
std::unique_ptr<TraceView> OpenTraceView(
    const std::string& path, TraceIoMode mode = TraceIoMode::kAuto,
    support::MetricsRegistry* metrics = nullptr);

// Materialises a view back into an in-memory Trace (one sequential pass).
// The escape hatch for consumers that genuinely need the full vector, e.g.
// the joint explorer's interleaver.
Trace MaterializeTrace(const TraceView& view);

// Streams a view into the compressed CTRZ wire format (zigzag deltas as
// LEB128 varints) without materialising the reference vector — the at-rest
// codec of the ingest spill pipeline. Byte-identical to WriteCompressed on
// the materialised trace: both are internal::BinaryWriter.
void WriteCompressed(std::ostream& os, const TraceView& view);

}  // namespace ces::trace
