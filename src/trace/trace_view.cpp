#include "trace/trace_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <ostream>
#include <utility>

#include "support/error.hpp"
#include "support/metrics.hpp"
#include "trace/trace_io.hpp"

namespace ces::trace {

namespace {

using support::Error;
using support::ErrorCategory;

constexpr std::uint64_t kHeaderBytes = internal::kBinaryHeaderBytes;

// Pages fully behind the read cursor are dropped in batches of this many
// payload bytes — large enough that madvise overhead is noise, small enough
// that the resident window stays well under any realistic memory cap.
constexpr std::uint64_t kReleaseWindowBytes = std::uint64_t{4} << 20;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

MemoryTraceView::MemoryTraceView(std::shared_ptr<const Trace> trace)
    : trace_(std::move(trace)) {}

std::size_t MemoryTraceView::Read(std::uint64_t begin, std::uint32_t* out,
                                  std::size_t max) const {
  const std::uint64_t total = trace_->refs.size();
  if (begin >= total) return 0;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, total - begin));
  std::memcpy(out, trace_->refs.data() + begin, n * sizeof(std::uint32_t));
  return n;
}

MmapTraceView::MmapTraceView(const std::string& path,
                             support::MetricsRegistry* metrics,
                             bool release_behind)
    : release_behind_(release_behind) {
  const char* context = "trace-mmap";
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw Error(ErrorCategory::kIo, context, "cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw Error(ErrorCategory::kIo, context, "cannot stat " + path);
  }
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kHeaderBytes) {
    ::close(fd);
    throw Error(ErrorCategory::kTruncated, context,
                "file shorter than the 20-byte CTRC header: " + path,
                Error::kNoLine, 0);
  }
  map_len_ = static_cast<std::size_t>(file_size);
  map_ = ::mmap(nullptr, map_len_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (map_ == MAP_FAILED) {
    map_ = nullptr;
    throw Error(ErrorCategory::kIo, context, "mmap failed: " + path);
  }
  // A constructor that throws runs no destructor: unmap before rethrowing.
  try {
    const auto* bytes = static_cast<const unsigned char*>(map_);
    if (std::memcmp(bytes, internal::kCompressedMagic, 4) == 0) {
      throw Error(ErrorCategory::kUnsupported, context,
                  "compressed (CTRZ) file; varints are not random-access — "
                  "use LoadFromFile",
                  Error::kNoLine, 0);
    }
    if (std::memcmp(bytes, internal::kRawMagic, 4) != 0) {
      throw Error(ErrorCategory::kFormat, context, "bad magic (expected CTRC)",
                  Error::kNoLine, 0);
    }
    const internal::BinaryHeader header =
        internal::ParseBinaryHeader(bytes, map_len_, context);
    kind_ = header.kind;
    address_bits_ = header.address_bits;
    count_ = header.count;
    const std::uint64_t needed = kHeaderBytes + count_ * 4;
    if (needed > file_size) {
      throw Error(ErrorCategory::kValidation, context,
                  "header count " + std::to_string(count_) + " needs >= " +
                      std::to_string(needed - kHeaderBytes) +
                      " payload bytes but only " +
                      std::to_string(file_size - kHeaderBytes) + " remain");
    }
    internal::RejectTrailingBytes(needed, file_size, context);
  } catch (...) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    throw;
  }
  payload_ = static_cast<const unsigned char*>(map_) + kHeaderBytes;
#ifdef POSIX_MADV_SEQUENTIAL
  ::posix_madvise(map_, map_len_, POSIX_MADV_SEQUENTIAL);
#endif
  // The view hands out exactly `count_` references, the same number the
  // stream reader would have parsed — recorded up front so a run's metrics
  // line is byte-identical between the mmap and in-memory paths.
  support::MetricsRegistry::Add(metrics, "trace.refs_parsed", count_);
}

MmapTraceView::~MmapTraceView() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

std::size_t MmapTraceView::Read(std::uint64_t begin, std::uint32_t* out,
                                std::size_t max) const {
  if (begin >= count_) return 0;
  const std::size_t n =
      static_cast<std::size_t>(std::min<std::uint64_t>(max, count_ - begin));
  internal::DecodeRawRefs(payload_ + begin * 4, n, address_bits_, begin,
                          "trace-mmap", out);
  if (release_behind_) ReleaseBehind(begin + n);
  return n;
}

void MmapTraceView::ReleaseBehind(std::uint64_t consumed_refs) const {
#ifdef MADV_DONTNEED
  const std::uint64_t consumed_map_bytes = kHeaderBytes + consumed_refs * 4;
  std::lock_guard<std::mutex> lock(release_mutex_);
  if (consumed_map_bytes < released_bytes_ + kReleaseWindowBytes) return;
  static const std::uint64_t kPage =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t floor = consumed_map_bytes / kPage * kPage;
  if (floor <= released_bytes_) return;
  // Clean file-backed pages: DONTNEED just drops them from the resident
  // set; a later backwards read refaults from the page cache or disk.
  ::madvise(static_cast<char*>(map_) + released_bytes_,
            static_cast<std::size_t>(floor - released_bytes_), MADV_DONTNEED);
  released_bytes_ = floor;
#else
  (void)consumed_refs;
#endif
}

std::unique_ptr<MmapTraceView> TryOpenMmap(
    const std::string& path, support::MetricsRegistry* metrics) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return nullptr;
  char magic[4];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, internal::kRawMagic, 4) != 0) return nullptr;
  return std::make_unique<MmapTraceView>(path, metrics);
}

std::unique_ptr<TraceView> OpenTraceView(const std::string& path,
                                         TraceIoMode mode,
                                         support::MetricsRegistry* metrics) {
  // Mirror LoadFromFile's dispatch: .trc is text by extension, everything
  // else is sniffed by magic. Only raw CTRC payloads are random-access.
  if (mode != TraceIoMode::kMemory && !EndsWith(path, ".trc")) {
    if (auto view = TryOpenMmap(path, metrics)) return view;
  }
  auto trace = std::make_shared<const Trace>(LoadFromFile(path, metrics));
  return std::make_unique<MemoryTraceView>(std::move(trace));
}

Trace MaterializeTrace(const TraceView& view) {
  Trace out;
  out.address_bits = view.address_bits();
  out.kind = view.kind();
  out.name = view.name();
  out.refs.reserve(static_cast<std::size_t>(view.size()));
  view.ForEachChunk([&out](const std::uint32_t* refs, std::size_t n) {
    out.refs.insert(out.refs.end(), refs, refs + n);
  });
  return out;
}

void WriteCompressed(std::ostream& os, const TraceView& view) {
  internal::BinaryWriter writer(os, /*compressed=*/true, view.kind(),
                                view.address_bits(), view.size());
  view.ForEachChunk([&writer](const std::uint32_t* refs, std::size_t n) {
    writer.Append(refs, n);
  });
  writer.Finish();
}

}  // namespace ces::trace
