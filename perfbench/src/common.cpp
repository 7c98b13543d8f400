#include "common.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "support/rng.hpp"

namespace cesbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void WriteAll(int fd, const void* data, std::size_t size) {
  const char* at = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, at, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) std::_Exit(3);
    at += n;
    size -= static_cast<std::size_t>(n);
  }
}

void WriteRecord(int fd, const std::string& text) {
  const std::uint64_t size = text.size();
  WriteAll(fd, &size, sizeof(size));
  WriteAll(fd, text.data(), text.size());
}

// Reads exactly `size` bytes; false on a clean EOF before the first byte.
bool ReadExact(int fd, void* data, std::size_t size) {
  char* at = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, at + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw std::runtime_error("oracle pipe read failed");
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("oracle pipe truncated");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool ReadRecord(int fd, std::string* text) {
  std::uint64_t size = 0;
  if (!ReadExact(fd, &size, sizeof(size))) return false;
  text->assign(size, '\0');
  if (size > 0 && !ReadExact(fd, text->data(), size)) {
    throw std::runtime_error("oracle pipe truncated");
  }
  return true;
}

}  // namespace

int SpanLog::Begin(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanLog::End(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::Append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

LayerTotals SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  LayerTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    totals.self_s[spans[i].name] += duration - child_s[i];
    ++totals.count[spans[i].name];
  }
  return totals;
}

std::vector<double> OpCoverage(const std::vector<Span>& spans,
                               const std::string& op_name) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::vector<double> coverage;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || spans[i].name != op_name) continue;
    const double duration =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    coverage.push_back(duration > 0 ? child_ns[i] / duration : 1.0);
  }
  return coverage;
}

Expected RunInChild(const std::function<Expected()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      for (const auto& [key, value] : fn()) {
        WriteRecord(fds[1], key);
        WriteRecord(fds[1], value);
      }
    } catch (const std::exception& e) {
      const std::string message = std::string("oracle: ") + e.what() + "\n";
      WriteAll(STDERR_FILENO, message.data(), message.size());
      code = 1;
    }
    ::close(fds[1]);
    std::_Exit(code);
  }
  ::close(fds[1]);
  Expected expected;
  std::string key;
  std::string value;
  bool read_ok = true;
  try {
    while (ReadRecord(fds[0], &key)) {
      if (!ReadRecord(fds[0], &value)) {
        throw std::runtime_error("oracle pipe truncated");
      }
      expected[key] = value;
    }
  } catch (const std::exception&) {
    read_ok = false;
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!read_ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("oracle child failed");
  }
  return expected;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double SelfPeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

ces::trace::Trace LocalityTrace(std::uint64_t seed, std::uint32_t length,
                                std::uint32_t hot_lines,
                                std::uint32_t cold_lines,
                                std::uint32_t cold_base,
                                double hot_run_share) {
  ces::Rng rng(seed);
  ces::trace::Trace trace;
  trace.kind = ces::trace::StreamKind::kData;
  trace.address_bits = 32;
  trace.name = "locality-" + std::to_string(seed);
  trace.refs.reserve(length);
  std::uint32_t cursor = 0;
  std::uint32_t run_left = 0;
  bool hot = true;
  for (std::uint32_t i = 0; i < length; ++i) {
    if (run_left == 0) {
      hot = rng.NextBool(hot_run_share);
      if (hot) {
        cursor = static_cast<std::uint32_t>(rng.NextBounded(hot_lines));
        run_left = 4 + static_cast<std::uint32_t>(rng.NextBounded(28));
      } else {
        cursor = cold_base +
                 static_cast<std::uint32_t>(rng.NextBounded(cold_lines));
        run_left = 1 + static_cast<std::uint32_t>(rng.NextBounded(7));
      }
    }
    trace.refs.push_back(cursor);
    cursor = hot ? (cursor + 1) % hot_lines : cursor + 1;
    --run_left;
  }
  return trace;
}

void WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

}  // namespace cesbench
