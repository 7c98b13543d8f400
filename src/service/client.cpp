#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "service/json.hpp"
#include "support/error.hpp"

namespace ces::service {

using support::Error;
using support::ErrorCategory;

namespace {

// Connects a blocking stream socket; returns the fd, or -1 with errno
// describing the refusal.
int ConnectTo(int family, const sockaddr* addr, socklen_t addr_len) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, addr, addr_len) == 0) return fd;
  const int saved = errno;
  ::close(fd);
  errno = saved;
  return -1;
}

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)),
      endpoint_(!options_.unix_path.empty()
                    ? "unix:" + options_.unix_path
                    : options_.host + ":" + std::to_string(options_.tcp_port)),
      jitter_(options_.jitter_seed != 0
                  ? options_.jitter_seed
                  : static_cast<std::uint64_t>(::getpid()) * 0x9e3779b9ull +
                        static_cast<std::uint64_t>(
                            std::chrono::steady_clock::now()
                                .time_since_epoch()
                                .count())) {}

void Client::Note(const std::string& message) const {
  if (!options_.verbose) return;
  std::fprintf(stderr, "client: %s\n", message.c_str());
}

int Client::Connect() {
  if (options_.unix_path.empty() == (options_.tcp_port < 0)) {
    throw Error(ErrorCategory::kUsage, "client",
                "select exactly one of unix_path and tcp_port");
  }
  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw Error(ErrorCategory::kUsage, "client",
                  "unix socket path too long: " + options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    return ConnectTo(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    throw Error(ErrorCategory::kUsage, "client",
                "not an IPv4 address: " + options_.host);
  }
  return ConnectTo(AF_INET, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
}

std::uint64_t Client::BackoffMs(int attempt, std::uint64_t server_hint_ms) {
  std::uint64_t delay = static_cast<std::uint64_t>(options_.backoff_base_ms);
  for (int i = 0; i < attempt && delay < static_cast<std::uint64_t>(
                                             options_.backoff_cap_ms);
       ++i) {
    delay *= 2;
  }
  delay = std::min(delay, static_cast<std::uint64_t>(options_.backoff_cap_ms));
  // Uniform [0.5, 1.0) scaling: desynchronises retry storms while keeping
  // the expected delay proportional to the exponential schedule.
  delay = delay / 2 + jitter_.NextBounded(std::max<std::uint64_t>(delay / 2, 1));
  return std::max(delay, server_hint_ms);
}

std::vector<Response> Client::Batch(const std::vector<std::string>& lines) {
  std::vector<Response> responses(lines.size());
  std::vector<bool> answered(lines.size(), false);
  // The server recovers ids with the same extractor, so request and
  // response agree on "" exactly when the line's id is unreadable.
  std::vector<std::string> ids(lines.size());
  // Idempotency classification, for the mid-stream-disconnect policy. A
  // connect that never succeeded sent nothing, so everything stays safe.
  std::vector<bool> resend_safe(lines.size(), true);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ids[i] = protocol::ExtractRequestId(lines[i]);
    resend_safe[i] = protocol::IsIdempotentOp(
        protocol::ExtractRequestOp(lines[i]));
  }

  std::string last_failure = "no attempt made";
  for (int attempt = 0; attempt < std::max(options_.max_attempts, 1);
       ++attempt) {
    if (attempt > 0) {
      std::uint64_t hint = 0;
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (answered[i]) continue;
        hint = std::max(hint, responses[i].retry_after_ms);
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(BackoffMs(attempt - 1, hint)));
    }

    const int fd = Connect();
    if (fd < 0) {
      // Connect-refused: the server saw nothing, every request is safe to
      // resend on the next attempt.
      const std::string reason = std::strerror(errno);
      last_failure = "connect: " + reason;
      Note("cannot connect to " + endpoint_ + ": " + reason);
      continue;
    }

    // Send every still-unanswered request, pipelined.
    std::string out;
    std::size_t outstanding = 0;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (answered[i]) continue;
      out += lines[i];
      out.push_back('\n');
      ++outstanding;
    }
    // Once any byte is on the wire the attempt can fail "mid-stream": the
    // server may or may not have executed the in-flight requests.
    bool mid_stream_failure = false;
    bool transport_ok = true;
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n =
          ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        last_failure = std::string("send: ") + std::strerror(errno);
        transport_ok = false;
        mid_stream_failure = true;
        break;
      }
      sent += static_cast<std::size_t>(n);
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(options_.timeout_ms);
    std::string pending;
    char buffer[16384];
    while (transport_ok && outstanding > 0) {
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        last_failure = "timed out waiting for responses";
        mid_stream_failure = true;
        break;
      }
      pollfd poll_fd{fd, POLLIN, 0};
      const int ready =
          ::poll(&poll_fd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        last_failure = std::string("poll: ") + std::strerror(errno);
        mid_stream_failure = true;
        break;
      }
      if (ready == 0) {
        last_failure = "timed out waiting for responses";
        mid_stream_failure = true;
        break;
      }
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        last_failure = n == 0 ? "server hung up"
                              : std::string("recv: ") + std::strerror(errno);
        mid_stream_failure = true;
        break;
      }
      pending.append(buffer, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (;;) {
        const std::size_t newline = pending.find('\n', start);
        if (newline == std::string::npos) break;
        const std::string line = pending.substr(start, newline - start);
        start = newline + 1;
        if (line.empty()) continue;
        Response response;
        try {
          response = ParseResponse(line);
        } catch (const Error& e) {
          last_failure = std::string("undecodable response: ") + e.what();
          continue;
        }
        // Match by id; unattributed responses (the server could not parse
        // the request, so it could not echo an id) fill the earliest
        // unanswered slot whose request had no parseable id either.
        std::size_t slot = lines.size();
        for (std::size_t i = 0; i < lines.size(); ++i) {
          if (!answered[i] && ids[i] == response.id) {
            slot = i;
            break;
          }
        }
        if (slot == lines.size() && response.id.empty()) {
          for (std::size_t i = 0; i < lines.size(); ++i) {
            if (!answered[i] && ids[i].empty()) {
              slot = i;
              break;
            }
          }
        }
        if (slot == lines.size()) continue;  // duplicate or stray id
        responses[slot] = std::move(response);
        if (!options_.retry_sheds || responses[slot].ok ||
            responses[slot].error_code != protocol::kCodeOverloaded) {
          answered[slot] = true;  // sheds stay unanswered: retried next loop
        } else {
          last_failure = "server overloaded";
        }
        --outstanding;
      }
      pending.erase(0, start);
    }
    ::close(fd);

    if (std::all_of(answered.begin(), answered.end(),
                    [](bool a) { return a; })) {
      return responses;
    }
    if (mid_stream_failure) {
      // The connection died with requests in flight. Idempotent ops are
      // safe to resend; an unanswered trace-begin/trace-end may already
      // have executed server-side, so resending risks a duplicate or
      // orphaned upload session — abort instead and let the caller rerun.
      for (std::size_t i = 0; i < lines.size(); ++i) {
        if (answered[i] || resend_safe[i]) continue;
        throw Error(
            ErrorCategory::kIo, "client",
            "mid-stream disconnect from " + endpoint_ + " (" +
                last_failure + ") with non-idempotent '" +
                protocol::ExtractRequestOp(lines[i]) +
                "' in flight; not resent");
      }
      Note("mid-stream disconnect from " + endpoint_ + " (" + last_failure +
           "); resending idempotent requests");
    }
  }
  // Budget exhausted. If every open slot holds a recorded "overloaded"
  // response, the server answered — repeatedly — and the caller deserves
  // that answer (its code, message and retry hint) rather than a generic
  // transport error. Any slot with nothing recorded means a real transport
  // failure somewhere, which stays a throw.
  bool all_shed = true;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (answered[i]) continue;
    if (responses[i].raw.empty() ||
        responses[i].error_code != protocol::kCodeOverloaded) {
      all_shed = false;
      break;
    }
  }
  if (all_shed) return responses;
  throw Error(ErrorCategory::kIo, "client",
              "retry budget exhausted (" +
                  std::to_string(std::max(options_.max_attempts, 1)) +
                  " attempts) on " + endpoint_ + ": " + last_failure);
}

Response Client::Request(const std::string& line) {
  return Batch({line}).front();
}

}  // namespace ces::service
