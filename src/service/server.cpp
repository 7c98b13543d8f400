#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "service/protocol.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/trace_event.hpp"

namespace ces::service {

namespace {

using support::Error;
using support::ErrorCategory;

[[noreturn]] void FailIo(const std::string& what) {
  throw Error(ErrorCategory::kIo, "server",
              what + ": " + std::strerror(errno));
}

ExplorationService::Options WithShutdownHook(
    ExplorationService::Options options, std::function<void()> hook) {
  options.on_shutdown_request = std::move(hook);
  return options;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      service_(WithShutdownHook(options_.service,
                                [this] { RequestShutdown(); })) {}

Server::~Server() {
  // Destruction without Wait() still tears everything down.
  RequestShutdown();
  if (started_) Wait();
}

std::string Server::endpoint() const {
  if (!options_.unix_path.empty()) return "unix:" + options_.unix_path;
  return "tcp:127.0.0.1:" + std::to_string(port_);
}

void Server::Start() {
  if (started_) {
    throw Error(ErrorCategory::kUsage, "server", "Start called twice");
  }
  const bool use_unix = !options_.unix_path.empty();
  if (use_unix == (options_.tcp_port >= 0)) {
    throw Error(ErrorCategory::kUsage, "server",
                "select exactly one of unix_path and tcp_port");
  }
  if (use_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw Error(ErrorCategory::kUsage, "server",
                  "unix socket path longer than sockaddr_un allows: " +
                      options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) FailIo("socket");
    // A previous daemon that died uncleanly leaves the inode behind, which
    // bind reports as EADDRINUSE — but blindly unlinking would silently
    // steal the endpoint from a daemon that is still alive. Probe first:
    // a successful connect means a live listener (refuse to start), and
    // only ECONNREFUSED (stale inode) licenses the unlink. ENOENT means
    // there is nothing to remove at all.
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      FailIo("socket");
    }
    if (::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      ::close(probe);
      ::close(listen_fd_);
      listen_fd_ = -1;
      throw Error(ErrorCategory::kIo, "server",
                  "a daemon is already listening on " + options_.unix_path);
    }
    const int probe_errno = errno;
    ::close(probe);
    if (probe_errno == ECONNREFUSED) {
      ::unlink(options_.unix_path.c_str());
    } else if (probe_errno != ENOENT) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      errno = probe_errno;
      FailIo("probe existing socket " + options_.unix_path);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      FailIo("bind " + options_.unix_path);
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) FailIo("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      FailIo("bind 127.0.0.1:" + std::to_string(options_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) != 0) {
      FailIo("getsockname");
    }
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, 64) != 0) FailIo("listen");
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::AcceptLoop() {
  support::TraceSink* sink = support::TraceSink::Global();
  if (sink != nullptr) sink->NameThisThread("service acceptor");
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      const int accept_errno = errno;
      if (accept_errno == EINTR || accept_errno == ECONNABORTED) continue;
      {
        // Wait() closes the listen socket only after shutdown_requested_ is
        // set, so a failure during shutdown is always observable here.
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_requested_) return;
      }
      if (accept_errno == EMFILE || accept_errno == ENFILE ||
          accept_errno == ENOBUFS || accept_errno == ENOMEM) {
        // Out of fds or kernel memory: a transient condition the daemon
        // must ride out, not a reason to kill the acceptor forever.
        // Reaping finished connections frees fds; then back off briefly.
        ReapFinishedConnections();
        support::MetricsRegistry::Add(options_.service.metrics,
                                      "service.accept_backoff");
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        continue;
      }
      return;  // EBADF/EINVAL etc: the listen socket itself is gone
    }
    ReapFinishedConnections();
    // A peer that stops reading must not wedge a scheduler worker inside
    // send() forever (that would stall the drain); after the timeout the
    // connection is treated as gone and its responses are dropped.
    const timeval send_timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_requested_) {
      ::close(fd);
      return;
    }
    support::MetricsRegistry::Add(options_.service.metrics,
                                  "service.connections");
    connections_.emplace_back(
        connection, std::thread([this, connection] { ReadLoop(connection); }));
    support::MetricsRegistry::SetGauge(options_.service.metrics,
                                       "service.connections.live",
                                       connections_.size());
  }
}

void Server::ReapFinishedConnections() {
  // Sweep connections whose ReadLoop has exited: without this, a
  // long-running daemon under connection churn accumulates one closed-over
  // fd and one finished std::thread per past client until Wait().
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (it->first->done.load(std::memory_order_acquire)) {
        finished.emplace_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    support::MetricsRegistry::SetGauge(options_.service.metrics,
                                       "service.connections.live",
                                       connections_.size());
  }
  for (auto& [connection, thread] : finished) {
    if (thread.joinable()) thread.join();
    {
      // Serialise with any responder mid-SendLine before closing the fd;
      // open=false makes late responses no-ops instead of writes to a
      // possibly-reused fd number.
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      connection->open.store(false, std::memory_order_release);
    }
    ::close(connection->fd);
  }
}

void Server::SendLine(const std::shared_ptr<Connection>& connection,
                      const std::string& line) {
  std::lock_guard<std::mutex> lock(connection->write_mutex);
  if (!connection->open.load(std::memory_order_acquire)) return;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(connection->fd, framed.data() + sent,
                             framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Peer is gone; drop the rest. The computation still warmed the
      // caches, so the work is not wasted.
      connection->open.store(false, std::memory_order_release);
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Server::ReadLoop(std::shared_ptr<Connection> connection) {
  support::TraceSink* sink = support::TraceSink::Global();
  if (sink != nullptr) sink->NameThisThread("service reader");
  std::string pending;
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, buffer, sizeof(buffer), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    pending.append(buffer, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t newline = pending.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = pending.substr(start, newline - start);
      start = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      service_.Handle(line, [this, connection](const std::string& response) {
        SendLine(connection, response);
      });
    }
    pending.erase(0, start);
    if (pending.size() > options_.max_line_bytes) {
      SendLine(connection,
               protocol::ErrorResponse(
                   "", support::ToString(ErrorCategory::kValidation),
                   "request line exceeds " +
                       std::to_string(options_.max_line_bytes) + " bytes"));
      break;
    }
  }
  connection->open.store(false, std::memory_order_release);
  connection->done.store(true, std::memory_order_release);
}

void Server::RequestShutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_requested_) return;
    shutdown_requested_ = true;
  }
  cv_.notify_all();
}

void Server::Wait() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  if (!started_) return;
  started_ = false;

  // 1. Stop accepting: closing the listen socket fails the blocking accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;

  // 2. Answer everything already admitted. Connections are still writable,
  // so in-flight clients get their results; anything submitted from here on
  // is shed with "shutting_down".
  service_.Drain();

  // 3. Hang up. shutdown() unblocks the reader threads' recv.
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections.swap(connections_);
  }
  for (auto& [connection, thread] : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& [connection, thread] : connections) {
    if (thread.joinable()) thread.join();
    {
      // Serialise with any responder mid-SendLine before closing the fd.
      std::lock_guard<std::mutex> write_lock(connection->write_mutex);
      connection->open.store(false, std::memory_order_release);
    }
    ::close(connection->fd);
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

}  // namespace ces::service
