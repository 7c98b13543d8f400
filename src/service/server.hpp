// NDJSON socket front end for the exploration service.
//
// One listening socket — a Unix-domain path (ops default: no port
// squatting, filesystem permissions) or loopback TCP (port 0 picks an
// ephemeral port, reported by port()) — one reader thread per connection,
// newline-framed requests in, newline-framed responses out. Responses are
// written as they complete, so they may interleave out of request order;
// the "id" field is the correlation key. Writes from concurrent scheduler
// workers serialise on a per-connection mutex, and a vanished peer is a
// non-event (EPIPE is swallowed; the result is simply dropped).
//
// Shutdown: RequestShutdown() — from the SIGTERM watcher, the protocol's
// shutdown op, or a test — only flags and notifies; the teardown runs in
// Wait(): stop accepting, drain the scheduler (every admitted request is
// answered; new ones get "shutting_down"), then hang up the connections.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"

namespace ces::service {

struct ServerOptions {
  // Exactly one of the two endpoints must be selected.
  std::string unix_path;            // AF_UNIX when non-empty
  int tcp_port = -1;                // loopback TCP when >= 0; 0 = ephemeral
  std::size_t max_line_bytes = 1u << 20;
  ExplorationService::Options service;
};

class Server {
 public:
  // Owns an ExplorationService built from options.service; the protocol's
  // shutdown op is wired to RequestShutdown.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens and starts accepting. Throws support::Error (kIo on
  // socket failures, kUsage on bad endpoint configuration).
  void Start();

  // The bound TCP port (after Start); -1 for Unix-domain servers.
  int port() const { return port_; }
  // Human-readable endpoint ("unix:/path" or "tcp:127.0.0.1:PORT").
  std::string endpoint() const;

  // Flags shutdown and returns immediately; safe from any thread, including
  // connection readers (the protocol shutdown op) and the signal watcher.
  void RequestShutdown();

  // Blocks until RequestShutdown, then performs the graceful drain and
  // returns. Call from the owning thread exactly once.
  void Wait();

  ExplorationService& service() { return service_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    std::atomic<bool> open{true};
    // Set by ReadLoop on exit; tells the acceptor the entry is reapable
    // (thread joinable without blocking, fd closable).
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ReapFinishedConnections();
  void ReadLoop(std::shared_ptr<Connection> connection);
  void SendLine(const std::shared_ptr<Connection>& connection,
                const std::string& line);

  ServerOptions options_;
  ExplorationService service_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread accept_thread_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_requested_ = false;
  bool started_ = false;
  std::vector<std::pair<std::shared_ptr<Connection>, std::thread>>
      connections_;
};

}  // namespace ces::service
