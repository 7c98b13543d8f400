// Client side of the exploration service protocol.
//
// One Batch() call pipelines any number of request lines over a single
// connection to one daemon (a Unix socket path or host:port TCP) and
// matches responses (which may arrive out of order) back to request order
// by id. The failure policy is the standard well-behaved-client trio:
//  * a per-attempt timeout (poll-based, covers connect-to-last-response);
//  * a retry budget shared by transport failures (connect refused, peer
//    hangup, timeout) and explicit "overloaded" sheds — only the
//    still-unanswered requests are resent, on a fresh connection;
//  * jittered exponential backoff between attempts — base * 2^attempt,
//    capped, scaled by a uniform [0.5, 1.0) draw so clients shed together
//    do not retry in lockstep, and never shorter than the server's
//    retry_after_ms hint.
//
// A refused connect and a mid-stream disconnect are not the same thing and
// are treated differently: a refused connect proves the server saw nothing,
// so everything is safe to resend; a mid-stream disconnect leaves the fate
// of in-flight requests unknown, so only idempotent ops
// (protocol::IsIdempotentOp) are resent — an unanswered
// trace-begin/trace-end aborts the batch with kIo instead of risking a
// duplicate session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace ces::service {

struct ClientOptions {
  // Exactly one endpoint: a Unix socket path, or host:port TCP.
  std::string unix_path;
  std::string host = "127.0.0.1";
  int tcp_port = -1;
  int timeout_ms = 30'000;    // per attempt, connect through last response
  int max_attempts = 4;       // 1 = no retries
  int backoff_base_ms = 50;
  int backoff_cap_ms = 2'000;
  std::uint64_t jitter_seed = 0;  // 0 = derive from pid and clock
  // When false, an "overloaded" shed counts as the answer instead of being
  // retried — load generators measure shed rate with this; interactive
  // clients keep the default and ride the backoff schedule.
  bool retry_sheds = true;
  // Transport notes (refused connects, mid-stream drops, each naming the
  // endpoint) on stderr; what cachedse-client --verbose turns on.
  bool verbose = false;
};

class Client {
 public:
  explicit Client(ClientOptions options);

  // Sends `lines` (no trailing newlines) and returns decoded responses in
  // request order. Requests whose line carries no parseable id are matched
  // to unattributed error responses in arrival order. When the retry budget
  // runs out but every still-open request holds a recorded "overloaded"
  // response, those responses are returned as the answers (the caller maps
  // the server's error code instead of seeing a generic transport failure);
  // a transport-level exhaustion (connect refused, hangup, timeout) still
  // throws support::Error (kIo), as does a mid-stream disconnect with a
  // non-idempotent request in flight (never auto-resent).
  std::vector<Response> Batch(const std::vector<std::string>& lines);

  Response Request(const std::string& line);

 private:
  // Connects to the endpoint; returns the fd, or -1 with errno describing
  // the refusal. Throws support::Error (kUsage) for a bad endpoint
  // selection (neither or both set, over-long path, non-IPv4 host).
  int Connect();
  std::uint64_t BackoffMs(int attempt, std::uint64_t server_hint_ms);
  void Note(const std::string& message) const;  // verbose-mode stderr line

  ClientOptions options_;
  std::string endpoint_;  // "unix:<path>" or "<host>:<port>", for messages
  Rng jitter_;
};

// Streams `trace` as one upload session: trace-begin under trace.kind (the
// kind the server digests it under, so it seals on TraceStore::DigestOf),
// the chunks of `chunk_refs` (> 0) references pipelined in windows with
// payload `encoding` ("hex" or "base64"), then trace-end. Returns the
// trace-end response, or the first error response. `on_response`, when set,
// sees every response as it is returned.
Response UploadTrace(
    Client& client, const trace::Trace& trace, const std::string& name,
    const std::string& encoding, std::size_t chunk_refs,
    const std::function<void(const Response&)>& on_response = {});

}  // namespace ces::service
