// The exploration service wire protocol: newline-delimited JSON.
//
// One request object per line in, one response object per line out, matched
// by the client-chosen "id" (responses may arrive out of request order —
// the scheduler batches and fans out). The full schema, with examples, is
// documented in docs/SERVICE.md; the shape in brief:
//
//   request  {"id":"1","op":"explore","trace":"crc","engine":"fused",
//             "fraction":0.05,"line_words":1,"max_index_bits":16,
//             "deadline_ms":5000}
//   response {"id":"1","ok":true,"op":"explore","digest":"sha256:...",
//             "engine":"fused","k":123,"cached":false,
//             "stats":{"n":...,"n_unique":...,"max_misses":...},
//             "points":[{"depth":1,"assoc":2,"size_words":2,
//                        "warm_misses":97},...]}
//   error    {"id":"1","ok":false,"error":{"code":"parse",
//             "message":"..."}}            (+ "retry_after_ms" when shed)
//
// Parsing is strict: unknown operations, unknown fields, wrong types and
// out-of-range values are all structured support::Error throws — the daemon
// converts them to error responses, never dies (the fuzz harness pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analytic/explorer.hpp"
#include "analytic/model.hpp"
#include "trace/strip.hpp"

namespace ces::support {
class Error;
}  // namespace ces::support

namespace ces::service {
namespace protocol {

enum class Op : std::uint8_t {
  kExplore = 0,  // solve (trace, engine, K | fraction) -> design points
  kExploreJoint, // joint L1I x L1D x L2 Pareto front (explore/joint)
  kStats,        // trace statistics (N, N', max_misses)
  kIngest,       // force (re-)ingestion; returns the digest
  kMetrics,      // the server's MetricsRegistry as JSON
  kPing,         // liveness probe
  kShutdown,     // begin a graceful drain (if the server allows it)
  // Chunked streaming ingest, for traces that do not exist server-side and
  // are too large for one request line. trace-begin declares (kind,
  // address_bits, count, name) and returns an upload token; trace-chunk
  // appends references (hex/base64 payload, strictly sequenced so retried
  // requests are idempotent); trace-end seals the upload, returning the
  // digest + stats exactly like ingest. The server digests incrementally
  // and spills to disk, so memory stays bounded by one chunk.
  kTraceBegin,
  kTraceChunk,
  kTraceEnd,
  // Live introspection (answered inline, never queued): `stats` without a
  // trace reference returns the server snapshot — metrics (counters, gauges,
  // histograms with exact p50/p90/p99), queue/admission state, store and
  // connection counts; `health` is the cheap liveness/readiness summary
  // (uptime, build SHA, draining flag). `stats` WITH a trace reference keeps
  // its original meaning: trace statistics.
  kHealth,
};

const char* ToString(Op op);

struct Request {
  std::string id;          // echoed verbatim; required, <= 128 bytes
  // Server-assigned request id ("r<N>", monotonic per daemon). Never parsed
  // from the wire — ParseRequest rejects a client-sent "rid" as an unknown
  // field — the service stamps it after parsing so logs, responses and the
  // scheduler's batching all speak the same handle.
  std::string rid;
  Op op = Op::kPing;
  // Trace reference: a server-side path / built-in workload name ("trace"),
  // or the digest of an already-ingested trace ("digest", "sha256:<hex>").
  // explore/stats/ingest require exactly one of the two.
  std::string trace;
  std::string digest;
  // explore-joint only: `trace`/`digest` name the data stream and exactly
  // one of these names the instruction stream (kinds are implied, so the
  // explicit 'kind' field is rejected for this op).
  std::string trace_instr;
  std::string digest_instr;
  std::string kind = "data";     // .din reads and workload runs: data|instr
  std::string engine = "fused";  // fused|reference
  std::string space = "default"; // explore-joint: joint-space preset
  bool prune = true;             // explore-joint: enable the pruning layers
  bool has_k = false;
  std::uint64_t k = 0;
  bool has_fraction = false;
  double fraction = 0.05;
  std::uint32_t line_words = 1;
  std::uint32_t max_index_bits = 16;
  // 0 = no deadline. Relative to receipt; expired requests are answered
  // with code "deadline_exceeded" instead of being computed.
  std::uint64_t deadline_ms = 0;
  // Streaming-ingest fields (trace-begin / trace-chunk / trace-end only;
  // rejected everywhere else). `upload` is the server-issued session token;
  // `seq` is the strict 0-based chunk sequence number; `payload` carries
  // references packed little-endian, encoded per `encoding`.
  std::string upload;
  bool has_count = false;
  std::uint64_t count = 0;          // trace-begin: total references declared
  bool has_seq = false;
  std::uint64_t seq = 0;            // trace-chunk: 0-based chunk index
  std::string payload;              // trace-chunk: encoded references
  std::string encoding = "hex";     // trace-chunk: hex|base64
  bool has_address_bits = false;
  std::uint32_t address_bits = 32;  // trace-begin: declared address width
  std::string name;                 // trace-begin: display name (optional)
};

// Parses one NDJSON request line. Throws support::Error — kParse for JSON
// syntax errors, kValidation for schema violations (missing/unknown/
// mistyped fields), kUnsupported for unknown operations.
Request ParseRequest(const std::string& line);

// Best-effort id recovery for a line ParseRequest rejected, so the error
// response can still be correlated by a pipelining client. Returns "" when
// the line is not a JSON object with a string "id" of a sane length. Never
// throws.
std::string ExtractRequestId(const std::string& line);

// Best-effort op-name recovery ("explore", "trace-begin", ...) without full
// validation; "" when the line is not a JSON object with a string "op".
// Never throws. The client's retry machinery uses it to classify lines it
// is about to resend.
std::string ExtractRequestOp(const std::string& line);

// Whether resending a request with this op after a mid-stream disconnect is
// safe. explore/stats/ingest are pure reads of content-addressed state;
// trace-chunk is strictly sequenced with replay-acks, so a duplicate is a
// no-op. trace-begin opens a fresh session per call and trace-end consumes
// the session, so resending either can double or orphan server state.
// Unknown/unparseable ops are treated as idempotent: the server answers
// them with a deterministic structured error.
bool IsIdempotentOp(const std::string& op);

// Error codes beyond support::ErrorCategory that the protocol defines.
inline constexpr char kCodeOverloaded[] = "overloaded";
inline constexpr char kCodeDeadlineExceeded[] = "deadline_exceeded";
inline constexpr char kCodeShuttingDown[] = "shutting_down";

// The live-introspection snapshot the `stats` (server form) and `health`
// responses serialise. The service fills it from its own state plus the
// MetricsRegistry; protocol only owns the wire shape.
struct ServerInfo {
  std::uint64_t uptime_us = 0;
  std::string git_sha;           // support::GitSha()
  std::uint64_t pid = 0;
  std::uint64_t jobs = 0;        // scheduler worker count
  std::uint64_t connections_live = 0;
  std::uint64_t connections_total = 0;
  std::uint64_t queue_depth = 0;   // jobs admitted but not yet dispatched
  std::uint64_t queue_limit = 0;   // admission bound
  std::uint64_t shed_total = 0;    // requests refused with "overloaded"
  std::uint64_t retry_after_ms = 0;  // the hint shed responses carry
  bool draining = false;
  std::uint64_t traces_pinned = 0;
  std::uint64_t uploads_open = 0;
  std::uint64_t requests_total = 0;  // rids assigned so far
  std::string simd_kernel;  // support::simd::LevelName of the active level
};

// Response serialisers. None of them append the trailing newline; the
// transport owns framing. Every serialiser takes the server-assigned rid as
// a trailing parameter; when empty (direct protocol tests) the "rid" field
// is omitted — the daemon always passes one.
std::string PingResponse(const std::string& id, const std::string& rid = "");
std::string IngestResponse(const std::string& id, const std::string& digest,
                           const trace::TraceStats& stats,
                           const std::string& rid = "");
std::string StatsResponse(const std::string& id, const std::string& digest,
                          const trace::TraceStats& stats,
                          const std::string& kind,
                          const std::string& rid = "");
std::string ExploreResponse(const std::string& id, const std::string& digest,
                            const std::string& engine, std::uint64_t k,
                            const trace::TraceStats& stats,
                            const std::vector<analytic::DesignPoint>& points,
                            bool cached, const std::string& rid = "");
// `joint_json` is explore::JointReportJson output (already a JSON object,
// deterministic ces-joint-v1 key order) embedded verbatim under "joint".
std::string ExploreJointResponse(const std::string& id,
                                 const std::string& digest,
                                 const std::string& digest_instr,
                                 const std::string& engine,
                                 const std::string& space, bool prune,
                                 bool cached, const std::string& joint_json,
                                 const std::string& rid = "");
std::string MetricsResponse(const std::string& id,
                            const std::string& metrics_json,
                            const std::string& rid = "");
// `metrics_json` is MetricsRegistry::ToJson(include_volatile,
// include_percentiles) output, embedded verbatim under "server"."metrics".
std::string ServerStatsResponse(const std::string& id, const ServerInfo& info,
                                const std::string& metrics_json,
                                const std::string& rid = "");
std::string HealthResponse(const std::string& id, const ServerInfo& info,
                           const std::string& rid = "");
std::string TraceBeginResponse(const std::string& id,
                               const std::string& upload,
                               std::uint64_t count,
                               const std::string& rid = "");
std::string TraceChunkResponse(const std::string& id,
                               const std::string& upload, std::uint64_t seq,
                               std::uint64_t received,
                               const std::string& rid = "");
std::string TraceEndResponse(const std::string& id, const std::string& digest,
                             const trace::TraceStats& stats,
                             const std::string& rid = "");
std::string ShutdownResponse(const std::string& id,
                             const std::string& rid = "");
std::string ErrorResponse(const std::string& id, const std::string& code,
                          const std::string& message,
                          std::uint64_t retry_after_ms = 0,
                          const std::string& rid = "");
std::string ErrorResponse(const std::string& id, const support::Error& error,
                          const std::string& rid = "");

// Client-side decode of a response line (used by the client library and the
// tests; the daemon never parses responses). Throws support::Error (kParse /
// kValidation) on malformed lines.
struct Response {
  std::string id;
  std::string rid;  // server-assigned; "" from serialisers called without one
  bool ok = false;
  std::string error_code;     // when !ok
  std::string error_message;  // when !ok
  std::uint64_t retry_after_ms = 0;
  std::string digest;
  std::string digest_instr;  // explore-joint: instruction-stream digest
  std::string engine;
  std::string space;         // explore-joint: joint-space preset name
  bool prune = false;        // explore-joint: whether pruning was on
  std::uint64_t k = 0;
  bool cached = false;
  bool has_stats = false;
  trace::TraceStats stats;
  std::vector<analytic::DesignPoint> points;
  std::string metrics_json;  // metrics op: the nested object, re-serialised
  std::string joint_json;    // explore-joint: the ces-joint-v1 report object
  std::string server_json;   // stats(server)/health: the "server" object
  bool has_healthy = false;
  bool healthy = false;      // health op
  std::string upload;        // trace-begin/chunk: the upload session token
  std::uint64_t seq = 0;     // trace-chunk: echoed chunk sequence number
  std::uint64_t received = 0;  // trace-chunk: total references applied so far
  std::string raw;           // the undecoded line
};

Response ParseResponse(const std::string& line);

// Chunk-payload codec: references packed little-endian (4 bytes each), then
// encoded as lowercase hex or standard base64 (the JSON-safe envelopes).
// Decode throws support::Error (kValidation) for an unknown encoding name,
// stray characters, or a byte length that is not a multiple of 4; both
// directions are exercised by the uploading client and the tests.
std::vector<std::uint32_t> DecodeChunkPayload(const std::string& encoding,
                                              const std::string& payload);
std::string EncodeChunkPayload(const std::string& encoding,
                               const std::uint32_t* refs, std::size_t n);

}  // namespace protocol

// The protocol types are the service's working vocabulary; the serialiser
// functions stay behind the protocol:: qualifier to keep call sites honest
// about producing wire bytes.
using protocol::Op;
using protocol::ParseRequest;
using protocol::ParseResponse;
using protocol::Request;
using protocol::Response;

}  // namespace ces::service
