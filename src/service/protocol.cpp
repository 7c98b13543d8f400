#include "service/protocol.hpp"

#include <cinttypes>
#include <cstdio>

#include "service/json.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace ces::service {
namespace protocol {

namespace {

using support::Error;
using support::ErrorCategory;

[[noreturn]] void FailValidation(const std::string& detail) {
  throw Error(ErrorCategory::kValidation, "request", detail);
}

std::string RequireString(const JsonValue& value, const char* key) {
  if (value.kind != JsonValue::Kind::kString) {
    FailValidation(std::string("field '") + key + "' must be a string, got " +
                   ToString(value.kind));
  }
  return value.string;
}

std::uint64_t RequireInteger(const JsonValue& value, const char* key,
                             std::uint64_t max) {
  if (value.kind != JsonValue::Kind::kNumber || !value.is_integer) {
    FailValidation(std::string("field '") + key +
                   "' must be a non-negative integer");
  }
  if (value.integer > max) {
    FailValidation(std::string("field '") + key + "' exceeds " +
                   std::to_string(max));
  }
  return value.integer;
}

std::string RequireDigest(const JsonValue& value, const char* key) {
  const std::string digest = RequireString(value, key);
  if (digest.compare(0, 7, "sha256:") != 0 || digest.size() != 7 + 64) {
    FailValidation(std::string("field '") + key +
                   "' must be 'sha256:' + 64 hex digits");
  }
  return digest;
}

double RequireFraction(const JsonValue& value, const char* key) {
  if (value.kind != JsonValue::Kind::kNumber) {
    FailValidation(std::string("field '") + key + "' must be a number");
  }
  if (!(value.number >= 0.0) || value.number > 1.0) {
    FailValidation(std::string("field '") + key + "' must be in [0, 1]");
  }
  return value.number;
}

std::string U64(std::uint64_t value) { return std::to_string(value); }

void AppendStats(std::string& out, const trace::TraceStats& stats) {
  out += "\"stats\":{\"n\":" + U64(stats.n) +
         ",\"n_unique\":" + U64(stats.n_unique) +
         ",\"max_misses\":" + U64(stats.max_misses) + "}";
}

std::string Head(const std::string& id, const std::string& rid,
                 const char* op) {
  std::string out = "{\"id\":" + support::JsonQuote(id);
  if (!rid.empty()) out += ",\"rid\":" + support::JsonQuote(rid);
  out += ",\"ok\":true,\"op\":" + support::JsonQuote(op);
  return out;
}

}  // namespace

const char* ToString(Op op) {
  switch (op) {
    case Op::kExplore:
      return "explore";
    case Op::kExploreJoint:
      return "explore-joint";
    case Op::kStats:
      return "stats";
    case Op::kIngest:
      return "ingest";
    case Op::kMetrics:
      return "metrics";
    case Op::kPing:
      return "ping";
    case Op::kShutdown:
      return "shutdown";
    case Op::kTraceBegin:
      return "trace-begin";
    case Op::kTraceChunk:
      return "trace-chunk";
    case Op::kTraceEnd:
      return "trace-end";
    case Op::kHealth:
      return "health";
  }
  return "?";
}

Request ParseRequest(const std::string& line) {
  const JsonValue root = ParseJson(line);
  if (root.kind != JsonValue::Kind::kObject) {
    FailValidation("request must be a JSON object");
  }

  Request request;
  bool saw_op = false;
  bool saw_kind = false;
  bool saw_line_words = false;
  bool saw_max_index_bits = false;
  bool saw_space = false;
  bool saw_prune = false;
  bool saw_payload = false;
  bool saw_encoding = false;
  bool saw_name = false;
  bool saw_engine = false;
  for (const auto& [key, value] : root.object) {
    if (key == "id") {
      request.id = RequireString(value, "id");
      if (request.id.empty() || request.id.size() > 128) {
        FailValidation("field 'id' must be 1..128 bytes");
      }
    } else if (key == "op") {
      const std::string name = RequireString(value, "op");
      saw_op = true;
      if (name == "explore") {
        request.op = Op::kExplore;
      } else if (name == "explore-joint") {
        request.op = Op::kExploreJoint;
      } else if (name == "stats") {
        request.op = Op::kStats;
      } else if (name == "ingest") {
        request.op = Op::kIngest;
      } else if (name == "metrics") {
        request.op = Op::kMetrics;
      } else if (name == "ping") {
        request.op = Op::kPing;
      } else if (name == "shutdown") {
        request.op = Op::kShutdown;
      } else if (name == "trace-begin") {
        request.op = Op::kTraceBegin;
      } else if (name == "trace-chunk") {
        request.op = Op::kTraceChunk;
      } else if (name == "trace-end") {
        request.op = Op::kTraceEnd;
      } else if (name == "health") {
        request.op = Op::kHealth;
      } else {
        throw Error(ErrorCategory::kUnsupported, "request",
                    "unknown op '" + name + "'");
      }
    } else if (key == "trace") {
      request.trace = RequireString(value, "trace");
      if (request.trace.empty() || request.trace.size() > 4096) {
        FailValidation("field 'trace' must be 1..4096 bytes");
      }
    } else if (key == "digest") {
      request.digest = RequireDigest(value, "digest");
    } else if (key == "trace_instr") {
      request.trace_instr = RequireString(value, "trace_instr");
      if (request.trace_instr.empty() || request.trace_instr.size() > 4096) {
        FailValidation("field 'trace_instr' must be 1..4096 bytes");
      }
    } else if (key == "digest_instr") {
      request.digest_instr = RequireDigest(value, "digest_instr");
    } else if (key == "kind") {
      request.kind = RequireString(value, "kind");
      saw_kind = true;
      if (request.kind != "data" && request.kind != "instr") {
        FailValidation("field 'kind' must be data|instr");
      }
    } else if (key == "space") {
      request.space = RequireString(value, "space");
      saw_space = true;
      if (request.space != "default" && request.space != "small") {
        FailValidation("field 'space' must be default|small");
      }
    } else if (key == "prune") {
      if (value.kind != JsonValue::Kind::kBool) {
        FailValidation("field 'prune' must be a bool");
      }
      request.prune = value.boolean;
      saw_prune = true;
    } else if (key == "engine") {
      request.engine = RequireString(value, "engine");
      saw_engine = true;
      if (request.engine != "fused" && request.engine != "reference") {
        FailValidation("field 'engine' must be fused|reference");
      }
    } else if (key == "k") {
      request.k = RequireInteger(value, "k", ~std::uint64_t{0});
      request.has_k = true;
    } else if (key == "fraction") {
      request.fraction = RequireFraction(value, "fraction");
      request.has_fraction = true;
    } else if (key == "line_words") {
      request.line_words = static_cast<std::uint32_t>(
          RequireInteger(value, "line_words", 1u << 16));
      saw_line_words = true;
      if (request.line_words == 0 ||
          (request.line_words & (request.line_words - 1)) != 0) {
        FailValidation("field 'line_words' must be a power of two");
      }
    } else if (key == "max_index_bits") {
      request.max_index_bits = static_cast<std::uint32_t>(
          RequireInteger(value, "max_index_bits", 28));
      saw_max_index_bits = true;
      if (request.max_index_bits == 0) {
        FailValidation("field 'max_index_bits' must be >= 1");
      }
    } else if (key == "deadline_ms") {
      request.deadline_ms =
          RequireInteger(value, "deadline_ms", 86'400'000ull);
    } else if (key == "upload") {
      request.upload = RequireString(value, "upload");
      if (request.upload.empty() || request.upload.size() > 128) {
        FailValidation("field 'upload' must be 1..128 bytes");
      }
    } else if (key == "count") {
      request.count = RequireInteger(value, "count", 0xffffffffull);
      request.has_count = true;
    } else if (key == "seq") {
      request.seq = RequireInteger(value, "seq", 0xffffffffull);
      request.has_seq = true;
    } else if (key == "payload") {
      request.payload = RequireString(value, "payload");
      if (request.payload.empty() || request.payload.size() > (16u << 20)) {
        FailValidation("field 'payload' must be 1..16777216 bytes");
      }
      saw_payload = true;
    } else if (key == "encoding") {
      request.encoding = RequireString(value, "encoding");
      saw_encoding = true;
      if (request.encoding != "hex" && request.encoding != "base64") {
        FailValidation("field 'encoding' must be hex|base64");
      }
    } else if (key == "address_bits") {
      request.address_bits = static_cast<std::uint32_t>(
          RequireInteger(value, "address_bits", 32));
      request.has_address_bits = true;
      if (request.address_bits == 0) {
        FailValidation("field 'address_bits' must be in [1, 32]");
      }
    } else if (key == "name") {
      request.name = RequireString(value, "name");
      saw_name = true;
      if (request.name.size() > 256) {
        FailValidation("field 'name' must be <= 256 bytes");
      }
    } else {
      FailValidation("unknown field '" + key + "'");
    }
  }

  if (request.id.empty()) FailValidation("field 'id' is required");
  if (!saw_op) FailValidation("field 'op' is required");
  const bool needs_trace = request.op == Op::kExplore ||
                           request.op == Op::kExploreJoint ||
                           request.op == Op::kStats ||
                           request.op == Op::kIngest;
  if (needs_trace) {
    if (request.trace.empty() == request.digest.empty()) {
      // stats with neither reference is the live server snapshot (answered
      // inline); everything else still needs exactly one.
      const bool server_stats = request.op == Op::kStats &&
                                request.trace.empty() &&
                                request.digest.empty();
      if (!server_stats) {
        FailValidation(std::string(ToString(request.op)) +
                       " requires exactly one of 'trace' or 'digest'");
      }
    }
    if (request.op == Op::kIngest && request.trace.empty()) {
      FailValidation("ingest requires 'trace' (a digest proves nothing new)");
    }
  }
  if (request.has_k && request.has_fraction) {
    FailValidation("'k' and 'fraction' are mutually exclusive");
  }
  const bool is_upload = request.op == Op::kTraceBegin ||
                         request.op == Op::kTraceChunk ||
                         request.op == Op::kTraceEnd;
  if (is_upload) {
    // Streaming-ingest ops carry only their own vocabulary; exploration
    // fields on them are client bugs, so reject loudly instead of ignoring.
    if (!request.trace.empty() || !request.digest.empty() || saw_engine ||
        request.has_k || request.has_fraction || saw_line_words ||
        saw_max_index_bits) {
      FailValidation(std::string(ToString(request.op)) +
                     " accepts no trace-reference or exploration fields");
    }
    if (request.op == Op::kTraceBegin) {
      if (!request.has_count) FailValidation("trace-begin requires 'count'");
      if (!request.upload.empty() || request.has_seq || saw_payload ||
          saw_encoding) {
        FailValidation(
            "'upload', 'seq', 'payload' and 'encoding' are not valid for "
            "trace-begin (the server issues the token)");
      }
    } else {
      if (request.upload.empty()) {
        FailValidation(std::string(ToString(request.op)) +
                       " requires 'upload' (the token trace-begin returned)");
      }
      if (saw_kind || request.has_count || request.has_address_bits ||
          saw_name) {
        FailValidation(
            "'kind', 'count', 'address_bits' and 'name' are only valid for "
            "trace-begin");
      }
      if (request.op == Op::kTraceChunk) {
        if (!request.has_seq || !saw_payload) {
          FailValidation("trace-chunk requires 'seq' and 'payload'");
        }
      } else if (request.has_seq || saw_payload || saw_encoding) {
        FailValidation(
            "'seq', 'payload' and 'encoding' are not valid for trace-end");
      }
    }
  } else if (!request.upload.empty() || request.has_count ||
             request.has_seq || saw_payload || saw_encoding ||
             request.has_address_bits || saw_name) {
    FailValidation(
        "'upload', 'count', 'seq', 'payload', 'encoding', 'address_bits' "
        "and 'name' are only valid for trace-begin/trace-chunk/trace-end");
  }
  if (request.op == Op::kExploreJoint) {
    // 'trace'/'digest' carry the data stream; the instruction stream comes
    // via exactly one of the *_instr twins. Kinds are implied, and the
    // single-trace explore knobs make no sense against a joint space.
    if (request.trace_instr.empty() == request.digest_instr.empty()) {
      FailValidation(
          "explore-joint requires exactly one of 'trace_instr' or "
          "'digest_instr'");
    }
    if (saw_kind) {
      FailValidation(
          "'kind' is not valid for explore-joint (stream kinds are implied)");
    }
    if (request.has_k || request.has_fraction || saw_line_words ||
        saw_max_index_bits) {
      FailValidation(
          "'k', 'fraction', 'line_words' and 'max_index_bits' are not valid "
          "for explore-joint (the space preset fixes the axes)");
    }
    if (request.engine != "fused") {
      FailValidation("explore-joint engine must be fused");
    }
  } else if (!request.trace_instr.empty() || !request.digest_instr.empty() ||
             saw_space || saw_prune) {
    FailValidation(
        "'trace_instr', 'digest_instr', 'space' and 'prune' are only valid "
        "for explore-joint");
  }
  return request;
}

std::string ExtractRequestId(const std::string& line) {
  try {
    const JsonValue root = ParseJson(line);
    if (root.kind == JsonValue::Kind::kObject) {
      if (const JsonValue* id = root.Find("id");
          id != nullptr && id->kind == JsonValue::Kind::kString &&
          !id->string.empty() && id->string.size() <= 128) {
        return id->string;
      }
    }
  } catch (...) {
  }
  return "";
}

std::string ExtractRequestOp(const std::string& line) {
  try {
    const JsonValue root = ParseJson(line);
    if (root.kind == JsonValue::Kind::kObject) {
      if (const JsonValue* op = root.Find("op");
          op != nullptr && op->kind == JsonValue::Kind::kString) {
        return op->string;
      }
    }
  } catch (...) {
  }
  return "";
}

bool IsIdempotentOp(const std::string& op) {
  return op != "trace-begin" && op != "trace-end";
}

std::string PingResponse(const std::string& id, const std::string& rid) {
  return Head(id, rid, "ping") + "}";
}

std::string IngestResponse(const std::string& id, const std::string& digest,
                           const trace::TraceStats& stats,
                           const std::string& rid) {
  std::string out = Head(id, rid, "ingest");
  out += ",\"digest\":" + support::JsonQuote(digest) + ",";
  AppendStats(out, stats);
  out += "}";
  return out;
}

std::string StatsResponse(const std::string& id, const std::string& digest,
                          const trace::TraceStats& stats,
                          const std::string& kind, const std::string& rid) {
  std::string out = Head(id, rid, "stats");
  out += ",\"digest\":" + support::JsonQuote(digest) +
         ",\"kind\":" + support::JsonQuote(kind) + ",";
  AppendStats(out, stats);
  out += "}";
  return out;
}

std::string ExploreResponse(const std::string& id, const std::string& digest,
                            const std::string& engine, std::uint64_t k,
                            const trace::TraceStats& stats,
                            const std::vector<analytic::DesignPoint>& points,
                            bool cached, const std::string& rid) {
  std::string out = Head(id, rid, "explore");
  out += ",\"digest\":" + support::JsonQuote(digest) +
         ",\"engine\":" + support::JsonQuote(engine) + ",\"k\":" + U64(k) +
         ",\"cached\":" + (cached ? "true" : "false") + ",";
  AppendStats(out, stats);
  out += ",\"points\":[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const analytic::DesignPoint& point = points[i];
    if (i > 0) out += ",";
    out += "{\"depth\":" + U64(point.depth) +
           ",\"assoc\":" + U64(point.assoc) +
           ",\"size_words\":" + U64(point.size_words()) +
           ",\"warm_misses\":" + U64(point.warm_misses) + "}";
  }
  out += "]}";
  return out;
}

std::string ExploreJointResponse(const std::string& id,
                                 const std::string& digest,
                                 const std::string& digest_instr,
                                 const std::string& engine,
                                 const std::string& space, bool prune,
                                 bool cached, const std::string& joint_json,
                                 const std::string& rid) {
  // joint_json is explore::JointReportJson output — already a JSON object
  // with deterministic key order, embedded verbatim.
  std::string out = Head(id, rid, "explore-joint");
  out += ",\"digest\":" + support::JsonQuote(digest) +
         ",\"digest_instr\":" + support::JsonQuote(digest_instr) +
         ",\"engine\":" + support::JsonQuote(engine) +
         ",\"space\":" + support::JsonQuote(space) +
         ",\"prune\":" + (prune ? "true" : "false") +
         ",\"cached\":" + (cached ? "true" : "false") +
         ",\"joint\":" + joint_json + "}";
  return out;
}

std::string MetricsResponse(const std::string& id,
                            const std::string& metrics_json,
                            const std::string& rid) {
  // metrics_json is MetricsRegistry::ToJson output — already a JSON object.
  return Head(id, rid, "metrics") + ",\"metrics\":" + metrics_json + "}";
}

namespace {

// The shared "server" object of ServerStatsResponse and HealthResponse.
// Fixed field order (declaration order of ServerInfo) so operators can diff
// two snapshots textually.
std::string ServerInfoJson(const ServerInfo& info) {
  return "{\"uptime_us\":" + U64(info.uptime_us) +
         ",\"git_sha\":" + support::JsonQuote(info.git_sha) +
         ",\"pid\":" + U64(info.pid) + ",\"jobs\":" + U64(info.jobs) +
         ",\"connections_live\":" + U64(info.connections_live) +
         ",\"connections_total\":" + U64(info.connections_total) +
         ",\"queue_depth\":" + U64(info.queue_depth) +
         ",\"queue_limit\":" + U64(info.queue_limit) +
         ",\"shed_total\":" + U64(info.shed_total) +
         ",\"retry_after_ms\":" + U64(info.retry_after_ms) +
         ",\"draining\":" + (info.draining ? "true" : "false") +
         ",\"traces_pinned\":" + U64(info.traces_pinned) +
         ",\"uploads_open\":" + U64(info.uploads_open) +
         ",\"requests_total\":" + U64(info.requests_total) +
         ",\"simd_kernel\":" + support::JsonQuote(info.simd_kernel) + "}";
}

}  // namespace

std::string ServerStatsResponse(const std::string& id, const ServerInfo& info,
                                const std::string& metrics_json,
                                const std::string& rid) {
  // metrics_json is MetricsRegistry::ToJson output — already a JSON object.
  return Head(id, rid, "stats") + ",\"server\":" + ServerInfoJson(info) +
         ",\"metrics\":" + metrics_json + "}";
}

std::string HealthResponse(const std::string& id, const ServerInfo& info,
                           const std::string& rid) {
  // A daemon that answers at all is alive; "healthy" is the readiness bit —
  // false once a drain begins, so load balancers stop routing to it.
  return Head(id, rid, "health") +
         std::string(",\"healthy\":") + (info.draining ? "false" : "true") +
         ",\"server\":" + ServerInfoJson(info) + "}";
}

std::string TraceBeginResponse(const std::string& id,
                               const std::string& upload, std::uint64_t count,
                               const std::string& rid) {
  return Head(id, rid, "trace-begin") +
         ",\"upload\":" + support::JsonQuote(upload) +
         ",\"count\":" + U64(count) + "}";
}

std::string TraceChunkResponse(const std::string& id,
                               const std::string& upload, std::uint64_t seq,
                               std::uint64_t received,
                               const std::string& rid) {
  return Head(id, rid, "trace-chunk") +
         ",\"upload\":" + support::JsonQuote(upload) + ",\"seq\":" + U64(seq) +
         ",\"received\":" + U64(received) + "}";
}

std::string TraceEndResponse(const std::string& id, const std::string& digest,
                             const trace::TraceStats& stats,
                             const std::string& rid) {
  // Deliberately the ingest shape plus the op tag: a sealed upload is an
  // ingested trace, and clients reuse their ingest handling for it.
  std::string out = Head(id, rid, "trace-end");
  out += ",\"digest\":" + support::JsonQuote(digest) + ",";
  AppendStats(out, stats);
  out += "}";
  return out;
}

std::string ShutdownResponse(const std::string& id, const std::string& rid) {
  return Head(id, rid, "shutdown") + ",\"draining\":true}";
}

std::string ErrorResponse(const std::string& id, const std::string& code,
                          const std::string& message,
                          std::uint64_t retry_after_ms,
                          const std::string& rid) {
  std::string out = "{\"id\":" + support::JsonQuote(id);
  if (!rid.empty()) out += ",\"rid\":" + support::JsonQuote(rid);
  out += ",\"ok\":false";
  if (retry_after_ms > 0) {
    out += ",\"retry_after_ms\":" + U64(retry_after_ms);
  }
  out += ",\"error\":{\"code\":" + support::JsonQuote(code) +
         ",\"message\":" + support::JsonQuote(message) + "}}";
  return out;
}

std::string ErrorResponse(const std::string& id, const support::Error& error,
                          const std::string& rid) {
  return ErrorResponse(id, support::ToString(error.category()), error.what(),
                       0, rid);
}

namespace {

// Re-serialises a parsed JsonValue; used only to hand the nested metrics
// object back to clients, so integer fidelity matters and double formatting
// just needs round-trip precision.
void WriteValue(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += value.boolean ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      if (value.is_integer) {
        out += std::to_string(value.integer);
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", value.number);
        out += buffer;
      }
      break;
    case JsonValue::Kind::kString:
      out += support::JsonQuote(value.string);
      break;
    case JsonValue::Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < value.array.size(); ++i) {
        if (i > 0) out += ',';
        WriteValue(value.array[i], out);
      }
      out += ']';
      break;
    case JsonValue::Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < value.object.size(); ++i) {
        if (i > 0) out += ',';
        out += support::JsonQuote(value.object[i].first);
        out += ':';
        WriteValue(value.object[i].second, out);
      }
      out += '}';
      break;
  }
}

std::uint64_t IntegerField(const JsonValue& object, const char* key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) FailValidation(std::string("missing '") + key + "'");
  return RequireInteger(*value, key, ~std::uint64_t{0});
}

}  // namespace

Response ParseResponse(const std::string& line) {
  const JsonValue root = ParseJson(line);
  if (root.kind != JsonValue::Kind::kObject) {
    FailValidation("response must be a JSON object");
  }
  Response response;
  response.raw = line;
  const JsonValue* id = root.Find("id");
  if (id == nullptr || id->kind != JsonValue::Kind::kString) {
    FailValidation("response 'id' missing or not a string");
  }
  response.id = id->string;
  if (const JsonValue* rid = root.Find("rid")) {
    response.rid = RequireString(*rid, "rid");
  }
  const JsonValue* ok = root.Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    FailValidation("response 'ok' missing or not a bool");
  }
  response.ok = ok->boolean;

  if (!response.ok) {
    const JsonValue* error = root.Find("error");
    if (error == nullptr || error->kind != JsonValue::Kind::kObject) {
      FailValidation("error response without 'error' object");
    }
    const JsonValue* code = error->Find("code");
    const JsonValue* message = error->Find("message");
    if (code == nullptr || code->kind != JsonValue::Kind::kString ||
        message == nullptr || message->kind != JsonValue::Kind::kString) {
      FailValidation("error object must carry string 'code' and 'message'");
    }
    response.error_code = code->string;
    response.error_message = message->string;
    if (const JsonValue* retry = root.Find("retry_after_ms")) {
      response.retry_after_ms =
          RequireInteger(*retry, "retry_after_ms", ~std::uint64_t{0});
    }
    return response;
  }

  if (const JsonValue* digest = root.Find("digest")) {
    response.digest = RequireString(*digest, "digest");
  }
  if (const JsonValue* digest_instr = root.Find("digest_instr")) {
    response.digest_instr = RequireString(*digest_instr, "digest_instr");
  }
  if (const JsonValue* engine = root.Find("engine")) {
    response.engine = RequireString(*engine, "engine");
  }
  if (const JsonValue* space = root.Find("space")) {
    response.space = RequireString(*space, "space");
  }
  if (const JsonValue* prune = root.Find("prune")) {
    if (prune->kind != JsonValue::Kind::kBool) {
      FailValidation("'prune' must be a bool");
    }
    response.prune = prune->boolean;
  }
  if (const JsonValue* k = root.Find("k")) {
    response.k = RequireInteger(*k, "k", ~std::uint64_t{0});
  }
  if (const JsonValue* cached = root.Find("cached")) {
    if (cached->kind != JsonValue::Kind::kBool) {
      FailValidation("'cached' must be a bool");
    }
    response.cached = cached->boolean;
  }
  if (const JsonValue* stats = root.Find("stats")) {
    if (stats->kind != JsonValue::Kind::kObject) {
      FailValidation("'stats' must be an object");
    }
    response.stats.n = IntegerField(*stats, "n");
    response.stats.n_unique = IntegerField(*stats, "n_unique");
    response.stats.max_misses = IntegerField(*stats, "max_misses");
    response.has_stats = true;
  }
  if (const JsonValue* points = root.Find("points")) {
    if (points->kind != JsonValue::Kind::kArray) {
      FailValidation("'points' must be an array");
    }
    for (const JsonValue& entry : points->array) {
      if (entry.kind != JsonValue::Kind::kObject) {
        FailValidation("each point must be an object");
      }
      analytic::DesignPoint point;
      point.depth =
          static_cast<std::uint32_t>(IntegerField(entry, "depth"));
      point.assoc =
          static_cast<std::uint32_t>(IntegerField(entry, "assoc"));
      point.warm_misses = IntegerField(entry, "warm_misses");
      response.points.push_back(point);
    }
  }
  if (const JsonValue* metrics = root.Find("metrics")) {
    WriteValue(*metrics, response.metrics_json);
  }
  if (const JsonValue* upload = root.Find("upload")) {
    response.upload = RequireString(*upload, "upload");
  }
  if (const JsonValue* seq = root.Find("seq")) {
    response.seq = RequireInteger(*seq, "seq", ~std::uint64_t{0});
  }
  if (const JsonValue* received = root.Find("received")) {
    response.received =
        RequireInteger(*received, "received", ~std::uint64_t{0});
  }
  if (const JsonValue* joint = root.Find("joint")) {
    if (joint->kind != JsonValue::Kind::kObject) {
      FailValidation("'joint' must be an object");
    }
    WriteValue(*joint, response.joint_json);
  }
  if (const JsonValue* server = root.Find("server")) {
    if (server->kind != JsonValue::Kind::kObject) {
      FailValidation("'server' must be an object");
    }
    WriteValue(*server, response.server_json);
  }
  if (const JsonValue* healthy = root.Find("healthy")) {
    if (healthy->kind != JsonValue::Kind::kBool) {
      FailValidation("'healthy' must be a bool");
    }
    response.healthy = healthy->boolean;
    response.has_healthy = true;
  }
  return response;
}

namespace {

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

int Base64Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

constexpr char kBase64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

std::vector<std::uint32_t> RefsFromBytes(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() % 4 != 0) {
    FailValidation("payload decodes to " + std::to_string(bytes.size()) +
                   " bytes, not a whole number of 4-byte references");
  }
  std::vector<std::uint32_t> refs(bytes.size() / 4);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const std::uint8_t* p = bytes.data() + i * 4;
    refs[i] = static_cast<std::uint32_t>(p[0]) |
              (static_cast<std::uint32_t>(p[1]) << 8) |
              (static_cast<std::uint32_t>(p[2]) << 16) |
              (static_cast<std::uint32_t>(p[3]) << 24);
  }
  return refs;
}

}  // namespace

std::vector<std::uint32_t> DecodeChunkPayload(const std::string& encoding,
                                              const std::string& payload) {
  std::vector<std::uint8_t> bytes;
  if (encoding == "hex") {
    if (payload.size() % 2 != 0) {
      FailValidation("hex payload must have an even number of digits");
    }
    bytes.reserve(payload.size() / 2);
    for (std::size_t i = 0; i < payload.size(); i += 2) {
      const int hi = HexNibble(payload[i]);
      const int lo = HexNibble(payload[i + 1]);
      if (hi < 0 || lo < 0) {
        FailValidation("hex payload has a non-hex character at offset " +
                       std::to_string(hi < 0 ? i : i + 1));
      }
      bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
  } else if (encoding == "base64") {
    if (payload.size() % 4 != 0) {
      FailValidation("base64 payload length must be a multiple of 4");
    }
    bytes.reserve(payload.size() / 4 * 3);
    for (std::size_t i = 0; i < payload.size(); i += 4) {
      const bool last = i + 4 == payload.size();
      int v[4];
      int pad = 0;
      for (int j = 0; j < 4; ++j) {
        const char c = payload[i + j];
        if (c == '=') {
          // Padding only closes the final quantum, only in the last two
          // positions, and once started never stops.
          if (!last || j < 2) {
            FailValidation("base64 payload has misplaced '=' padding");
          }
          v[j] = 0;
          ++pad;
        } else {
          if (pad > 0) {
            FailValidation("base64 payload has data after '=' padding");
          }
          v[j] = Base64Value(c);
          if (v[j] < 0) {
            FailValidation(
                "base64 payload has an invalid character at offset " +
                std::to_string(i + j));
          }
        }
      }
      const std::uint32_t triple =
          (static_cast<std::uint32_t>(v[0]) << 18) |
          (static_cast<std::uint32_t>(v[1]) << 12) |
          (static_cast<std::uint32_t>(v[2]) << 6) |
          static_cast<std::uint32_t>(v[3]);
      bytes.push_back(static_cast<std::uint8_t>(triple >> 16));
      if (pad < 2) bytes.push_back(static_cast<std::uint8_t>(triple >> 8));
      if (pad < 1) bytes.push_back(static_cast<std::uint8_t>(triple));
    }
  } else {
    FailValidation("unknown payload encoding '" + encoding + "'");
  }
  return RefsFromBytes(bytes);
}

std::string EncodeChunkPayload(const std::string& encoding,
                               const std::uint32_t* refs, std::size_t n) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(n * 4);
  for (std::size_t i = 0; i < n; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(refs[i]));
    bytes.push_back(static_cast<std::uint8_t>(refs[i] >> 8));
    bytes.push_back(static_cast<std::uint8_t>(refs[i] >> 16));
    bytes.push_back(static_cast<std::uint8_t>(refs[i] >> 24));
  }
  std::string out;
  if (encoding == "hex") {
    static const char kHex[] = "0123456789abcdef";
    out.reserve(bytes.size() * 2);
    for (std::uint8_t byte : bytes) {
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    }
  } else if (encoding == "base64") {
    out.reserve((bytes.size() + 2) / 3 * 4);
    std::size_t i = 0;
    for (; i + 3 <= bytes.size(); i += 3) {
      const std::uint32_t triple = (static_cast<std::uint32_t>(bytes[i]) << 16) |
                                   (static_cast<std::uint32_t>(bytes[i + 1]) << 8) |
                                   static_cast<std::uint32_t>(bytes[i + 2]);
      out += kBase64Alphabet[(triple >> 18) & 63];
      out += kBase64Alphabet[(triple >> 12) & 63];
      out += kBase64Alphabet[(triple >> 6) & 63];
      out += kBase64Alphabet[triple & 63];
    }
    if (const std::size_t rest = bytes.size() - i; rest > 0) {
      std::uint32_t triple = static_cast<std::uint32_t>(bytes[i]) << 16;
      if (rest == 2) triple |= static_cast<std::uint32_t>(bytes[i + 1]) << 8;
      out += kBase64Alphabet[(triple >> 18) & 63];
      out += kBase64Alphabet[(triple >> 12) & 63];
      out += rest == 2 ? kBase64Alphabet[(triple >> 6) & 63] : '=';
      out += '=';
    }
  } else {
    FailValidation("unknown payload encoding '" + encoding + "'");
  }
  return out;
}

}  // namespace protocol
}  // namespace ces::service
