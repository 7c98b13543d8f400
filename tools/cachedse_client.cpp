// cachedse-client — command-line client for the exploration daemon.
//
//   cachedse-client <explore|stats|ingest|upload|metrics|ping|shutdown|batch>
//                   (--socket=PATH | --port=N [--host=127.0.0.1]) [flags]
//
// A refused connect is retried with everything resent; after a mid-stream
// disconnect only idempotent requests are resent (an unanswered
// trace-begin/trace-end aborts instead of risking a duplicate upload
// session). --verbose names the failing endpoint on stderr.
//
//   explore  --trace=F|--digest=D [--k=N|--fraction=0.05]
//            [--engine=fused|reference] [--line-words=1]
//            [--max-index-bits=16] [--kind=data|instr] [--deadline-ms=0]
//            Output is byte-identical to offline `cachedse explore` for the
//            same trace and parameters — the acceptance bar for the service.
//   stats    --trace=F|--digest=D [--kind=data|instr]
//   ingest   --trace=F [--kind=data|instr]     (prints the digest)
//   upload   --trace=F [--kind=data|instr] [--chunk-refs=65536]
//            [--encoding=hex|base64] [--name=NAME]
//            Streams the trace to the server in sequenced chunks
//            (trace-begin / trace-chunk / trace-end), pipelining chunk
//            windows through the batch transport, then verifies the
//            server's digest against the locally computed one and prints
//            it — for traces that exist client-side only.
//   metrics  (prints the server's MetricsRegistry JSON)
//   ping / shutdown
//   batch    (reads NDJSON request lines from stdin, sends them pipelined
//             as one batch, prints the response lines in request order)
//
// Transport policy flags (all subcommands): --timeout-ms=30000 per attempt,
// --attempts=4, --backoff-ms=50, --backoff-cap-ms=2000, --seed=0 (jitter;
// 0 = derive from pid and clock), --verbose (print each response's
// server-assigned rid to stderr). Overloaded sheds and transport failures
// are retried with jittered exponential backoff, honouring the server's
// retry_after_ms hint. A budget exhausted on "overloaded" exits with that
// error's mapped code and echoes the server's retry_after_ms hint to
// stderr; a transport-level exhaustion exits with the io code (3).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/trace_store.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using ces::service::Response;

int Usage() {
  std::fprintf(
      stderr,
      "usage: cachedse-client <explore|stats|ingest|upload|metrics|ping|"
      "shutdown|batch>\n"
      "  (--socket=PATH | --port=N [--host=127.0.0.1])\n"
      "  explore --trace=F|--digest=D [--k=N|--fraction=0.05] "
      "[--engine=fused|reference]\n"
      "          [--line-words=1] [--max-index-bits=16] [--kind=data|instr] "
      "[--deadline-ms=0]\n"
      "  stats   --trace=F|--digest=D [--kind=data|instr]\n"
      "  ingest  --trace=F [--kind=data|instr]\n"
      "  upload  --trace=F [--kind=data|instr] [--chunk-refs=65536]\n"
      "          [--encoding=hex|base64] [--name=NAME]\n"
      "  batch   (request lines on stdin)\n"
      "  transport: [--timeout-ms=30000] [--attempts=4] [--backoff-ms=50] "
      "[--backoff-cap-ms=2000] [--seed=0] [--verbose]\n");
  return 2;
}

// Set once in main from --verbose; when on, every decoded response's
// server-assigned request id goes to stderr so a log line in the daemon's
// --log output can be tied back to the invocation that caused it.
bool g_verbose = false;

void NoteRid(const Response& response) {
  if (!g_verbose || response.rid.empty()) return;
  std::fprintf(stderr, "cachedse-client: rid=%s id=%s\n",
               response.rid.c_str(), response.id.c_str());
}

ces::service::ClientOptions TransportOptions(const ces::ArgParser& args) {
  ces::service::ClientOptions options;
  options.unix_path = args.GetString("socket", "");
  options.host = args.GetString("host", "127.0.0.1");
  options.tcp_port = args.Has("port")
                         ? static_cast<int>(args.GetInt("port", 0))
                         : -1;
  options.verbose = args.GetBool("verbose", false);
  options.timeout_ms = static_cast<int>(args.GetInt("timeout-ms", 30'000));
  options.max_attempts = static_cast<int>(args.GetInt("attempts", 4));
  options.backoff_base_ms = static_cast<int>(args.GetInt("backoff-ms", 50));
  options.backoff_cap_ms =
      static_cast<int>(args.GetInt("backoff-cap-ms", 2'000));
  options.jitter_seed = static_cast<std::uint64_t>(args.GetInt("seed", 0));
  return options;
}

// Exit code for a server-side error: protocol codes map to io (the caller
// should retry or give up), category codes map to the same exit code the
// offline cachedse would have produced for that failure.
int ExitCodeForResponse(const Response& response) {
  using ces::support::ErrorCategory;
  for (const ErrorCategory category :
       {ErrorCategory::kIo, ErrorCategory::kFormat, ErrorCategory::kParse,
        ErrorCategory::kRange, ErrorCategory::kTruncated,
        ErrorCategory::kUnsupported, ErrorCategory::kValidation,
        ErrorCategory::kUsage, ErrorCategory::kInternal}) {
    if (response.error_code == ces::support::ToString(category)) {
      return ces::support::ExitCodeFor(category);
    }
  }
  return ces::support::ExitCodeFor(ErrorCategory::kIo);
}

int FailResponse(const Response& response) {
  std::fprintf(stderr, "cachedse-client: %s: %s\n",
               response.error_code.c_str(), response.error_message.c_str());
  if (response.retry_after_ms > 0) {
    std::fprintf(stderr, "cachedse-client: server hint: retry after %llu ms\n",
                 static_cast<unsigned long long>(response.retry_after_ms));
  }
  return ExitCodeForResponse(response);
}

// Shared by explore/stats/ingest: the trace reference and kind fields.
void AppendTraceRef(std::string& request, const ces::ArgParser& args,
                    bool allow_digest) {
  const std::string trace = args.GetString("trace", "");
  const std::string digest = args.GetString("digest", "");
  if (!trace.empty()) {
    request += ",\"trace\":" + ces::support::JsonQuote(trace);
  }
  if (allow_digest && !digest.empty()) {
    request += ",\"digest\":" + ces::support::JsonQuote(digest);
  }
  const std::string kind = args.GetString("kind", "");
  if (!kind.empty()) {
    request += ",\"kind\":" + ces::support::JsonQuote(kind);
  }
}

int CmdExplore(const ces::ArgParser& args) {
  std::string request = "{\"id\":\"1\",\"op\":\"explore\"";
  AppendTraceRef(request, args, true);
  const std::string engine = args.GetString("engine", "fused");
  request += ",\"engine\":" + ces::support::JsonQuote(engine);
  if (args.Has("k")) {
    request += ",\"k\":" + std::to_string(args.GetInt("k", 0));
  } else if (args.Has("fraction")) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g",
                  args.GetDouble("fraction", 0.05));
    request += std::string(",\"fraction\":") + buffer;
  }
  if (args.Has("line-words")) {
    request += ",\"line_words\":" + std::to_string(args.GetInt("line-words", 1));
  }
  if (args.Has("max-index-bits")) {
    request += ",\"max_index_bits\":" +
               std::to_string(args.GetInt("max-index-bits", 16));
  }
  if (args.Has("deadline-ms")) {
    request += ",\"deadline_ms\":" +
               std::to_string(args.GetInt("deadline-ms", 0));
  }
  request += "}";

  ces::service::Client client(TransportOptions(args));
  const Response response = client.Request(request);
  NoteRid(response);
  if (!response.ok) return FailResponse(response);

  // This rendering mirrors `cachedse explore` line for line — the CI smoke
  // job diffs the two outputs byte for byte.
  std::printf("N=%llu N'=%llu max-misses=%llu K=%llu engine=%s\n",
              static_cast<unsigned long long>(response.stats.n),
              static_cast<unsigned long long>(response.stats.n_unique),
              static_cast<unsigned long long>(response.stats.max_misses),
              static_cast<unsigned long long>(response.k),
              response.engine.c_str());
  ces::AsciiTable table({"Depth", "Assoc", "Size (words)", "Warm misses"});
  for (const auto& point : response.points) {
    table.AddRow({std::to_string(point.depth), std::to_string(point.assoc),
                  std::to_string(point.size_words()),
                  std::to_string(point.warm_misses)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}

int CmdStats(const ces::ArgParser& args) {
  std::string request = "{\"id\":\"1\",\"op\":\"stats\"";
  AppendTraceRef(request, args, true);
  request += "}";
  ces::service::Client client(TransportOptions(args));
  const Response response = client.Request(request);
  NoteRid(response);
  if (!response.ok) return FailResponse(response);
  if (!response.server_json.empty()) {
    // Server form (no trace ref): print the whole introspection snapshot.
    std::printf("{\"server\":%s,\"metrics\":%s}\n", response.server_json.c_str(),
                response.metrics_json.empty() ? "{}"
                                              : response.metrics_json.c_str());
    return 0;
  }
  std::printf("%s: N=%llu N'=%llu max-misses=%llu\n",
              response.digest.c_str(),
              static_cast<unsigned long long>(response.stats.n),
              static_cast<unsigned long long>(response.stats.n_unique),
              static_cast<unsigned long long>(response.stats.max_misses));
  return 0;
}

int CmdIngest(const ces::ArgParser& args) {
  std::string request = "{\"id\":\"1\",\"op\":\"ingest\"";
  AppendTraceRef(request, args, false);
  request += "}";
  ces::service::Client client(TransportOptions(args));
  const Response response = client.Request(request);
  NoteRid(response);
  if (!response.ok) return FailResponse(response);
  std::printf("%s\n", response.digest.c_str());
  return 0;
}

int CmdUpload(const ces::ArgParser& args) {
  const std::string path = args.GetString("trace", "");
  if (path.empty()) return Usage();
  const std::string kind = args.GetString("kind", "data");
  const std::string encoding = args.GetString("encoding", "hex");
  if (encoding != "hex" && encoding != "base64") return Usage();
  const auto chunk_refs =
      static_cast<std::size_t>(args.GetInt("chunk-refs", 65'536));
  if (chunk_refs == 0) return Usage();

  // The trace loads locally (any format the readers understand); the local
  // digest is the acceptance check against whatever the server assembled.
  const ces::trace::Trace trace = ces::service::LoadTraceRef(path, kind);
  const std::string local_digest =
      ces::service::TraceStore::DigestOf(trace);

  ces::service::Client client(TransportOptions(args));
  std::string begin = "{\"id\":\"begin\",\"op\":\"trace-begin\",\"count\":" +
                      std::to_string(trace.refs.size()) +
                      ",\"kind\":" + ces::support::JsonQuote(kind) +
                      ",\"address_bits\":" +
                      std::to_string(trace.address_bits);
  const std::string name = args.GetString("name", trace.name);
  if (!name.empty()) {
    begin += ",\"name\":" + ces::support::JsonQuote(name);
  }
  begin += "}";
  Response response = client.Request(begin);
  NoteRid(response);
  if (!response.ok) return FailResponse(response);
  const std::string token = response.upload;

  // Chunks go out pipelined in windows; the transport's retry machinery may
  // resend a window suffix on a fresh connection, which the server's
  // replay-ack of already-applied sequence numbers absorbs.
  constexpr std::size_t kWindowChunks = 16;
  const std::size_t total_chunks =
      trace.refs.empty() ? 0 : (trace.refs.size() + chunk_refs - 1) / chunk_refs;
  for (std::size_t base = 0; base < total_chunks; base += kWindowChunks) {
    std::vector<std::string> lines;
    const std::size_t stop = std::min(total_chunks, base + kWindowChunks);
    for (std::size_t seq = base; seq < stop; ++seq) {
      const std::size_t offset = seq * chunk_refs;
      const std::size_t n =
          std::min(chunk_refs, trace.refs.size() - offset);
      lines.push_back(
          "{\"id\":\"chunk-" + std::to_string(seq) +
          "\",\"op\":\"trace-chunk\",\"upload\":" +
          ces::support::JsonQuote(token) +
          ",\"seq\":" + std::to_string(seq) +
          ",\"encoding\":" + ces::support::JsonQuote(encoding) +
          ",\"payload\":" +
          ces::support::JsonQuote(ces::service::protocol::EncodeChunkPayload(
              encoding, trace.refs.data() + offset, n)) +
          "}");
    }
    for (const Response& chunk_response : client.Batch(lines)) {
      NoteRid(chunk_response);
      if (!chunk_response.ok) return FailResponse(chunk_response);
    }
  }

  response = client.Request("{\"id\":\"end\",\"op\":\"trace-end\",\"upload\":" +
                            ces::support::JsonQuote(token) + "}");
  NoteRid(response);
  if (!response.ok) return FailResponse(response);
  if (response.digest != local_digest) {
    std::fprintf(stderr,
                 "cachedse-client: digest mismatch: server sealed %s but the "
                 "local content is %s\n",
                 response.digest.c_str(), local_digest.c_str());
    return ces::support::ExitCodeFor(
        ces::support::ErrorCategory::kValidation);
  }
  std::printf("%s\n", response.digest.c_str());
  return 0;
}

int CmdSimple(const ces::ArgParser& args, const char* op) {
  ces::service::Client client(TransportOptions(args));
  const Response response = client.Request(
      std::string("{\"id\":\"1\",\"op\":\"") + op + "\"}");
  NoteRid(response);
  if (!response.ok) return FailResponse(response);
  if (std::string(op) == "metrics") {
    std::printf("%s\n", response.metrics_json.c_str());
  } else {
    std::printf("%s\n", response.raw.c_str());
  }
  return 0;
}

int CmdBatch(const ces::ArgParser& args) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) return 0;
  ces::service::Client client(TransportOptions(args));
  const std::vector<Response> responses = client.Batch(lines);
  bool any_failed = false;
  for (const Response& response : responses) {
    NoteRid(response);
    std::printf("%s\n", response.raw.c_str());
    any_failed = any_failed || !response.ok;
  }
  return any_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const ces::ArgParser args(argc, argv);
  if (args.positional().empty()) return Usage();
  const std::string command = args.positional()[0];
  // Exactly one endpoint: --socket or --port.
  if (args.GetString("socket", "").empty() == !args.Has("port")) {
    return Usage();
  }
  g_verbose = args.GetBool("verbose", false);
  try {
    if (command == "explore") return CmdExplore(args);
    if (command == "stats") return CmdStats(args);
    if (command == "ingest") return CmdIngest(args);
    if (command == "upload") return CmdUpload(args);
    if (command == "metrics") return CmdSimple(args, "metrics");
    if (command == "ping") return CmdSimple(args, "ping");
    if (command == "shutdown") return CmdSimple(args, "shutdown");
    if (command == "batch") return CmdBatch(args);
    return Usage();
  } catch (const ces::support::Error& e) {
    std::fprintf(stderr, "cachedse-client: %s\n", e.what());
    return ces::support::ExitCodeFor(e.category());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cachedse-client: %s\n", e.what());
    return 1;
  }
}
