// daemon_mix: a cachedse-server (jobs 4, unix socket, default limits) is
// started and warmed during set-up; four closed-loop client threads, each
// through a single-endpoint service::Client, then issue seeded request
// blocks of 32: one streamed upload of a fresh ~150k-reference trace, one
// cold explore of it, six explores at a new K on warm (pinned) digests,
// twenty-two repeated explores that hit the result cache, one explore-joint
// on a suite pair and one trace stats. Every response is compared byte for
// byte with the reply the protocol serialisers build from the oracle.
//
// Fresh traces are one of a few seeded templates with every address offset
// by a distinct multiple of 2^20. The offset makes the content (and so the
// digest) new to the server, while the low 20 bits, which alone pick the
// set at every explored depth, are untouched: the per-depth profiles, and
// so the answers, are the template's.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fcntl.h>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "explore/joint.hpp"
#include "explore/report.hpp"
#include "oracle.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/trace_store.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace cesbench {

namespace {

namespace explore = ces::explore;
namespace protocol = ces::service::protocol;
namespace trace = ces::trace;
using ces::service::Client;
using ces::service::ClientOptions;
using ces::service::Response;

constexpr std::uint32_t kTemplates = 4;
constexpr std::uint32_t kOffsetShift = 20;
constexpr std::uint32_t kMaxRounds = 1000;  // rounds; keeps offset ids < 2^12
constexpr std::size_t kChunkRefs = 16384;
constexpr int kClients = 4;

enum Kind : int { kUpload = 0, kCold, kSolve, kHit, kJoint, kStats, kKinds };
const char* const kKindSpan[kKinds] = {
    "service.upload", "service.explore_cold", "service.explore_solve",
    "service.explore_hit", "service.joint", "service.stats"};

// A cachedse-server child process. The destructor stops it.
class ServerProcess {
 public:
  ServerProcess(const Options& options, const std::string& dir)
      : socket_(dir + "/d.sock") {
    std::filesystem::create_directories(dir + "/spill");
    const std::string log = dir + "/server.log";
    const std::vector<std::string> args = {
        options.server_path, "--socket=" + socket_,
        "--jobs=" + std::to_string(options.jobs),
        "--spill-dir=" + dir + "/spill"};
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      std::vector<char*> argv;
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    WaitReady();
  }

  ~ServerProcess() {
    if (pid_ > 0) Stop();
  }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  ClientOptions ClientFor() const {
    ClientOptions options;
    options.unix_path = socket_;
    options.timeout_ms = 60'000;
    options.max_attempts = 1;
    options.retry_sheds = false;
    return options;
  }

  // Drains the server (SIGTERM) and returns its peak resident set in MiB.
  double Stop() {
    ::kill(pid_, SIGTERM);
    struct rusage usage {};
    int status = 0;
    const Clock::time_point start = Clock::now();
    for (;;) {
      const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
      if (got == pid_ || (got < 0 && errno != EINTR)) break;
      if (SecondsBetween(start, Clock::now()) > 20.0) {
        ::kill(pid_, SIGKILL);
        ::wait4(pid_, &status, 0, &usage);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  void WaitReady() {
    ClientOptions options = ClientFor();
    options.timeout_ms = 1'000;
    const Clock::time_point start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < 30.0) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("cachedse-server exited during start-up");
      }
      try {
        Client client(options);
        if (client.Request("{\"id\":\"ready\",\"op\":\"ping\"}").ok) return;
      } catch (const std::exception&) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw std::runtime_error("cachedse-server did not become ready");
  }

  std::string socket_;
  pid_t pid_ = -1;
};

std::string Quote(const std::string& s) { return ces::support::JsonQuote(s); }

trace::Trace Offset(const trace::Trace& base, std::uint32_t id) {
  trace::Trace shifted = base;
  for (std::uint32_t& ref : shifted.refs) ref += id << kOffsetShift;
  shifted.name = "fresh-" + std::to_string(id);
  return shifted;
}

// A streamed upload, with its chunk lines encoded before the timer starts.
struct Upload {
  std::string begin;
  std::vector<std::string> payloads;
  std::string expected_digest;
};

Upload PrepareUpload(const trace::Trace& input, const std::string& id) {
  Upload upload;
  upload.begin = "{\"id\":" + Quote(id + "-begin") +
                 ",\"op\":\"trace-begin\",\"count\":" +
                 std::to_string(input.refs.size()) + ",\"kind\":" +
                 Quote(input.kind == trace::StreamKind::kInstruction ? "instr"
                                                                     : "data") +
                 ",\"address_bits\":" + std::to_string(input.address_bits) +
                 ",\"name\":" + Quote(input.name) + "}";
  for (std::size_t at = 0; at < input.refs.size(); at += kChunkRefs) {
    const std::size_t n = std::min(kChunkRefs, input.refs.size() - at);
    upload.payloads.push_back(
        protocol::EncodeChunkPayload("hex", input.refs.data() + at, n));
  }
  upload.expected_digest = ces::service::TraceStore::DigestOf(input);
  return upload;
}

// Sends an upload; returns the trace-end response (ok=false on any error).
Response SendUpload(Client& client, const Upload& upload,
                    const std::string& id) {
  Response begin = client.Request(upload.begin);
  if (!begin.ok) return begin;
  std::vector<std::string> lines;
  for (std::size_t seq = 0; seq < upload.payloads.size(); ++seq) {
    lines.push_back("{\"id\":" + Quote(id + "-" + std::to_string(seq)) +
                    ",\"op\":\"trace-chunk\",\"upload\":" +
                    Quote(begin.upload) + ",\"seq\":" + std::to_string(seq) +
                    ",\"encoding\":\"hex\",\"payload\":" +
                    Quote(upload.payloads[seq]) + "}");
  }
  for (Response& chunk : client.Batch(lines)) {
    if (!chunk.ok) return chunk;
  }
  return client.Request("{\"id\":" + Quote(id + "-end") +
                        ",\"op\":\"trace-end\",\"upload\":" +
                        Quote(begin.upload) + "}");
}

struct Pinned {
  std::string digest;
  std::uint32_t templ = 0;
  std::vector<std::uint64_t> warm_k;  // the four paper budgets
};

struct SuitePair {
  std::string name;
  trace::Trace instr;
  trace::Trace data;
  std::string digest_instr;
  std::string digest_data;
  std::string expected_joint;  // JointReportJson of the offline run
};

struct Shared {
  const Options* options = nullptr;
  std::vector<trace::Trace> templates;
  std::vector<DepthProfiles> oracle;  // per template
  std::vector<Pinned> warm;
  std::vector<SuitePair> pairs;
  std::string space;
};

std::string ExpectedExplore(const Shared& shared, const Response& response,
                            const std::string& digest, std::uint32_t templ,
                            std::uint64_t k) {
  const DepthProfiles& oracle = shared.oracle[templ];
  return protocol::ExploreResponse(response.id, digest, "fused", k,
                                   oracle.stats, OraclePoints(oracle, k),
                                   response.cached, response.rid);
}

std::string ExploreLine(const std::string& id, const std::string& digest,
                        std::uint64_t k) {
  return "{\"id\":" + Quote(id) + ",\"op\":\"explore\",\"digest\":" +
         Quote(digest) + ",\"k\":" + std::to_string(k) + "}";
}

// Uploads the warm traces and suite pairs and explores every warm trace at
// its four budgets, checking each reply. Throws on any mismatch.
void Warm(const ServerProcess& server, Shared& shared) {
  Client client(server.ClientFor());
  for (std::size_t w = 0; w < shared.warm.size(); ++w) {
    Pinned& pinned = shared.warm[w];
    const trace::Trace input = Offset(shared.templates[pinned.templ],
                                      static_cast<std::uint32_t>(w + 1));
    const std::string id = "warm" + std::to_string(w);
    const Upload upload = PrepareUpload(input, id);
    const Response end = SendUpload(client, upload, id);
    if (end.raw != protocol::TraceEndResponse(
                       end.id, upload.expected_digest,
                       shared.oracle[pinned.templ].stats, end.rid)) {
      throw std::runtime_error("warm upload mismatch: " + end.raw);
    }
    pinned.digest = upload.expected_digest;
    for (std::uint64_t k : pinned.warm_k) {
      const Response reply =
          client.Request(ExploreLine(id + "-k" + std::to_string(k),
                                     pinned.digest, k));
      if (reply.raw !=
          ExpectedExplore(shared, reply, pinned.digest, pinned.templ, k)) {
        throw std::runtime_error("warm explore mismatch: " + reply.raw);
      }
    }
  }
  for (SuitePair& pair : shared.pairs) {
    for (trace::Trace* input : {&pair.instr, &pair.data}) {
      const std::string id = "suite-" + input->name;
      const Upload upload = PrepareUpload(*input, id);
      const Response end = SendUpload(client, upload, id);
      if (!end.ok || end.digest != upload.expected_digest) {
        throw std::runtime_error("suite upload failed: " + end.raw);
      }
      (input == &pair.instr ? pair.digest_instr : pair.digest_data) =
          end.digest;
    }
  }
}

// One client thread's tallies.
struct ClientResult {
  std::vector<double> latency_ms[kKinds];
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t cached = 0;
  std::uint64_t answers = 0;  // explore + joint replies (cached or not)
  double upload_refs = 0;
  double upload_s = 0;
  // Op time of the traced and the untraced rounds of a traced run.
  double round_ms[2] = {0, 0};
  std::uint64_t rounds[2] = {0, 0};
  SpanLog spans;
};

// Rounds of the closed loop. In every round each client first sends its
// writes (upload, cold explore), then, once all four are done, its reads.
// Keeping the phases apart keeps the reads' latency free of the
// write-induced CPU saturation, which otherwise swings the read tail by
// tens of percent from run to run. The window closes only between rounds,
// so a run answers whole rounds.
class Rounds {
 public:
  Rounds(Clock::time_point start, double seconds)
      : round_(kClients, Expire{this, start, seconds}), reads_(kClients) {}

  // Starts a round; false once the window has passed.
  bool Begin() {
    round_.arrive_and_wait();
    return !stop_;
  }
  void EndWrites() { reads_.arrive_and_wait(); }
  // A client that cannot go on releases the others.
  void Drop() {
    round_.arrive_and_drop();
    reads_.arrive_and_drop();
  }

 private:
  struct Expire {
    Rounds* rounds;
    Clock::time_point start;
    double seconds;
    void operator()() noexcept {
      rounds->stop_ = ++rounds->count_ > kMaxRounds ||
                      SecondsBetween(start, Clock::now()) >= seconds;
    }
  };

  std::barrier<Expire> round_;
  std::barrier<> reads_;
  bool stop_ = false;  // written by the completion, read after the barrier
  std::uint32_t count_ = 0;
};

class ClientLoop {
 public:
  ClientLoop(const Shared& shared, const ServerProcess& server, int client,
             bool traced)
      : shared_(shared),
        client_(server.ClientFor()),
        index_(client),
        rng_(shared.options->seed * 1000003 +
             static_cast<std::uint64_t>(client)),
        traced_(traced) {
    used_k_.resize(shared.warm.size());
    for (std::size_t w = 0; w < shared.warm.size(); ++w) {
      used_k_[w].insert(shared.warm[w].warm_k.begin(),
                        shared.warm[w].warm_k.end());
    }
  }

  void Run(Rounds& rounds, ClientResult& out) {
    try {
      for (std::uint32_t round = 0; rounds.Begin(); ++round) {
        // A traced run records spans in every other round; the rounds
        // between are its untraced twin, for the tracing overhead.
        spans_ = traced_ && round % 2 == 1 ? &out.spans : nullptr;
        const double before = op_ms_;
        Round(round, rounds, out);
        out.round_ms[spans_ != nullptr] += op_ms_ - before;
        ++out.rounds[spans_ != nullptr];
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cesbench: client %d stopped: %s\n", index_,
                   e.what());
      ++out.failed;
      ++out.attempted;
      rounds.Drop();
    }
  }

 private:
  struct Planned {
    Kind kind;
    std::uint32_t target;  // warm index or pair index
    std::uint64_t k;
  };

  void Round(std::uint32_t round, Rounds& rounds, ClientResult& out) {
    // Templates rotate, so every run ingests the same mix of trace shapes.
    const std::uint32_t templ =
        (round + static_cast<std::uint32_t>(index_)) % kTemplates;
    const std::uint32_t fresh_id = static_cast<std::uint32_t>(
        shared_.warm.size() + 1 + static_cast<std::size_t>(index_) +
        kClients * round);
    const trace::Trace fresh = Offset(shared_.templates[templ], fresh_id);
    const std::string upload_id = Id();
    const Upload upload = PrepareUpload(fresh, upload_id);
    Response end;
    const double upload_ms = Timed(kUpload, out, [&] {
      end = SendUpload(client_, upload, upload_id);
    });
    out.upload_refs += static_cast<double>(fresh.refs.size());
    out.upload_s += upload_ms * 1e-3;
    Tally(out, end.raw == protocol::TraceEndResponse(
                             end.id, upload.expected_digest,
                             shared_.oracle[templ].stats, end.rid),
          end);
    const std::uint64_t cold_k =
        BudgetFor(shared_.oracle[templ].stats, explore::kPaperFractions[0]);
    Request(kCold, ExploreLine(Id(), upload.expected_digest, cold_k), out,
            [&](const Response& r) {
              return ExpectedExplore(shared_, r, upload.expected_digest, templ,
                                     cold_k);
            });
    rounds.EndWrites();

    for (const Planned& p : PlanReads()) {
      switch (p.kind) {
        case kSolve:
        case kHit: {
          const Pinned& pinned = shared_.warm[p.target];
          Request(p.kind, ExploreLine(Id(), pinned.digest, p.k), out,
                  [&](const Response& r) {
                    return ExpectedExplore(shared_, r, pinned.digest,
                                           pinned.templ, p.k);
                  });
          break;
        }
        case kJoint: {
          const SuitePair& pair = shared_.pairs[p.target];
          Request(kJoint,
                  "{\"id\":" + Quote(Id()) +
                      ",\"op\":\"explore-joint\",\"digest\":" +
                      Quote(pair.digest_data) + ",\"digest_instr\":" +
                      Quote(pair.digest_instr) + ",\"space\":" +
                      Quote(shared_.space) + "}",
                  out, [&](const Response& r) {
                    return protocol::ExploreJointResponse(
                        r.id, pair.digest_data, pair.digest_instr, "fused",
                        shared_.space, true, r.cached, pair.expected_joint,
                        r.rid);
                  });
          break;
        }
        case kStats: {
          const Pinned& pinned = shared_.warm[p.target];
          Request(kStats,
                  "{\"id\":" + Quote(Id()) + ",\"op\":\"stats\",\"digest\":" +
                      Quote(pinned.digest) + "}",
                  out, [&](const Response& r) {
                    return protocol::StatsResponse(
                        r.id, pinned.digest, shared_.oracle[pinned.templ].stats,
                        trace::ToString(trace::StreamKind::kData), r.rid);
                  });
          break;
        }
        default:
          break;
      }
    }
  }

  // The 30 reads of a round, in seeded order: 6 explores at a new K,
  // 22 result-cache hits, 1 explore-joint and 1 trace stats.
  std::vector<Planned> PlanReads() {
    std::vector<Planned> plan;
    for (int i = 0; i < 6; ++i) plan.push_back(NewK());
    for (int i = 0; i < 22; ++i) {
      const auto w = static_cast<std::uint32_t>(
          rng_.NextBounded(shared_.warm.size()));
      plan.push_back({kHit, w, shared_.warm[w].warm_k[rng_.NextBounded(4)]});
    }
    plan.push_back({kJoint,
                    static_cast<std::uint32_t>(
                        rng_.NextBounded(shared_.pairs.size())),
                    0});
    plan.push_back({kStats,
                    static_cast<std::uint32_t>(
                        rng_.NextBounded(shared_.warm.size())),
                    0});
    for (std::size_t i = plan.size(); i > 1; --i) {
      std::swap(plan[i - 1], plan[rng_.NextBounded(i)]);
    }
    return plan;
  }

  // An explore at a K no client has asked for on this warm digest yet: the
  // prelude is pinned, the result is not cached.
  Planned NewK() {
    const auto w =
        static_cast<std::uint32_t>(rng_.NextBounded(shared_.warm.size()));
    const std::uint64_t max_misses =
        shared_.oracle[shared_.warm[w].templ].stats.max_misses;
    for (;;) {
      // Residue classes mod kClients keep the clients' Ks disjoint.
      const std::uint64_t k =
          rng_.NextBounded(max_misses / kClients + 1) * kClients +
          static_cast<std::uint64_t>(index_);
      if (used_k_[w].insert(k).second) return {kSolve, w, k};
    }
  }

  std::string Id() {
    return "c" + std::to_string(index_) + "-" + std::to_string(next_id_++);
  }

  template <typename Fn>
  double Timed(Kind kind, ClientResult& out, Fn&& fn) {
    const std::uint64_t op = ops_++;
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan op_span(spans_, "op", op);
      ScopedSpan layer_span(spans_, kKindSpan[kind], op);
      try {
        fn();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cesbench: request failed: %s\n", e.what());
      }
    }
    const double ms = SecondsBetween(t0, Clock::now()) * 1e3;
    out.latency_ms[kind].push_back(ms);
    op_ms_ += ms;
    return ms;
  }

  template <typename Expect>
  void Request(Kind kind, const std::string& line, ClientResult& out,
               Expect&& expect) {
    Response reply;
    Timed(kind, out, [&] { reply = client_.Request(line); });
    if (reply.ok && kind != kStats) {
      ++out.answers;
      if (reply.cached) ++out.cached;
    }
    Tally(out, reply.ok && reply.raw == expect(reply), reply);
  }

  void Tally(ClientResult& out, bool ok, const Response& reply) {
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      std::fprintf(stderr, "cesbench: daemon answer mismatch: %.300s\n",
                   reply.raw.c_str());
    }
  }

  const Shared& shared_;
  Client client_;
  int index_;
  ces::Rng rng_;
  bool traced_;
  SpanLog* spans_ = nullptr;  // this round's span log, or none
  double op_ms_ = 0;          // op time so far
  std::uint64_t next_id_ = 0;
  std::uint64_t ops_ = 0;
  std::vector<std::set<std::uint64_t>> used_k_;
};

Shared MakeInputs(const Options& options) {
  Shared shared;
  shared.options = &options;
  const std::uint32_t refs = options.smoke ? 8192 : 150'000;
  const std::uint32_t hot[kTemplates] = {384, 512, 768, 1024};
  const std::uint32_t cold[kTemplates] = {2048, 3072, 4096, 6144};
  for (std::uint32_t t = 0; t < kTemplates; ++t) {
    shared.templates.push_back(LocalityTrace(options.seed * kTemplates + t,
                                             refs, hot[t], cold[t], 8192,
                                             0.85));
  }
  const std::size_t warm = options.smoke ? 2 : 8;
  for (std::size_t w = 0; w < warm; ++w) {
    Pinned pinned;
    pinned.templ = static_cast<std::uint32_t>(w % kTemplates);
    shared.warm.push_back(pinned);
  }
  const ces::workloads::Scale scale = options.smoke
                                          ? ces::workloads::Scale::kSmall
                                          : ces::workloads::Scale::kDefault;
  const std::vector<std::string> names =
      options.smoke ? std::vector<std::string>{"crc"}
                    : std::vector<std::string>{"crc", "des", "engine",
                                               "ucbqsort"};
  for (const std::string& name : names) {
    const ces::workloads::WorkloadRun run =
        ces::workloads::Run(*ces::workloads::FindWorkload(name, scale));
    if (!run.output_matches) {
      throw std::runtime_error("workload verification failed: " + name);
    }
    SuitePair pair;
    pair.name = name;
    pair.instr = run.instruction_trace;
    pair.instr.kind = trace::StreamKind::kInstruction;
    pair.instr.name = name + ".i";
    pair.data = run.data_trace;
    pair.data.name = name + ".d";
    shared.pairs.push_back(std::move(pair));
  }
  shared.space = options.smoke ? "small" : "default";
  return shared;
}

// Oracle: per-depth profiles of the templates, and each suite pair's joint
// report, whose front must equal the unpruned front.
void ComputeOracle(Shared& shared) {
  const std::uint32_t jobs = shared.options->jobs;
  for (const trace::Trace& templ : shared.templates) {
    shared.oracle.push_back(OracleProfiles(templ, jobs));
  }
  for (Pinned& pinned : shared.warm) {
    for (double fraction : explore::kPaperFractions) {
      pinned.warm_k.push_back(
          BudgetFor(shared.oracle[pinned.templ].stats, fraction));
    }
  }
  const explore::JointSpace space = explore::JointSpaceByName(shared.space);
  for (SuitePair& pair : shared.pairs) {
    explore::JointOptions options;
    options.jobs = jobs;
    const explore::JointResult pruned = explore::ExploreJoint(
        explore::InterleaveProportional(pair.instr, pair.data), space,
        options);
    if (explore::JointFrontCsv(pruned.front) !=
        explore::JointFrontCsv(
            OracleJointFront(pair.instr, pair.data, space, jobs))) {
      throw std::runtime_error("pruned joint front differs from unpruned: " +
                               pair.name);
    }
    pair.expected_joint = explore::JointReportJson(pruned, space);
  }
}

}  // namespace

Outcome RunDaemonMix(const Options& options) {
  Outcome out;
  out.workload = options.workload;
  const std::string dir = options.run_dir + "/daemon";
  Shared shared;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < std::max(options.setup_reps, 1); ++rep) {
    if (server != nullptr) {
      server->Stop();
      server.reset();
    }
    std::filesystem::remove_all(dir);
    // Set-up makes the inputs, starts the server and warms it; the oracle,
    // computed once between the two steps, is not timed. The inputs are the
    // same in every repetition, so later ones are made only to be timed.
    const Clock::time_point t0 = Clock::now();
    Shared inputs = MakeInputs(options);
    double setup_s = SecondsBetween(t0, Clock::now());
    if (rep == 0) {
      shared = std::move(inputs);
      ComputeOracle(shared);
    }
    const Clock::time_point t1 = Clock::now();
    server = std::make_unique<ServerProcess>(options, dir);
    Warm(*server, shared);
    setup_s += SecondsBetween(t1, Clock::now());
    out.setup_s.push_back(setup_s);
  }

  std::vector<ClientResult> results(kClients);
  std::vector<std::unique_ptr<ClientLoop>> loops;
  for (int c = 0; c < kClients; ++c) {
    loops.push_back(
        std::make_unique<ClientLoop>(shared, *server, c, options.trace));
  }
  const Clock::time_point start = Clock::now();
  {
    Rounds rounds(start, options.seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        loops[static_cast<std::size_t>(c)]->Run(
            rounds, results[static_cast<std::size_t>(c)]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  out.elapsed_s = SecondsBetween(start, Clock::now());
  out.peak_rss_mb = server->Stop();
  server.reset();

  std::vector<double> by_kind[kKinds];
  double upload_refs = 0;
  double upload_s = 0;
  std::uint64_t cached = 0;
  std::uint64_t answers = 0;
  double round_ms[2] = {0, 0};
  std::uint64_t rounds[2] = {0, 0};
  SpanLog spans;
  for (const ClientResult& result : results) {
    out.attempted += result.attempted;
    out.failed += result.failed;
    for (int k = 0; k < kKinds; ++k) {
      by_kind[k].insert(by_kind[k].end(), result.latency_ms[k].begin(),
                        result.latency_ms[k].end());
      out.latency_ms.insert(out.latency_ms.end(), result.latency_ms[k].begin(),
                            result.latency_ms[k].end());
    }
    upload_refs += result.upload_refs;
    upload_s += result.upload_s;
    cached += result.cached;
    answers += result.answers;
    for (int traced = 0; traced < 2; ++traced) {
      round_ms[traced] += result.round_ms[traced];
      rounds[traced] += result.rounds[traced];
    }
    spans.Append(result.spans);
  }
  out.refs = upload_refs;  // references ingested
  for (int k = 0; k < kKinds; ++k) {
    const std::string kind = kKindSpan[k];
    out.notes["requests." + kind] = static_cast<double>(by_kind[k].size());
    out.notes["p50_ms." + kind] = Percentile(by_kind[k], 0.5);
    out.notes["p90_ms." + kind] = Percentile(by_kind[k], 0.9);
  }
  if (options.trace) {
    out.spans = spans.spans();
    out.layers["service.upload_ms"] = Median(by_kind[kUpload]);
    out.layers["service.upload_mb_per_s"] = upload_refs * 4.0 / upload_s / 1e6;
    out.layers["service.explore_cold_ms"] = Median(by_kind[kCold]);
    out.layers["service.explore_solve_ms"] = Median(by_kind[kSolve]);
    out.layers["service.explore_hit_us"] = Median(by_kind[kHit]) * 1e3;
    out.layers["service.joint_ms"] = Median(by_kind[kJoint]);
    out.layers["service.result_hit_ratio"] =
        static_cast<double>(cached) / static_cast<double>(answers);
    const double untraced = round_ms[0] / static_cast<double>(rounds[0]);
    const double traced = round_ms[1] / static_cast<double>(rounds[1]);
    out.layers["tracing.overhead_pct"] = (traced - untraced) / untraced * 100;
  }
  return out;
}

}  // namespace cesbench
