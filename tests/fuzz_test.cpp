// Robustness fuzzing (deterministic): random instruction words through the
// decoder/disassembler/CPU, random text through the assembler, and a
// malformed-trace corpus plus mutation fuzzing through every trace reader.
// Nothing here may crash, hang, over-allocate, or corrupt state — errors
// must surface as decode failures, AssemblyError, a StopReason, or a
// support::Error with a stable category.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <sstream>
#include <string>

#include "isa/assembler.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "isa/disasm.hpp"
#include "isa/isa.hpp"
#include "sim/cpu.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/dinero.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace ces::isa;

TEST(FuzzDecode, RandomWordsNeverCrash) {
  ces::Rng rng(0xF022);
  for (int i = 0; i < 200000; ++i) {
    const auto word = static_cast<std::uint32_t>(rng.Next());
    Instruction instruction;
    if (Decode(word, instruction)) {
      // Whatever decoded must re-encode into a decodable word (fields are
      // masked on encode, so this is idempotence, not identity).
      Instruction second;
      EXPECT_TRUE(Decode(Encode(instruction), second));
      EXPECT_EQ(second, instruction);
      const std::string text = Disassemble(instruction, 0x1000);
      EXPECT_FALSE(text.empty());
    }
  }
}

TEST(FuzzCpu, RandomValidProgramsAlwaysTerminate) {
  ces::Rng rng(0xF0C9);
  for (int program_index = 0; program_index < 200; ++program_index) {
    Program program;
    const int length = 4 + static_cast<int>(rng.NextBounded(60));
    for (int i = 0; i < length; ++i) {
      Instruction ins;
      ins.op = static_cast<Opcode>(
          rng.NextBounded(static_cast<std::uint64_t>(Opcode::kOpcodeCount)));
      ins.rd = static_cast<std::uint8_t>(rng.NextBounded(32));
      ins.rs = static_cast<std::uint8_t>(rng.NextBounded(32));
      ins.rt = static_cast<std::uint8_t>(rng.NextBounded(32));
      ins.shamt = static_cast<std::uint8_t>(rng.NextBounded(32));
      ins.imm = static_cast<std::int16_t>(rng.Next());
      ins.target = static_cast<std::uint32_t>(rng.NextBounded(1u << 10));
      program.text.push_back(Encode(ins));
    }
    program.text.push_back(
        Encode(Instruction{.op = Opcode::kHalt}));  // reachable or not

    ces::sim::Cpu cpu(program, 1u << 18);
    const ces::sim::StopReason reason = cpu.Run(50'000);
    // Any reason is acceptable; the point is that Run returned and left the
    // CPU in a queryable state.
    (void)reason;
    EXPECT_LE(cpu.retired(), 50'000u);
    for (std::uint8_t r = 0; r < 32; ++r) (void)cpu.reg(r);
    EXPECT_EQ(cpu.reg(0), 0u);  // r0 must survive any instruction mix
  }
}

TEST(FuzzAssembler, RandomTextNeverCrashes) {
  ces::Rng rng(0xFA53);
  static const char* kFragments[] = {
      "add", "lw", "t0", "t1", ",", "(", ")", "0x", "123", "-", "label",
      ":", ".word", ".data", ".text", "li", "beq", "\"str\"", "#c", "$3",
      ".equ", "sp", "4(sp)", "main", "jal", ".space", "zz", "+", ".align"};
  for (int i = 0; i < 3000; ++i) {
    std::string source;
    const int tokens = 1 + static_cast<int>(rng.NextBounded(40));
    for (int t = 0; t < tokens; ++t) {
      source += kFragments[rng.NextBounded(std::size(kFragments))];
      source += rng.NextBool(0.3) ? "\n" : " ";
    }
    try {
      const Program program = Assemble(source);
      (void)program;
    } catch (const AssemblyError&) {
      // expected for most inputs
    }
  }
}

using ces::support::Error;
using ces::support::ErrorCategory;

namespace corpus {

void AppendU32(std::string& bytes, std::uint32_t value) {
  bytes.push_back(static_cast<char>(value & 0xff));
  bytes.push_back(static_cast<char>((value >> 8) & 0xff));
  bytes.push_back(static_cast<char>((value >> 16) & 0xff));
  bytes.push_back(static_cast<char>((value >> 24) & 0xff));
}

std::string Header(const char* magic, std::uint32_t kind, std::uint32_t bits,
                   std::uint32_t count, std::uint32_t version = 1) {
  std::string bytes(magic, 4);
  AppendU32(bytes, version);
  AppendU32(bytes, kind);
  AppendU32(bytes, bits);
  AppendU32(bytes, count);
  return bytes;
}

struct BinaryCase {
  const char* name;
  std::string bytes;
  bool compressed;  // which reader the fixture targets
  ErrorCategory expected;
};

std::vector<BinaryCase> BinaryCases() {
  std::vector<BinaryCase> cases;
  cases.push_back({"empty stream", "", false, ErrorCategory::kTruncated});
  cases.push_back({"short magic", "CT", false, ErrorCategory::kTruncated});
  cases.push_back({"garbage magic", "XXXXYYYYZZZZWWWW", false,
                   ErrorCategory::kFormat});
  cases.push_back({"ctrz into raw reader", Header("CTRZ", 0, 32, 0), false,
                   ErrorCategory::kUnsupported});
  cases.push_back({"ctrc into compressed reader", Header("CTRC", 0, 32, 0),
                   true, ErrorCategory::kUnsupported});
  cases.push_back({"bad version", Header("CTRC", 0, 32, 0, 2), false,
                   ErrorCategory::kFormat});
  cases.push_back({"bad kind", Header("CTRC", 9, 32, 0), false,
                   ErrorCategory::kFormat});
  cases.push_back({"zero address bits", Header("CTRC", 0, 0, 0), false,
                   ErrorCategory::kValidation});
  cases.push_back({"oversized address bits", Header("CTRC", 0, 64, 0), false,
                   ErrorCategory::kValidation});
  cases.push_back({"header cut mid-field", std::string("CTRC\x01\x00", 6),
                   false, ErrorCategory::kTruncated});
  // Oversized counts: a 4-byte lie must not drive a giant reserve.
  cases.push_back({"oversized raw count", Header("CTRC", 0, 32, 0xffffffffu),
                   false, ErrorCategory::kValidation});
  {
    std::string bytes = Header("CTRZ", 0, 32, 0xfffffff0u);
    bytes.push_back('\x02');
    cases.push_back({"oversized compressed count", bytes, true,
                     ErrorCategory::kValidation});
  }
  {
    std::string bytes = Header("CTRC", 0, 8, 1);
    AppendU32(bytes, 0x1ff);  // 9 bits > declared 8
    cases.push_back({"ref exceeds address_bits", bytes, false,
                     ErrorCategory::kValidation});
  }
  {
    std::string bytes = Header("CTRC", 0, 32, 1);
    AppendU32(bytes, 0x40);
    bytes += "junk";  // no declared reference accounts for these
    cases.push_back({"bytes after raw payload", bytes, false,
                     ErrorCategory::kFormat});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 1);
    bytes.push_back('\x02');  // +1, the one declared reference
    bytes += "abc";
    cases.push_back({"bytes after compressed payload", bytes, true,
                     ErrorCategory::kFormat});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 1);
    bytes.push_back('\x01');  // zigzag(-1): walks below address 0
    cases.push_back({"delta below zero", bytes, true, ErrorCategory::kRange});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 2);
    bytes.push_back('\x02');  // +1
    bytes.push_back('\x80');  // truncated varint (continuation, then EOF)
    cases.push_back({"truncated varint", bytes, true,
                     ErrorCategory::kTruncated});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 1);
    for (int i = 0; i < 11; ++i) bytes.push_back('\x80');  // 11 continuations
    bytes.push_back('\x01');
    cases.push_back({"overlong varint", bytes, true, ErrorCategory::kFormat});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 1);
    bytes.push_back('\x80');  // non-canonical encoding of 0 (0x80 0x00)
    bytes.push_back('\x00');
    cases.push_back({"non-canonical varint", bytes, true,
                     ErrorCategory::kFormat});
  }
  {
    std::string bytes = Header("CTRZ", 0, 32, 1);
    for (int i = 0; i < 9; ++i) bytes.push_back('\x80');
    bytes.push_back('\x02');  // bit 64: does not fit a u64
    cases.push_back({"overflowing varint", bytes, true,
                     ErrorCategory::kFormat});
  }
  return cases;
}

struct TextCase {
  const char* name;
  const char* text;
  bool dinero;
  ErrorCategory expected;
};

constexpr TextCase kTextCases[] = {
    {"not hex", "zzz\n", false, ErrorCategory::kParse},
    {"trailing garbage", "12fxq\n", false, ErrorCategory::kParse},
    {"33-bit address", "1ffffffff\n", false, ErrorCategory::kRange},
    {"unknown kind", "# kind banana\n", false, ErrorCategory::kParse},
    {"bad address_bits", "# address_bits 99\n", false,
     ErrorCategory::kValidation},
    {"address beyond declared bits", "# address_bits 4\nff\n", false,
     ErrorCategory::kValidation},
    {"dinero bad label", "9 400\n", true, ErrorCategory::kParse},
    {"dinero negative label", "-1 400\n", true, ErrorCategory::kParse},
    {"dinero bad address", "0 zz\n", true, ErrorCategory::kParse},
    {"dinero 35-bit address", "0 7ffffffffff\n", true, ErrorCategory::kRange},
    {"dinero trailing garbage", "0 400 junk\n", true, ErrorCategory::kParse},
};

}  // namespace corpus

TEST(FuzzTraceCorpus, EveryMalformedFixtureHasAStableCategory) {
  for (const auto& c : corpus::BinaryCases()) {
    std::stringstream stream(c.bytes);
    try {
      if (c.compressed) {
        ces::trace::ReadCompressed(stream);
      } else {
        ces::trace::ReadBinary(stream);
      }
      ADD_FAILURE() << c.name << ": expected a structured error";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), c.expected) << c.name << ": " << e.what();
    }
  }
  for (const auto& c : corpus::kTextCases) {
    std::stringstream stream(c.text);
    try {
      if (c.dinero) {
        ces::trace::ReadDinero(stream, ces::trace::StreamKind::kData);
      } else {
        ces::trace::ReadText(stream);
      }
      ADD_FAILURE() << c.name << ": expected a structured error";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), c.expected) << c.name << ": " << e.what();
    }
  }
}

TEST(FuzzTraceReaders, EveryTruncationOfAValidStreamIsHandled) {
  const ces::trace::Trace trace = ces::trace::SequentialLoop(0x4000, 64, 3);
  for (const bool compressed : {false, true}) {
    std::stringstream full;
    if (compressed) {
      ces::trace::WriteCompressed(full, trace);
    } else {
      ces::trace::WriteBinary(full, trace);
    }
    const std::string bytes = full.str();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      std::stringstream cut(bytes.substr(0, len));
      try {
        if (compressed) {
          ces::trace::ReadCompressed(cut);
        } else {
          ces::trace::ReadBinary(cut);
        }
        ADD_FAILURE() << "prefix of " << len << " bytes parsed as complete";
      } catch (const Error&) {
        // any structured category is fine; crashing or unstructured is not
      }
    }
  }
}

TEST(FuzzTraceReaders, RandomMutationsNeverCrashOrOverAllocate) {
  ces::Rng rng(0x7ACE);
  const ces::trace::Trace trace = ces::trace::SequentialLoop(0x1000, 48, 2);
  std::stringstream raw;
  ces::trace::WriteBinary(raw, trace);
  std::stringstream packed;
  ces::trace::WriteCompressed(packed, trace);
  const std::string originals[] = {raw.str(), packed.str()};
  for (int round = 0; round < 4000; ++round) {
    std::string bytes = originals[rng.NextBounded(2)];
    const int flips = 1 + static_cast<int>(rng.NextBounded(8));
    for (int f = 0; f < flips; ++f) {
      bytes[rng.NextBounded(bytes.size())] =
          static_cast<char>(rng.NextBounded(256));
    }
    std::stringstream stream(bytes);
    try {
      const ces::trace::Trace loaded =
          bytes.compare(0, 4, "CTRZ") == 0
              ? ces::trace::ReadCompressed(stream)
              : ces::trace::ReadBinary(stream);
      // Mutations that still parse must respect the declared address width.
      EXPECT_LE(loaded.address_bits, 32u);
    } catch (const Error&) {
      // expected for most mutations
    }
  }
}

TEST(FuzzTraceReaders, RandomTextLinesNeverCrash) {
  ces::Rng rng(0x7EC7);
  static const char* kFragments[] = {
      "#", " ", "kind", "name", "address_bits", "instruction", "data",
      "deadbeef", "12", "ffffffffff", "zz", "-", "0", "1", "2", "7", "400",
      "\t", "banana"};
  for (int round = 0; round < 3000; ++round) {
    std::string source;
    const int tokens = 1 + static_cast<int>(rng.NextBounded(24));
    for (int t = 0; t < tokens; ++t) {
      source += kFragments[rng.NextBounded(std::size(kFragments))];
      source += rng.NextBool(0.3) ? "\n" : " ";
    }
    for (const bool dinero : {false, true}) {
      std::stringstream stream(source);
      try {
        if (dinero) {
          ces::trace::ReadDinero(stream, ces::trace::StreamKind::kData);
        } else {
          ces::trace::ReadText(stream);
        }
      } catch (const Error&) {
        // expected for most inputs
      }
    }
  }
}

// ---------------------------------------------------------------------------
// NDJSON request fuzzing: nothing a client sends over the wire may kill the
// daemon. The parser must turn every malformed line into a support::Error
// with a stable category, and ExplorationService::Handle must convert that
// into exactly one structured error response — never a throw, never silence.

namespace ndjson_corpus {

struct RequestCase {
  const char* name;
  const char* line;
  ErrorCategory expected;
};

constexpr RequestCase kRequestCases[] = {
    {"empty line", "", ErrorCategory::kParse},
    {"not json", "hello there", ErrorCategory::kParse},
    {"truncated object", "{\"id\":\"1\",", ErrorCategory::kParse},
    {"array not object", "[1,2,3]", ErrorCategory::kValidation},
    {"bare string", "\"ping\"", ErrorCategory::kValidation},
    {"missing id", "{\"op\":\"ping\"}", ErrorCategory::kValidation},
    {"missing op", "{\"id\":\"1\"}", ErrorCategory::kValidation},
    {"unknown op", "{\"id\":\"1\",\"op\":\"dance\"}",
     ErrorCategory::kUnsupported},
    {"unknown field", "{\"id\":\"1\",\"op\":\"ping\",\"bogus\":1}",
     ErrorCategory::kValidation},
    {"duplicate key", "{\"id\":\"1\",\"id\":\"2\",\"op\":\"ping\"}",
     ErrorCategory::kParse},
    {"id wrong type", "{\"id\":7,\"op\":\"ping\"}",
     ErrorCategory::kValidation},
    {"explore without trace", "{\"id\":\"1\",\"op\":\"explore\"}",
     ErrorCategory::kValidation},
    {"explore with both refs",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"digest\":"
     "\"sha256:0000000000000000000000000000000000000000000000000000000000"
     "000000\"}",
     ErrorCategory::kValidation},
    {"bad digest", "{\"id\":\"1\",\"op\":\"stats\",\"digest\":\"sha1:ab\"}",
     ErrorCategory::kValidation},
    {"k and fraction",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"k\":1,"
     "\"fraction\":0.5}",
     ErrorCategory::kValidation},
    {"fraction out of range",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"fraction\":1.5}",
     ErrorCategory::kValidation},
    {"negative k",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"k\":-3}",
     ErrorCategory::kValidation},
    {"line_words not a power of two",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"line_words\":3}",
     ErrorCategory::kValidation},
    {"explore fused-tree engine",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\","
     "\"engine\":\"fused-tree\"}",
     ErrorCategory::kValidation},
    {"max_index_bits too large",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\",\"max_index_bits\":"
     "40}",
     ErrorCategory::kValidation},
    {"explore-joint without instr stream",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\"}",
     ErrorCategory::kValidation},
    {"explore-joint with both instr refs",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"digest_instr\":"
     "\"sha256:0000000000000000000000000000000000000000000000000000000000"
     "000000\"}",
     ErrorCategory::kValidation},
    {"explore-joint with k",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"k\":1}",
     ErrorCategory::kValidation},
    {"explore-joint with kind",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"kind\":\"instr\"}",
     ErrorCategory::kValidation},
    {"explore-joint reference engine",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"engine\":\"reference\"}",
     ErrorCategory::kValidation},
    {"explore-joint fused-tree engine",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"engine\":\"fused-tree\"}",
     ErrorCategory::kValidation},
    {"explore-joint unknown space",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"space\":\"huge\"}",
     ErrorCategory::kValidation},
    {"space on plain explore",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\","
     "\"space\":\"small\"}",
     ErrorCategory::kValidation},
    {"prune not a bool",
     "{\"id\":\"1\",\"op\":\"explore-joint\",\"trace\":\"x\","
     "\"trace_instr\":\"y\",\"prune\":1}",
     ErrorCategory::kValidation},
    {"trace-begin without count",
     "{\"id\":\"1\",\"op\":\"trace-begin\",\"kind\":\"data\"}",
     ErrorCategory::kValidation},
    {"trace-begin with exploration field",
     "{\"id\":\"1\",\"op\":\"trace-begin\",\"count\":4,\"k\":1}",
     ErrorCategory::kValidation},
    {"trace-begin with trace reference",
     "{\"id\":\"1\",\"op\":\"trace-begin\",\"count\":4,\"trace\":\"x\"}",
     ErrorCategory::kValidation},
    {"trace-chunk without seq",
     "{\"id\":\"1\",\"op\":\"trace-chunk\",\"upload\":\"up-1\","
     "\"payload\":\"00000000\"}",
     ErrorCategory::kValidation},
    {"trace-chunk without payload",
     "{\"id\":\"1\",\"op\":\"trace-chunk\",\"upload\":\"up-1\",\"seq\":0}",
     ErrorCategory::kValidation},
    {"trace-chunk unknown encoding",
     "{\"id\":\"1\",\"op\":\"trace-chunk\",\"upload\":\"up-1\",\"seq\":0,"
     "\"payload\":\"00000000\",\"encoding\":\"utf7\"}",
     ErrorCategory::kValidation},
    {"trace-end with payload",
     "{\"id\":\"1\",\"op\":\"trace-end\",\"upload\":\"up-1\","
     "\"payload\":\"00\"}",
     ErrorCategory::kValidation},
    {"trace-end without upload",
     "{\"id\":\"1\",\"op\":\"trace-end\"}", ErrorCategory::kValidation},
    {"upload token on explore",
     "{\"id\":\"1\",\"op\":\"explore\",\"trace\":\"x\","
     "\"upload\":\"up-1\"}",
     ErrorCategory::kValidation},
    {"lone surrogate escape", "{\"id\":\"\\ud800\",\"op\":\"ping\"}",
     ErrorCategory::kParse},
    {"trailing bytes", "{\"id\":\"1\",\"op\":\"ping\"} extra",
     ErrorCategory::kParse},
    {"deep nesting",
     "{\"id\":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[0]]]]]]]]]]]]]]]]]]]]"
     "]]]]]]]]]]]]]]]]]]]]}",
     ErrorCategory::kParse},
};

const char* kValidLines[] = {
    "{\"id\":\"1\",\"op\":\"ping\"}",
    "{\"id\":\"2\",\"op\":\"metrics\"}",
    "{\"id\":\"3\",\"op\":\"stats\",\"trace\":\"no-such-file.trc\"}",
    "{\"id\":\"4\",\"op\":\"explore\",\"trace\":\"no-such-file.trc\","
    "\"engine\":\"fused\",\"fraction\":0.05,\"line_words\":2,"
    "\"max_index_bits\":8,\"deadline_ms\":1000}",
    "{\"id\":\"5\",\"op\":\"ingest\",\"trace\":\"no-such-file.trc\","
    "\"kind\":\"instr\"}",
    "{\"id\":\"6\",\"op\":\"explore-joint\",\"trace\":\"no-such-file.trc\","
    "\"trace_instr\":\"also-missing.trc\",\"engine\":\"fused\","
    "\"space\":\"small\",\"prune\":false,\"deadline_ms\":1000}",
    "{\"id\":\"7\",\"op\":\"trace-begin\",\"count\":4,\"kind\":\"instr\","
    "\"address_bits\":16,\"name\":\"uploaded trace\"}",
    "{\"id\":\"8\",\"op\":\"trace-chunk\",\"upload\":\"up-1\",\"seq\":0,"
    "\"payload\":\"0010000000200000\",\"encoding\":\"hex\"}",
    "{\"id\":\"9\",\"op\":\"trace-chunk\",\"upload\":\"up-1\",\"seq\":1,"
    "\"payload\":\"ABCDEFGH\",\"encoding\":\"base64\"}",
    "{\"id\":\"10\",\"op\":\"trace-end\",\"upload\":\"up-1\"}",
};

}  // namespace ndjson_corpus

TEST(FuzzServiceRequests, CorpusHasStableCategories) {
  for (const auto& c : ndjson_corpus::kRequestCases) {
    try {
      ces::service::ParseRequest(c.line);
      ADD_FAILURE() << c.name << ": expected a structured error";
    } catch (const Error& e) {
      EXPECT_EQ(e.category(), c.expected) << c.name << ": " << e.what();
    }
  }
  for (const char* line : ndjson_corpus::kValidLines) {
    EXPECT_NO_THROW(ces::service::ParseRequest(line)) << line;
  }
}

TEST(FuzzServiceRequests, ByteFlipsAndTruncationsNeverCrashTheParser) {
  ces::Rng rng(0x5EC1);
  for (const char* valid : ndjson_corpus::kValidLines) {
    const std::string base = valid;
    // Every truncation of every valid request.
    for (std::size_t len = 0; len < base.size(); ++len) {
      try {
        ces::service::ParseRequest(base.substr(0, len));
      } catch (const Error&) {
        // any structured category is fine
      }
    }
    // Byte flips: 1..4 mutations per round, including NUL and high bytes.
    for (int round = 0; round < 2000; ++round) {
      std::string mutated = base;
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<char>(rng.NextBounded(256));
      }
      try {
        ces::service::ParseRequest(mutated);
      } catch (const Error&) {
        // expected for most mutants
      }
    }
  }
}

TEST(FuzzService, HandleAnswersEveryLineExactlyOnceAndNeverThrows) {
  // The full daemon surface minus the socket: every line — valid, mutated,
  // or token soup — must produce exactly one response, and malformed ones a
  // structured ok:false with a code. jobs=1 keeps the harness cheap.
  ces::service::ExplorationService::Options options;
  options.jobs = 1;
  options.cache_bytes = 1u << 16;
  options.queue_limit = 64;
  ces::service::ExplorationService service(options);

  ces::Rng rng(0x5EC2);
  auto roundtrip = [&service](const std::string& line) {
    std::promise<std::string> promise;
    auto future = promise.get_future();
    service.Handle(line, [&promise](const std::string& response) {
      promise.set_value(response);
    });
    ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
              std::future_status::ready)
        << "no response for: " << line;
    const std::string response = future.get();
    ces::service::Response decoded;
    ASSERT_NO_THROW(decoded = ces::service::ParseResponse(response))
        << "undecodable response " << response << " for: " << line;
  };

  for (const auto& c : ndjson_corpus::kRequestCases) roundtrip(c.line);
  for (const char* valid : ndjson_corpus::kValidLines) {
    const std::string base = valid;
    roundtrip(base);
    for (int round = 0; round < 150; ++round) {
      std::string mutated = base;
      const int flips = 1 + static_cast<int>(rng.NextBounded(3));
      for (int f = 0; f < flips; ++f) {
        mutated[rng.NextBounded(mutated.size())] =
            static_cast<char>(1 + rng.NextBounded(255));
      }
      roundtrip(mutated);
    }
  }
  // Token soup: random JSON-ish fragments glued together.
  static const char* kFragments[] = {
      "{", "}", "[", "]", ":", ",", "\"id\"", "\"op\"", "\"explore\"",
      "\"trace\"", "\"k\"", "1e309", "0.05", "-1", "18446744073709551616",
      "null", "true", "\\u0000", "\"\\ud800\"", "\xff\xfe", "   "};
  for (int round = 0; round < 500; ++round) {
    std::string soup;
    const int tokens = 1 + static_cast<int>(rng.NextBounded(24));
    for (int t = 0; t < tokens; ++t) {
      soup += kFragments[rng.NextBounded(std::size(kFragments))];
    }
    roundtrip(soup);
  }
}

TEST(FuzzAssembler, ValidProgramsRoundTripThroughDisassembler) {
  // Assemble, disassemble every word, re-assemble the disassembly of the
  // register-register subset, and compare. (Only ops whose disassembly is
  // directly re-assemblable participate.)
  const Program program = Assemble(R"(
        .text
main:   add  t0, t1, t2
        sub  s0, s1, s2
        and  a0, a1, a2
        slt  v0, t3, t4
        mul  t5, t6, t7
        halt
)");
  std::string round;
  for (std::uint32_t word : program.text) {
    round += "        " + DisassembleWord(word) + "\n";
  }
  const Program again = Assemble(".text\n" + round);
  EXPECT_EQ(again.text, program.text);
}

}  // namespace
