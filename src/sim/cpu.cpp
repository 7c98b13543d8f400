#include "sim/cpu.hpp"

#include <algorithm>
#include <cstring>

#include "isa/disasm.hpp"
#include "support/check.hpp"

namespace ces::sim {

trace::Trace TraceCollector::TakeInstructionTrace(const std::string& name) {
  trace::Trace out = std::move(instruction_);
  out.name = name;
  instruction_ = trace::Trace{.refs = {}, .address_bits = 32,
                              .kind = trace::StreamKind::kInstruction,
                              .name = {}};
  return out;
}

trace::Trace TraceCollector::TakeDataTrace(const std::string& name) {
  trace::Trace out = std::move(data_);
  out.name = name;
  data_ = trace::Trace{.refs = {}, .address_bits = 32,
                       .kind = trace::StreamKind::kData, .name = {}};
  return out;
}

Cpu::Cpu(const isa::Program& program, std::size_t memory_bytes)
    : memory_(memory_bytes, 0) {
  text_base_ = program.text_base;
  text_limit_ = program.text_base +
                static_cast<std::uint32_t>(program.text.size()) * 4;
  CES_CHECK(text_limit_ <= memory_bytes);
  CES_CHECK(program.data_base + program.data.size() <= memory_bytes);
  CES_CHECK(text_limit_ <= program.data_base || program.data.empty());

  for (std::size_t i = 0; i < program.text.size(); ++i) {
    WriteWord(text_base_ + static_cast<std::uint32_t>(i) * 4, program.text[i]);
  }
  // std::copy, not memcpy: an empty data segment has a null data() pointer,
  // which memcpy may not be passed even for a zero-byte copy.
  std::copy(program.data.begin(), program.data.end(),
            memory_.begin() + program.data_base);

  pc_ = program.entry;
  regs_.fill(0);
  regs_[29] = static_cast<std::uint32_t>(memory_bytes) - 16;  // sp
  regs_[31] = text_limit_;  // ra: returning from main without halt stops too
}

std::uint32_t Cpu::ReadWord(std::uint32_t byte_address) const {
  CES_CHECK(byte_address + 4 <= memory_.size());
  std::uint32_t value;
  std::memcpy(&value, memory_.data() + byte_address, 4);
  return value;
}

void Cpu::WriteWord(std::uint32_t byte_address, std::uint32_t value) {
  CES_CHECK(byte_address + 4 <= memory_.size());
  std::memcpy(memory_.data() + byte_address, &value, 4);
}

std::uint8_t Cpu::ReadByte(std::uint32_t byte_address) const {
  CES_CHECK(byte_address < memory_.size());
  return memory_[byte_address];
}

std::vector<std::uint8_t> Cpu::ReadBlock(std::uint32_t byte_address,
                                         std::size_t length) const {
  CES_CHECK(byte_address + length <= memory_.size());
  return {memory_.begin() + byte_address,
          memory_.begin() + byte_address + static_cast<std::ptrdiff_t>(length)};
}

bool Cpu::CheckAccess(std::uint32_t byte_address, std::uint32_t size) {
  if (byte_address + size > memory_.size() || byte_address % size != 0) {
    error_ = "bad access at 0x" + std::to_string(byte_address);
    return false;
  }
  return true;
}

StopReason Cpu::Run(std::uint64_t max_steps) {
  using isa::Opcode;
  for (std::uint64_t step = 0; step < max_steps; ++step) {
    if (pc_ == text_limit_) return StopReason::kHalted;  // fell off main
    if (pc_ < text_base_ || pc_ >= text_limit_ || pc_ % 4 != 0) {
      error_ = "pc out of text segment: 0x" + std::to_string(pc_);
      return StopReason::kBadAccess;
    }
    if (observer_ != nullptr) observer_->OnInstructionFetch(pc_);

    isa::Instruction ins;
    if (!isa::Decode(ReadWord(pc_), ins)) {
      error_ = "undecodable instruction at 0x" + std::to_string(pc_);
      return StopReason::kBadInstruction;
    }
    std::uint32_t next_pc = pc_ + 4;
    ++retired_;

    const std::uint32_t rs = regs_[ins.rs];
    const std::uint32_t rt = regs_[ins.rt];
    const std::uint32_t rd_in = regs_[ins.rd];
    const auto simm = ins.imm;  // already sign-extended by Decode
    const auto uimm = static_cast<std::uint32_t>(ins.imm) & 0xffff;
    auto set_rd = [&](std::uint32_t value) {
      if (ins.rd != 0) regs_[ins.rd] = value;
    };

    switch (ins.op) {
      case Opcode::kAdd: set_rd(rs + rt); break;
      case Opcode::kSub: set_rd(rs - rt); break;
      case Opcode::kAnd: set_rd(rs & rt); break;
      case Opcode::kOr: set_rd(rs | rt); break;
      case Opcode::kXor: set_rd(rs ^ rt); break;
      case Opcode::kNor: set_rd(~(rs | rt)); break;
      case Opcode::kSlt:
        set_rd(static_cast<std::int32_t>(rs) < static_cast<std::int32_t>(rt));
        break;
      case Opcode::kSltu: set_rd(rs < rt); break;
      case Opcode::kSllv: set_rd(rs << (rt & 31)); break;
      case Opcode::kSrlv: set_rd(rs >> (rt & 31)); break;
      case Opcode::kSrav:
        set_rd(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs) >>
                                          (rt & 31)));
        break;
      case Opcode::kMul: set_rd(rs * rt); break;
      case Opcode::kMulh: {
        const std::int64_t product = static_cast<std::int64_t>(
                                         static_cast<std::int32_t>(rs)) *
                                     static_cast<std::int32_t>(rt);
        set_rd(static_cast<std::uint32_t>(product >> 32));
        break;
      }
      case Opcode::kDiv: {
        const auto a = static_cast<std::int32_t>(rs);
        const auto b = static_cast<std::int32_t>(rt);
        set_rd(b == 0 ? 0 : static_cast<std::uint32_t>(a / b));
        break;
      }
      case Opcode::kRem: {
        const auto a = static_cast<std::int32_t>(rs);
        const auto b = static_cast<std::int32_t>(rt);
        set_rd(b == 0 ? rs : static_cast<std::uint32_t>(a % b));
        break;
      }
      case Opcode::kJr: next_pc = rs; break;
      case Opcode::kJalr:
        set_rd(pc_ + 4);
        next_pc = rs;
        break;

      case Opcode::kAddi: set_rd(rs + static_cast<std::uint32_t>(simm)); break;
      case Opcode::kAndi: set_rd(rs & uimm); break;
      case Opcode::kOri: set_rd(rs | uimm); break;
      case Opcode::kXori: set_rd(rs ^ uimm); break;
      case Opcode::kSlti:
        set_rd(static_cast<std::int32_t>(rs) < simm);
        break;
      case Opcode::kSltiu: set_rd(rs < static_cast<std::uint32_t>(simm)); break;
      case Opcode::kLui: set_rd(uimm << 16); break;
      case Opcode::kSll: set_rd(rs << (uimm & 31)); break;
      case Opcode::kSrl: set_rd(rs >> (uimm & 31)); break;
      case Opcode::kSra:
        set_rd(static_cast<std::uint32_t>(static_cast<std::int32_t>(rs) >>
                                          (uimm & 31)));
        break;

      case Opcode::kLw: case Opcode::kSw: case Opcode::kLb: case Opcode::kLbu:
      case Opcode::kSb: case Opcode::kLh: case Opcode::kLhu: case Opcode::kSh: {
        const std::uint32_t address = rs + static_cast<std::uint32_t>(simm);
        const std::uint32_t size =
            (ins.op == Opcode::kLw || ins.op == Opcode::kSw)   ? 4
            : (ins.op == Opcode::kLh || ins.op == Opcode::kLhu ||
               ins.op == Opcode::kSh)                          ? 2
                                                               : 1;
        if (!CheckAccess(address, size)) return StopReason::kBadAccess;
        const bool is_write = isa::IsStore(ins.op);
        if (observer_ != nullptr) observer_->OnDataAccess(address, is_write);
        switch (ins.op) {
          case Opcode::kLw: set_rd(ReadWord(address)); break;
          case Opcode::kSw: WriteWord(address, rd_in); break;
          case Opcode::kLb:
            set_rd(static_cast<std::uint32_t>(
                static_cast<std::int8_t>(memory_[address])));
            break;
          case Opcode::kLbu: set_rd(memory_[address]); break;
          case Opcode::kSb:
            memory_[address] = static_cast<std::uint8_t>(rd_in & 0xff);
            break;
          case Opcode::kLh: {
            std::uint16_t half;
            std::memcpy(&half, memory_.data() + address, 2);
            set_rd(static_cast<std::uint32_t>(static_cast<std::int16_t>(half)));
            break;
          }
          case Opcode::kLhu: {
            std::uint16_t half;
            std::memcpy(&half, memory_.data() + address, 2);
            set_rd(half);
            break;
          }
          case Opcode::kSh: {
            const auto half = static_cast<std::uint16_t>(rd_in & 0xffff);
            std::memcpy(memory_.data() + address, &half, 2);
            break;
          }
          default: break;
        }
        break;
      }

      case Opcode::kBeq:
        if (rd_in == rs) next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        break;
      case Opcode::kBne:
        if (rd_in != rs) next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        break;
      case Opcode::kBlt:
        if (static_cast<std::int32_t>(rd_in) < static_cast<std::int32_t>(rs)) {
          next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        }
        break;
      case Opcode::kBge:
        if (static_cast<std::int32_t>(rd_in) >= static_cast<std::int32_t>(rs)) {
          next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        }
        break;
      case Opcode::kBltu:
        if (rd_in < rs) next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        break;
      case Opcode::kBgeu:
        if (rd_in >= rs) next_pc = pc_ + 4 + static_cast<std::uint32_t>(simm * 4);
        break;

      case Opcode::kJ: next_pc = ins.target * 4; break;
      case Opcode::kJal:
        regs_[31] = pc_ + 4;
        next_pc = ins.target * 4;
        break;

      case Opcode::kOutb:
        output_.push_back(static_cast<std::uint8_t>(rs & 0xff));
        break;
      case Opcode::kOutw:
        for (int b = 0; b < 4; ++b) {
          output_.push_back(static_cast<std::uint8_t>((rs >> (8 * b)) & 0xff));
        }
        break;
      case Opcode::kHalt: return StopReason::kHalted;
      case Opcode::kOpcodeCount: return StopReason::kBadInstruction;
    }
    pc_ = next_pc;
  }
  error_ = "step limit reached";
  return StopReason::kStepLimit;
}

RunResult RunProgram(const isa::Program& program, const std::string& name,
                     std::uint64_t max_steps, bool keep_combined) {
  Cpu cpu(program);
  TraceCollector collector(keep_combined);
  cpu.set_observer(&collector);
  RunResult result;
  result.stop = cpu.Run(max_steps);
  result.instruction_trace = collector.TakeInstructionTrace(name);
  result.data_trace = collector.TakeDataTrace(name);
  result.combined = collector.TakeCombined();
  result.output = cpu.output();
  result.retired = cpu.retired();
  return result;
}

}  // namespace ces::sim
