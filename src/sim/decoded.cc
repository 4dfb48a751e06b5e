#include "sim/decoded.hh"

#include <mutex>
#include <unordered_map>

#include "support/logging.hh"

namespace fb::sim
{

using isa::Opcode;

namespace
{

bool
isPrivateOp(Opcode op)
{
    switch (op) {
      case Opcode::LD:
      case Opcode::ST:
      case Opcode::FAA:     // memory port (bus, caches, counters)
      case Opcode::SETTAG:
      case Opcode::SETMASK: // barrier-unit mutation
      case Opcode::HALT:
        return false;
      default:
        return true;
    }
}

/** True if @p op may occupy a non-leading bundle slot: ALU ops,
 * branches and NOP. Memory ops (single port), barrier control,
 * linkage and HALT issue alone. */
bool
isBundleable(Opcode op)
{
    switch (op) {
      case Opcode::ADD:
      case Opcode::SUB:
      case Opcode::MUL:
      case Opcode::DIV:
      case Opcode::AND:
      case Opcode::OR:
      case Opcode::XOR:
      case Opcode::SLT:
      case Opcode::SHL:
      case Opcode::SHR:
      case Opcode::ADDI:
      case Opcode::MULI:
      case Opcode::SLTI:
      case Opcode::LI:
      case Opcode::MOV:
      case Opcode::NOP:
      case Opcode::BEQ:
      case Opcode::BNE:
      case Opcode::BLT:
      case Opcode::BGE:
      case Opcode::JMP:
        return true;
      default:
        return false;
    }
}

/** Decode one instruction; the pc only labels a failed check. */
DecodedInsn
decodeInsn(const isa::Instruction &instr, std::size_t pc)
{
    // Operand ranges are the decoded loop's licence to index the
    // register file without per-access checks.
    FB_ASSERT(instr.rd >= 0 && instr.rd < isa::numRegisters &&
                  instr.rs1 >= 0 && instr.rs1 < isa::numRegisters &&
                  instr.rs2 >= 0 && instr.rs2 < isa::numRegisters,
              "register operand out of range at pc " << pc);
    DecodedInsn d;
    d.imm = instr.imm;
    d.cost = static_cast<std::uint32_t>(isa::baseLatency(instr.op));
    FB_ASSERT(d.cost >= 1, "zero base latency at pc " << pc);
    d.op = instr.op;
    d.rd = instr.rd;
    d.rs1 = instr.rs1;
    d.rs2 = instr.rs2;
    d.privateOp = isPrivateOp(instr.op);
    d.staticRegion = instr.inRegion || instr.op == Opcode::BRENTER;
    d.bundleable = isBundleable(instr.op);
    return d;
}

/** True if @p decoded is exactly what decoding @p program yields. */
bool
decodesTo(const isa::Program &program, const DecodedProgram &decoded)
{
    if (decoded.code.size() != program.size())
        return false;
    for (std::size_t i = 0; i < program.size(); ++i) {
        if (!(decodeInsn(program.at(i), i) == decoded.code[i]))
            return false;
    }
    return true;
}

} // namespace

std::shared_ptr<const DecodedProgram>
decodeProgram(const isa::Program &program)
{
    FB_ASSERT(program.finalized(), "cannot decode an unfinalized program");

    // Process-wide memo keyed by the content hash. Decoding is a pure
    // function of the program and the block is immutable, so sharing
    // one block between machines is exactly what the ProgramCache
    // already does for interned sources; this extends the sharing to
    // callers that re-assemble the same program per run (the bench
    // harnesses and the differ's direct-assembly variants), where
    // re-decoding was a measurable fraction of short runs. The table
    // is wholesale-cleared at a size cap so a long fuzz campaign over
    // ever-fresh programs cannot grow it without bound. A hit is
    // trusted only after its code compares equal to a fresh decode
    // of @p program (outside the lock; it allocates nothing), so a
    // 64-bit hash collision costs a re-decode, never the wrong code.
    static std::mutex memo_mu;
    static std::unordered_map<std::uint64_t,
                              std::shared_ptr<const DecodedProgram>>
        memo;
    constexpr std::size_t memoCap = 1024;
    const std::uint64_t hash = program.contentHash();
    std::shared_ptr<const DecodedProgram> cached;
    {
        std::lock_guard<std::mutex> lk(memo_mu);
        if (auto it = memo.find(hash); it != memo.end())
            cached = it->second;
    }
    if (cached != nullptr && decodesTo(program, *cached))
        return cached;

    auto decoded = std::make_shared<DecodedProgram>();
    decoded->code.reserve(program.size());
    for (std::size_t i = 0; i < program.size(); ++i)
        decoded->code.push_back(decodeInsn(program.at(i), i));
    decoded->sourceHash = hash;

    {
        std::lock_guard<std::mutex> lk(memo_mu);
        if (memo.size() >= memoCap)
            memo.clear();
        memo.insert_or_assign(hash, decoded);
    }
    return decoded;
}

} // namespace fb::sim
