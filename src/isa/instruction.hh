/**
 * @file
 * A single machine instruction, carrying the fuzzy-barrier region bit.
 */

#ifndef FB_ISA_INSTRUCTION_HH
#define FB_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "isa/opcode.hh"

namespace fb::isa
{

/** Number of general-purpose registers per processor. r0 reads as 0. */
constexpr int numRegisters = 32;

/** Register index type. */
using RegIndex = std::int8_t;

/**
 * One decoded instruction.
 *
 * The @ref inRegion flag is the per-instruction barrier-region bit from
 * section 6 of the paper: "a single bit in each instruction is used.
 * The bit is one if the instruction is from a barrier region and zero
 * otherwise."
 */
struct Instruction
{
    Opcode op = Opcode::NOP;
    RegIndex rd = 0;    ///< destination register
    RegIndex rs1 = 0;   ///< first source register
    RegIndex rs2 = 0;   ///< second source register
    std::int64_t imm = 0;  ///< immediate / branch target / address offset
    bool inRegion = false; ///< barrier-region bit

    bool operator==(const Instruction &) const = default;

    /** Build a three-register ALU instruction. */
    static Instruction rrr(Opcode op, int rd, int rs1, int rs2);

    /** Build a register-register-immediate instruction. */
    static Instruction rri(Opcode op, int rd, int rs1, std::int64_t imm);

    /** Build a load-immediate. */
    static Instruction li(int rd, std::int64_t imm);

    /** Build a register move. */
    static Instruction mov(int rd, int rs1);

    /** Build a load: rd = mem[rs1 + off]. */
    static Instruction ld(int rd, int rs1, std::int64_t off);

    /** Build a store: mem[rs1 + off] = rs2. */
    static Instruction st(int rs1, std::int64_t off, int rs2);

    /** Build an atomic fetch-and-add: rd = mem[rs1+off] += rs2. */
    static Instruction faa(int rd, int rs1, std::int64_t off, int rs2);

    /** Build a conditional branch to instruction index @p target. */
    static Instruction branch(Opcode op, int rs1, int rs2,
                              std::int64_t target);

    /** Build an unconditional jump to instruction index @p target. */
    static Instruction jmp(std::int64_t target);

    /** Build a procedure call: rd = return address, goto target. */
    static Instruction call(int rd, std::int64_t target);

    /** Build a procedure return through register rs1. */
    static Instruction ret(int rs1);

    /** Build a SETTAG. */
    static Instruction settag(std::int64_t tag);

    /** Build a SETMASK. */
    static Instruction setmask(std::int64_t mask);

    /** Build an operand-less instruction (NOP/HALT/BRENTER/BREXIT). */
    static Instruction simple(Opcode op);

    /** Mark this instruction as part of a barrier region. */
    Instruction &region(bool in = true)
    {
        inRegion = in;
        return *this;
    }

    /** Disassemble to the textual form the assembler accepts. */
    std::string toString() const;
};

} // namespace fb::isa

#endif // FB_ISA_INSTRUCTION_HH
