/**
 * @file
 * Pre-decoded representation of an isa::Program: the form both
 * engines execute.
 *
 * Decoding hoists the fetch/decode/classify work out of every issue:
 * each instruction becomes a flat DecodedInsn with resolved operands,
 * its precomputed latency, and the three classification bits the hot
 * paths need (may-execute-privately, statically-in-region,
 * bundleable). The per-cycle Processor::tick() issues from this array
 * and Processor::runPrivate dispatches over it with a computed-goto
 * (threaded-code) loop — see processor.cc — executing whole
 * straight-line private stretches in one call.
 *
 * A DecodedProgram is immutable after decode and carries the content
 * hash of its source program. Machine::loadProgram obtains every
 * block from decodeProgram(), whose process-wide memo shares one
 * block between machines loading the same program.
 */

#ifndef FB_SIM_DECODED_HH
#define FB_SIM_DECODED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"

namespace fb::sim
{

/** One pre-decoded instruction: operands, latency, classification. */
struct DecodedInsn
{
    std::int64_t imm = 0;       ///< resolved immediate / branch target
    std::uint32_t cost = 0;     ///< isa::baseLatency(op), always >= 1
    isa::Opcode op{};           ///< dispatch index (dense)
    std::int8_t rd = 0;
    std::int8_t rs1 = 0;
    std::int8_t rs2 = 0;
    /**
     * True when the op never touches machine-shared state: everything
     * except LD/ST/FAA (memory port), SETTAG/SETMASK (barrier-unit
     * mutation) and HALT — the exclusion list of
     * Processor::isPrivateTick. Only these ops may execute inside the
     * decoded private loop; the rest bounce back to the coordinator.
     */
    bool privateOp = false;
    /**
     * Statically in a barrier region: the instruction's region bit or
     * the BRENTER marker itself. The dynamic contributions (marker
     * flag, inherited call-site region) are per-processor state and
     * stay runtime inputs.
     */
    bool staticRegion = false;
    /** May occupy a non-leading bundle slot (ALU, branch, NOP). */
    bool bundleable = false;

    bool operator==(const DecodedInsn &) const = default;
};

/** A fully decoded, immutable program. */
struct DecodedProgram
{
    std::vector<DecodedInsn> code;
    /** Content hash of the source program (Program::contentHash). */
    std::uint64_t sourceHash = 0;

    std::size_t size() const { return code.size(); }
};

/** Decode @p program (must be finalized) into threaded-code form. */
std::shared_ptr<const DecodedProgram>
decodeProgram(const isa::Program &program);

} // namespace fb::sim

#endif // FB_SIM_DECODED_HH
