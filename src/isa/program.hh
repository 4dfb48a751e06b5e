/**
 * @file
 * A per-stream machine program: instructions, labels, and the static
 * region structure needed to validate fuzzy-barrier code.
 */

#ifndef FB_ISA_PROGRAM_HH
#define FB_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "support/logging.hh"

namespace fb::isa
{

/**
 * A maximal physically-contiguous run of barrier-region instructions.
 */
struct RegionRun
{
    std::size_t first;      ///< index of first in-region instruction
    std::size_t last;       ///< index of last in-region instruction
    int barrierId;          ///< logical barrier id, -1 if unassigned
};

/**
 * One instruction stream for one processor.
 *
 * The program owns its instructions plus two pieces of metadata:
 * labels (resolved to absolute indices by finalize()) and an optional
 * per-instruction logical barrier id. The barrier id expresses the
 * compiler's *intent* — which logical barrier a region instance
 * belongs to — and is what makes the section-3 invalid-branch check
 * (Fig. 2 of the paper) possible.
 */
class Program
{
  public:
    Program() = default;

    /** Append an instruction; returns its index. */
    std::size_t append(const Instruction &instr, int barrier_id = -1);

    /** Bind @p name to the index of the next appended instruction. */
    void defineLabel(const std::string &name);

    /**
     * Append a branch to a label (possibly not yet defined). The
     * target is patched during finalize().
     */
    std::size_t appendBranchTo(Opcode op, int rs1, int rs2,
                               const std::string &label,
                               int barrier_id = -1);

    /** Append an unconditional jump to a label. */
    std::size_t appendJumpTo(const std::string &label, int barrier_id = -1);

    /** Append a procedure call to a label (return address in rd). */
    std::size_t appendCallTo(int rd, const std::string &label,
                             int barrier_id = -1);

    /**
     * Resolve label references and run structural validation. Calls
     * fatal() on undefined labels or out-of-range branch targets.
     */
    void finalize();

    /** True once finalize() has run. */
    bool finalized() const { return _finalized; }

    /** Number of instructions. */
    std::size_t size() const { return _instrs.size(); }

    /** True if the program has no instructions. */
    bool empty() const { return _instrs.empty(); }

    /** Access instruction @p idx. Inline: this is the fetch of the
     * per-cycle interpreter's fetch/decode/execute step. */
    const Instruction &at(std::size_t idx) const
    {
        FB_ASSERT(idx < _instrs.size(),
                  "instruction index " << idx << " out of range");
        return _instrs[idx];
    }

    /** Mutable access (used by the region-encoding converters).
     * Drops the cached content hash: the caller may change the code. */
    Instruction &at(std::size_t idx)
    {
        FB_ASSERT(idx < _instrs.size(),
                  "instruction index " << idx << " out of range");
        _contentHash.reset();
        return _instrs[idx];
    }

    /**
     * FNV-1a hash of the code: the size, then every instruction's
     * opcode, operands, immediate and region bit (barrier ids and
     * labels do not change what executes and are left out).
     * finalize() computes and caches it, so the per-processor load
     * path costs O(1); after the mutable at() drops the cache each
     * call rehashes, since the code may have changed.
     */
    std::uint64_t contentHash() const
    {
        return _contentHash ? *_contentHash : hashCode();
    }

    /** True if @p other has the same instructions and barrier ids
     * (labels aside): everything a machine loading it reads. */
    bool sameCode(const Program &other) const
    {
        return _instrs == other._instrs && _barrierIds == other._barrierIds;
    }

    /** Logical barrier id of instruction @p idx (-1 if none). */
    int barrierId(std::size_t idx) const;

    /** Set the logical barrier id of instruction @p idx. */
    void setBarrierId(std::size_t idx, int id);

    /** Index of @p label; empty if undefined. */
    std::optional<std::size_t> labelIndex(const std::string &label) const;

    /** All maximal contiguous in-region runs, in program order. */
    std::vector<RegionRun> regionRuns() const;

    /** Fraction of instructions with the region bit set. */
    double regionFraction() const;

    /**
     * Check the section-3 rule: control must never transfer directly
     * from one barrier region to a *different* logical barrier's
     * region. Returns a human-readable description of the first
     * violation, or nullopt if the program is valid.
     *
     * An edge between two in-region instructions with distinct
     * non-negative barrier ids is a violation: a processor taking it
     * would merge two logical barrier episodes into one and deadlock
     * its partners (the Fig. 2 scenario). Fall-through and branch
     * edges are both considered.
     */
    std::optional<std::string> checkRegionBranches() const;

    /**
     * Convert the per-instruction region-bit encoding to the explicit
     * BRENTER/BREXIT marker encoding (section 6's "alternative and
     * less expensive approach"). The result has all region bits clear
     * and markers inserted at every region boundary. Branch targets
     * are re-pointed at the shifted indices.
     *
     * @pre the program is finalized and every in-region run is entered
     * only at its first instruction (true for compiler-generated
     * straight-line loops; programs with side entries keep the bit
     * encoding).
     */
    Program toMarkerEncoding() const;

    /** Disassemble the whole program, one instruction per line. */
    std::string toString() const;

  private:
    std::uint64_t hashCode() const;

    struct Fixup
    {
        std::size_t instrIdx;
        std::string label;
    };

    std::vector<Instruction> _instrs;
    std::vector<int> _barrierIds;
    std::map<std::string, std::size_t> _labels;
    std::vector<Fixup> _fixups;
    std::vector<std::string> _pendingLabels;
    bool _finalized = false;
    /** contentHash() of the finalized code, until the mutable at(). */
    std::optional<std::uint64_t> _contentHash;
};

} // namespace fb::isa

#endif // FB_ISA_PROGRAM_HH
