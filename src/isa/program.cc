#include "isa/program.hh"

#include <sstream>

#include "support/hash.hh"
#include "support/logging.hh"

namespace fb::isa
{

std::size_t
Program::append(const Instruction &instr, int barrier_id)
{
    FB_ASSERT(!_finalized, "append after finalize");
    for (const auto &name : _pendingLabels) {
        auto [it, inserted] = _labels.emplace(name, _instrs.size());
        if (!inserted)
            fatal("duplicate label '" + name + "'");
    }
    _pendingLabels.clear();
    _instrs.push_back(instr);
    _barrierIds.push_back(barrier_id);
    return _instrs.size() - 1;
}

void
Program::defineLabel(const std::string &name)
{
    FB_ASSERT(!_finalized, "defineLabel after finalize");
    _pendingLabels.push_back(name);
}

std::size_t
Program::appendBranchTo(Opcode op, int rs1, int rs2,
                        const std::string &label, int barrier_id)
{
    std::size_t idx = append(Instruction::branch(op, rs1, rs2, 0),
                             barrier_id);
    _fixups.push_back({idx, label});
    return idx;
}

std::size_t
Program::appendJumpTo(const std::string &label, int barrier_id)
{
    std::size_t idx = append(Instruction::jmp(0), barrier_id);
    _fixups.push_back({idx, label});
    return idx;
}

std::size_t
Program::appendCallTo(int rd, const std::string &label, int barrier_id)
{
    std::size_t idx = append(Instruction::call(rd, 0), barrier_id);
    _fixups.push_back({idx, label});
    return idx;
}

void
Program::finalize()
{
    FB_ASSERT(!_finalized, "finalize called twice");
    // A trailing label binds to one-past-the-end; branching there
    // terminates the stream like HALT.
    for (const auto &name : _pendingLabels) {
        auto [it, inserted] = _labels.emplace(name, _instrs.size());
        if (!inserted)
            fatal("duplicate label '" + name + "'");
    }
    _pendingLabels.clear();
    for (const auto &fix : _fixups) {
        auto it = _labels.find(fix.label);
        if (it == _labels.end())
            fatal("undefined label '" + fix.label + "'");
        _instrs[fix.instrIdx].imm =
            static_cast<std::int64_t>(it->second);
    }
    _fixups.clear();
    for (std::size_t i = 0; i < _instrs.size(); ++i) {
        const auto &instr = _instrs[i];
        if (isBranch(instr.op) || instr.op == Opcode::CALL) {
            if (instr.imm < 0 ||
                instr.imm > static_cast<std::int64_t>(_instrs.size())) {
                fatal("branch at " + std::to_string(i) +
                      " targets out-of-range index " +
                      std::to_string(instr.imm));
            }
        }
    }
    _finalized = true;
    _contentHash = hashCode();
}

std::uint64_t
Program::hashCode() const
{
    Fnv1a h;
    h.mix(_instrs.size());
    for (const Instruction &instr : _instrs) {
        h.mix(static_cast<std::uint64_t>(instr.op));
        h.mix(static_cast<std::uint64_t>(instr.rd));
        h.mix(static_cast<std::uint64_t>(instr.rs1));
        h.mix(static_cast<std::uint64_t>(instr.rs2));
        h.mix(static_cast<std::uint64_t>(instr.imm));
        h.mix(instr.inRegion ? 1 : 0);
    }
    return h.value();
}

int
Program::barrierId(std::size_t idx) const
{
    FB_ASSERT(idx < _barrierIds.size(), "index out of range");
    return _barrierIds[idx];
}

void
Program::setBarrierId(std::size_t idx, int id)
{
    FB_ASSERT(idx < _barrierIds.size(), "index out of range");
    _barrierIds[idx] = id;
}

std::optional<std::size_t>
Program::labelIndex(const std::string &label) const
{
    auto it = _labels.find(label);
    if (it == _labels.end())
        return std::nullopt;
    return it->second;
}

std::vector<RegionRun>
Program::regionRuns() const
{
    std::vector<RegionRun> runs;
    std::size_t i = 0;
    while (i < _instrs.size()) {
        if (!_instrs[i].inRegion) {
            ++i;
            continue;
        }
        RegionRun run{i, i, _barrierIds[i]};
        while (run.last + 1 < _instrs.size() &&
               _instrs[run.last + 1].inRegion) {
            ++run.last;
        }
        runs.push_back(run);
        i = run.last + 1;
    }
    return runs;
}

double
Program::regionFraction() const
{
    if (_instrs.empty())
        return 0.0;
    std::size_t in = 0;
    for (const auto &instr : _instrs)
        in += instr.inRegion ? 1 : 0;
    return static_cast<double>(in) / static_cast<double>(_instrs.size());
}

std::optional<std::string>
Program::checkRegionBranches() const
{
    FB_ASSERT(_finalized, "checkRegionBranches before finalize");
    auto check_edge =
        [&](std::size_t from, std::size_t to) -> std::optional<std::string> {
        if (to >= _instrs.size())
            return std::nullopt;
        if (!_instrs[from].inRegion || !_instrs[to].inRegion)
            return std::nullopt;
        int a = _barrierIds[from];
        int b = _barrierIds[to];
        if (a >= 0 && b >= 0 && a != b) {
            std::ostringstream oss;
            oss << "invalid branch: control transfers from barrier " << a
                << " (instr " << from << ") directly into barrier " << b
                << " (instr " << to
                << ") without crossing a non-barrier region";
            return oss.str();
        }
        return std::nullopt;
    };

    for (std::size_t i = 0; i < _instrs.size(); ++i) {
        const auto &instr = _instrs[i];
        if (isBranch(instr.op)) {
            if (auto err = check_edge(i, static_cast<std::size_t>(instr.imm)))
                return err;
            // Conditional branches also fall through.
            if (instr.op != Opcode::JMP) {
                if (auto err = check_edge(i, i + 1))
                    return err;
            }
        } else if (instr.op != Opcode::HALT) {
            if (auto err = check_edge(i, i + 1))
                return err;
        }
    }
    return std::nullopt;
}

Program
Program::toMarkerEncoding() const
{
    FB_ASSERT(_finalized, "toMarkerEncoding before finalize");

    // Branch targets need a marker too: the marker flag is dynamic
    // state, so a branch that crosses a region boundary (e.g. the
    // backedge of a loop whose barrier region spans iterations) must
    // land on a BRENTER/BREXIT matching the target's regionness.
    // Markers are idempotent, so placing one before every branch
    // target is always safe.
    // CALL targets deliberately get no marker: a procedure inherits
    // the caller's region status dynamically, which the marker flag
    // already provides.
    std::vector<bool> is_target(_instrs.size() + 1, false);
    for (const auto &instr : _instrs) {
        if (isBranch(instr.op))
            is_target[static_cast<std::size_t>(instr.imm)] = true;
    }

    // Pass 1: decide where markers go and compute the index mapping.
    // A BRENTER is inserted before the first instruction of each run,
    // a BREXIT after the last, and a matching marker before every
    // branch target. Branches are re-pointed at the marker so the
    // flag is correct along every incoming edge.
    std::vector<std::size_t> newIndex(_instrs.size() + 1);
    std::vector<Instruction> out;
    std::vector<int> outIds;
    bool in_region = false;
    for (std::size_t i = 0; i < _instrs.size(); ++i) {
        bool r = _instrs[i].inRegion;
        bool need_marker = (r != in_region) || is_target[i];
        newIndex[i] = out.size();
        if (need_marker) {
            out.push_back(Instruction::simple(
                r ? Opcode::BRENTER : Opcode::BREXIT));
            outIds.push_back(r ? _barrierIds[i] : -1);
        }
        in_region = r;
        Instruction copy = _instrs[i];
        copy.inRegion = false;
        out.push_back(copy);
        outIds.push_back(_barrierIds[i]);
    }
    if (in_region) {
        out.push_back(Instruction::simple(Opcode::BREXIT));
        outIds.push_back(-1);
    }
    newIndex[_instrs.size()] = out.size();

    // Pass 2: re-point branch targets at the shifted indices.
    Program result;
    for (std::size_t i = 0; i < out.size(); ++i) {
        Instruction instr = out[i];
        if (isBranch(instr.op) || instr.op == Opcode::CALL) {
            instr.imm = static_cast<std::int64_t>(
                newIndex[static_cast<std::size_t>(instr.imm)]);
        }
        result.append(instr, outIds[i]);
    }
    result.finalize();
    return result;
}

std::string
Program::toString() const
{
    std::ostringstream oss;
    std::map<std::size_t, std::string> byIndex;
    for (const auto &[name, idx] : _labels)
        byIndex[idx] = name;
    for (std::size_t i = 0; i < _instrs.size(); ++i) {
        auto it = byIndex.find(i);
        if (it != byIndex.end())
            oss << it->second << ":\n";
        oss << "  " << i << ": " << _instrs[i].toString() << "\n";
    }
    return oss.str();
}

} // namespace fb::isa
