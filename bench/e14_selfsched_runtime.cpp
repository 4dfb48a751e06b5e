/**
 * @file
 * Experiment E14 — genuine run-time self-scheduling in the machine.
 *
 * Section 7.4 builds on processor self-scheduling [Tang & Yew]: when
 * iteration counts/costs are unknown at compile time, processors grab
 * iterations from a shared index at run time. Here the grabbing is
 * real: an atomic fetch-and-add on a shared index word inside the
 * simulated machine, iterations with strongly non-uniform cost, ended
 * by a fuzzy barrier. Compared against a static block split of the
 * same loop.
 *
 * This quantifies both effects the paper's sources describe: dynamic
 * grabbing balances the finish times (lower makespan), and the shared
 * index is itself a (mild) hot spot whose FAA traffic the simulator
 * counts.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kIters = 64;
constexpr std::int64_t kIndexAddr = 8;

/**
 * Iteration body whose cost grows with i: iteration i spins
 * 4 + 6*(i >> 3) units (so a static block split leaves the last
 * processor with ~10x the first one's work). i is in r1.
 */
void
emitBody(std::ostringstream &oss, int label_salt)
{
    oss << "li r20, 3\n";
    oss << "shr r21, r1, r20\n";
    oss << "muli r21, r21, 6\n";
    oss << "addi r21, r21, 4\n";  // cost
    oss << "li r22, 0\n";
    oss << "w" << label_salt << ":\n";
    oss << "addi r3, r3, 1\n";
    oss << "addi r22, r22, 1\n";
    oss << "blt r22, r21, w" << label_salt << "\n";
}

/** Self-scheduled: grab iterations with FAA until exhausted. */
std::string
selfSchedSource()
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << kProcs) - 1) << "\n";
    oss << "li r2, " << kIters << "\n";
    oss << "li r9, 1\n";
    oss << "grab:\n";
    oss << "faa r1, " << kIndexAddr << "(r0), r9\n";
    oss << "bge r1, r2, finish\n";
    emitBody(oss, 0);
    oss << "jmp grab\n";
    oss << "finish:\n";
    oss << ".region 1\n";
    oss << "nop\n";
    oss << ".endregion\n";
    oss << "st r3, 100(r0)\n";
    oss << "halt\n";
    return oss.str();
}

/** Static block split: processor p runs [p*16, p*16+16). */
std::string
staticSource(int self)
{
    const int chunk = kIters / kProcs;
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << kProcs) - 1) << "\n";
    oss << "li r1, " << self * chunk << "\n";
    oss << "li r2, " << (self + 1) * chunk << "\n";
    oss << "loop:\n";
    emitBody(oss, 0);
    oss << "addi r1, r1, 1\n";
    oss << "blt r1, r2, loop\n";
    oss << ".region 1\n";
    oss << "nop\n";
    oss << ".endregion\n";
    oss << "st r3, 100(r0)\n";
    oss << "halt\n";
    return oss.str();
}

struct Row
{
    std::uint64_t cycles;
    std::uint64_t idle;
    std::uint64_t hotSpot;
};

Row
measure(bool self_sched)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 4096;
    cfg.maxCycles = 50'000'000;
    cfg.busKind = sim::BusKind::Banked;
    sim::Machine m(cfg);
    for (int p = 0; p < kProcs; ++p)
        m.loadProgram(p, assembleOrDie(self_sched ? selfSchedSource()
                                                  : staticSource(p)));
    auto r = m.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E14 run failed\n");
        std::exit(1);
    }
    return {r.cycles, r.totalBarrierWait(), r.hotSpotAccesses};
}

} // namespace

int
main()
{
    fb::Table table("E14 (section 7.4): run-time self-scheduling via "
                    "fetch-and-add vs static split, 64 non-uniform "
                    "iterations on 4 processors");
    table.setHeader({"schedule", "makespan cycles", "idle at barrier",
                     "hottest word"});

    auto stat = measure(false);
    auto dyn = measure(true);
    table.row()
        .cell("static block")
        .cell(stat.cycles)
        .cell(stat.idle)
        .cell(stat.hotSpot);
    table.row()
        .cell("self-sched (faa)")
        .cell(dyn.cycles)
        .cell(dyn.idle)
        .cell(dyn.hotSpot);
    table.print(std::cout);

    printClaim("run-time grabbing balances completion times (lower "
               "idle at the closing barrier and lower makespan) at the "
               "price of shared-index traffic — the trade-off behind "
               "compiler-assisted run-time scheduling");

    Verdict verdict("E14");
    verdict.require(dyn.cycles < stat.cycles && dyn.idle < stat.idle,
                    "self-sched makespan %llu / idle %llu, not below "
                    "static's %llu / %llu",
                    static_cast<unsigned long long>(dyn.cycles),
                    static_cast<unsigned long long>(dyn.idle),
                    static_cast<unsigned long long>(stat.cycles),
                    static_cast<unsigned long long>(stat.idle));
    return verdict.exitCode();
}
