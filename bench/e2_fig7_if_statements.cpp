/**
 * @file
 * Experiment E2 — Fig. 7: variable-length streams.
 *
 * A parallel loop body contains "if cond then S2 else S3" where the
 * two paths have different lengths, and the branch outcome is
 * data-dependent (an LCG per processor). With a single-instruction
 * barrier region (Fig. 7(b)(i)) the processor taking the short path
 * waits for the other; with the entire if-statement inside the
 * barrier region (Fig. 7(b)(ii)) the variation is absorbed and
 * neither processor has to stall.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

/**
 * @param if_in_region place the whole if-statement (and loop control)
 *        in the barrier region, Fig. 7(b)(ii); otherwise only a
 *        single-NOP region marks the barrier, Fig. 7(b)(i).
 */
std::string
streamSource(int procs, int seed, int heavy_extra, bool if_in_region)
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << procs) - 1) << "\n";
    oss << "li r1, 0\n";
    oss << "li r2, 32\n";          // iterations
    oss << "li r10, " << seed << "\n";
    oss << "li r11, 16\n";         // shift for branch bit
    oss << "li r12, 1\n";
    oss << "loop:\n";
    oss << "addi r3, r3, 1\n";  // S1: the non-barrier work
    if (if_in_region)
        oss << ".region 1\n";
    // LCG step: r10 = r10 * 1103515245 + 12345; bit 16 decides.
    oss << "muli r10, r10, 1103515245\n";
    oss << "addi r10, r10, 12345\n";
    oss << "shr r13, r10, r11\n";
    oss << "and r13, r13, r12\n";
    oss << "bne r13, r0, else_s3\n";
    // S2: the long path.
    for (int k = 0; k < heavy_extra; ++k)
        oss << "addi r5, r5, 1\n";
    oss << "jmp endif\n";
    oss << "else_s3:\n";
    oss << "addi r6, r6, 1\n";     // S3: the short path
    oss << "endif:\n";
    if (if_in_region) {
        oss << "addi r1, r1, 1\n";
        oss << "bne r1, r2, loop\n";
        oss << ".endregion\n";
    } else {
        oss << ".region 1\n";
        oss << "nop\n";
        oss << ".endregion\n";
        oss << "addi r1, r1, 1\n";
        oss << "bne r1, r2, loop\n";
    }
    oss << "st r3, 100(r0)\n";
    oss << "halt\n";
    return oss.str();
}

struct Row
{
    std::uint64_t cycles;
    std::uint64_t stalled;
    std::uint64_t wait;
};

Row
measure(int procs, int heavy_extra, bool if_in_region)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.memWords = 1 << 14;
    cfg.seed = 7;
    sim::Machine machine(cfg);
    for (int p = 0; p < procs; ++p) {
        machine.loadProgram(
            p, assembleOrDie(streamSource(procs, 1234 + 77 * p,
                                          heavy_extra, if_in_region)));
    }
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E2 run failed\n");
        std::exit(1);
    }
    return {r.cycles, totalStalledEpisodes(r), r.totalBarrierWait()};
}

} // namespace

int
main()
{
    fb::Table table("E2 (Fig. 7): if-statements with unequal paths, "
                    "point barrier vs if-statement inside the region");
    table.setHeader({"procs", "path gap", "barrier", "stalled episodes",
                     "wait cycles", "total cycles"});

    Verdict verdict("E2");
    for (int procs : {2, 4, 8}) {
        for (int heavy : {8, 24}) {
            auto point = measure(procs, heavy, false);
            auto fuzzy = measure(procs, heavy, true);
            // The if-statement in the region absorbs path variation
            // the point barrier must wait out, in every cell.
            verdict.require(fuzzy.stalled < point.stalled &&
                                fuzzy.wait < point.wait,
                            "P=%d gap %d: if-in-region stalls %llu / waits "
                            "%llu, not below point's %llu / %llu",
                            procs, heavy,
                            static_cast<unsigned long long>(fuzzy.stalled),
                            static_cast<unsigned long long>(fuzzy.wait),
                            static_cast<unsigned long long>(point.stalled),
                            static_cast<unsigned long long>(point.wait));
            table.row()
                .cell(static_cast<std::int64_t>(procs))
                .cell(static_cast<std::int64_t>(heavy))
                .cell("point")
                .cell(point.stalled)
                .cell(point.wait)
                .cell(point.cycles);
            table.row()
                .cell(static_cast<std::int64_t>(procs))
                .cell(static_cast<std::int64_t>(heavy))
                .cell("if-in-region")
                .cell(fuzzy.stalled)
                .cell(fuzzy.wait)
                .cell(fuzzy.cycles);
        }
    }
    table.print(std::cout);

    printClaim("if the entire if-statement is part of the barrier, "
               "processors taking different paths may not have to stall "
               "(Fig. 7(b)(ii)); with a single-instruction barrier the "
               "short-path processor always waits");
    return verdict.exitCode();
}
