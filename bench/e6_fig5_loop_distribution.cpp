/**
 * @file
 * Experiment E6 — Fig. 5: enlarging barrier regions with loop
 * distribution.
 *
 * The inner loop body is "S1; S2" where S1 carries the loop-carried
 * dependence (it must be in the non-barrier region) and S2 is
 * independent. Without distribution only the single trailing S2
 * execution can sit in the barrier region (Fig. 5(b)); after loop
 * distribution the *entire* S2 loop forms the region (Fig. 5(c)),
 * so the region grows from c2 to (N/P)*c2 instructions and drift
 * tolerance grows with it.
 */

#include "common.hh"
#include "compiler/transforms.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kOuterIters = 10;
constexpr int kItersPerProc = 8;  // inner iterations per processor
constexpr int kS1Cost = 6;        // instructions per S1 execution
constexpr int kS2Cost = 6;        // instructions per S2 execution

std::string
streamSource(bool distributed, int lcg_seed)
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << kProcs) - 1) << "\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << kOuterIters << "\n";
    oss << "li r10, " << lcg_seed << "\n";
    oss << "li r11, 18\n";
    oss << "li r12, 7\n";  // drift mask: 0..7 extra instructions
    oss << "loop:\n";

    // Data-dependent drift: an LCG adds 0..7 units of extra work per
    // outer iteration, different on each processor.
    oss << "muli r10, r10, 1103515245\n";
    oss << "addi r10, r10, 12345\n";
    oss << "shr r13, r10, r11\n";
    oss << "and r13, r13, r12\n";
    oss << "drift:\n";
    oss << "beq r13, r0, driftdone\n";
    oss << "addi r13, r13, -1\n";
    oss << "addi r6, r6, 1\n";
    oss << "addi r6, r6, 1\n";
    oss << "jmp drift\n";
    oss << "driftdone:\n";

    if (!distributed) {
        // Fused loop: S1;S2 interleaved. Only the final S2 execution
        // can be in the barrier region.
        for (int it = 0; it < kItersPerProc; ++it) {
            for (int c = 0; c < kS1Cost; ++c)
                oss << "addi r3, r3, 1\n";  // S1
            if (it + 1 < kItersPerProc) {
                for (int c = 0; c < kS2Cost; ++c)
                    oss << "addi r4, r4, 1\n";  // S2 (non-barrier)
            }
        }
        oss << ".region 1\n";
        for (int c = 0; c < kS2Cost; ++c)
            oss << "addi r4, r4, 1\n";  // final S2 inside the region
        oss << "addi r1, r1, 1\n";
        oss << "bne r1, r2, loop\n";
        oss << ".endregion\n";
    } else {
        // Distributed: the whole S1 loop, then the whole S2 loop
        // inside the barrier region (Fig. 5(c)).
        for (int it = 0; it < kItersPerProc; ++it)
            for (int c = 0; c < kS1Cost; ++c)
                oss << "addi r3, r3, 1\n";
        oss << ".region 1\n";
        for (int it = 0; it < kItersPerProc; ++it)
            for (int c = 0; c < kS2Cost; ++c)
                oss << "addi r4, r4, 1\n";
        oss << "addi r1, r1, 1\n";
        oss << "bne r1, r2, loop\n";
        oss << ".endregion\n";
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
measure(bool distributed)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, assembleOrDie(streamSource(distributed, 555 + 97 * p)));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E6 run failed\n");
        std::exit(1);
    }
    return {r.cycles, totalStalledEpisodes(r), r.totalBarrierWait()};
}

} // namespace

int
main()
{
    // Structural view via the transform library.
    std::vector<compiler::Statement> stmts(2);
    stmts[0].name = "S1";
    stmts[0].carriesLoopDep = true;
    stmts[1].name = "S2";
    stmts[1].carriesLoopDep = false;
    std::printf("statement executions eligible for the barrier region "
                "(per processor, %d inner iterations):\n",
                kItersPerProc);
    const std::size_t eligible_fused =
        compiler::regionExecutionsWithoutDistribution(stmts,
                                                      kItersPerProc);
    const std::size_t eligible_dist =
        compiler::regionExecutionsWithDistribution(stmts, kItersPerProc);
    std::printf("  without distribution: %zu (Fig. 5(b))\n",
                eligible_fused);
    std::printf("  with distribution:    %zu (Fig. 5(c))\n",
                eligible_dist);

    fb::Table table("E6 (Fig. 5): loop distribution enlarges the "
                    "barrier region");
    table.setHeader({"version", "region instrs", "stalled episodes",
                     "idle cycles", "total cycles"});
    auto fused = measure(false);
    auto dist = measure(true);
    table.row()
        .cell("fused (5b)")
        .cell(static_cast<std::int64_t>(kS2Cost + 2))
        .cell(fused.stalled)
        .cell(fused.wait)
        .cell(fused.cycles);
    table.row()
        .cell("distributed (5c)")
        .cell(static_cast<std::int64_t>(kItersPerProc * kS2Cost + 2))
        .cell(dist.stalled)
        .cell(dist.wait)
        .cell(dist.cycles);
    table.print(std::cout);

    printClaim("loop distribution turns the barrier region from a "
               "single execution of S2 into a loop containing all "
               "executions of S2, absorbing far more drift");

    // One S2 execution fits the fused region, all of them the
    // distributed one, and the larger region stalls and runs less.
    Verdict verdict("E6");
    verdict.require(eligible_fused == 1 &&
                        eligible_dist ==
                            static_cast<std::size_t>(kItersPerProc),
                    "region-eligible S2 executions are %zu vs %zu, "
                    "expected 1 vs %d",
                    eligible_fused, eligible_dist, kItersPerProc);
    verdict.require(dist.stalled < fused.stalled,
                    "distributed stalls %llu episodes, not below fused's "
                    "%llu",
                    static_cast<unsigned long long>(dist.stalled),
                    static_cast<unsigned long long>(fused.stalled));
    verdict.require(dist.cycles < fused.cycles,
                    "distributed takes %llu cycles, not below fused's %llu",
                    static_cast<unsigned long long>(dist.cycles),
                    static_cast<unsigned long long>(fused.cycles));
    return verdict.exitCode();
}
