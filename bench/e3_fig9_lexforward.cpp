/**
 * @file
 * Experiment E3 — Figs. 9/10: lexically forward dependences.
 *
 * The loop a[j][i] = a[j-1][i-1] + i*j, outer loop unrolled once,
 * needs two barriers per unrolled iteration: one for the lexically
 * forward dependence (processor i reads a[j][i-1] from processor
 * i-1), one for the loop-carried dependence. The Fig. 10 reordered
 * code pushes all address arithmetic into the two barrier regions,
 * so "the code is tolerant of significant drift in execution of
 * different streams". The baseline uses single-NOP (point) barrier
 * regions at the same two synchronization points.
 *
 * Correctness is checked against the exact host-side recurrence on
 * every run — both versions must produce identical arrays.
 */

#include "common.hh"

using namespace fb;
using namespace fb::bench;

int
main()
{
    fb::Table table("E3 (Figs. 9/10): two-barrier loop, reordered "
                    "regions vs point barriers, under drift");
    table.setHeader({"procs", "jitter", "version", "correct",
                     "stalled episodes", "wait cycles", "total cycles"});

    Verdict verdict("E3");
    for (int n : {2, 4, 8}) {
        for (double jitter : {0.0, 2.0, 5.0}) {
            core::LexForwardWorkload wl(n, 20);
            sim::MachineConfig cfg;
            cfg.numProcessors = n;
            cfg.memWords = 1 << 15;
            cfg.jitterMean = jitter;
            cfg.seed = 31337;

            auto fuzzy = core::runLexForward(wl, cfg, true);
            auto point = core::runLexForward(wl, cfg, false);
            // Both versions compute the host recurrence exactly, and
            // the Fig. 10 regions wait less than point barriers.
            verdict.require(point.correct && fuzzy.correct,
                            "P=%d jitter %.1f: memory differs from the "
                            "host recurrence (point %s, reordered %s)",
                            n, jitter, point.correct ? "ok" : "wrong",
                            fuzzy.correct ? "ok" : "wrong");
            verdict.require(fuzzy.result.totalBarrierWait() <
                                point.result.totalBarrierWait(),
                            "P=%d jitter %.1f: reordered waits %llu cycles, "
                            "not below point's %llu",
                            n, jitter,
                            static_cast<unsigned long long>(
                                fuzzy.result.totalBarrierWait()),
                            static_cast<unsigned long long>(
                                point.result.totalBarrierWait()));

            table.row()
                .cell(static_cast<std::int64_t>(n))
                .cell(jitter, 1)
                .cell("point")
                .cell(point.correct ? "yes" : "NO")
                .cell(totalStalledEpisodes(point.result))
                .cell(point.result.totalBarrierWait())
                .cell(point.result.cycles);
            table.row()
                .cell(static_cast<std::int64_t>(n))
                .cell(jitter, 1)
                .cell("fig10-reordered")
                .cell(fuzzy.correct ? "yes" : "NO")
                .cell(totalStalledEpisodes(fuzzy.result))
                .cell(fuzzy.result.totalBarrierWait())
                .cell(fuzzy.result.cycles);
        }
    }
    table.print(std::cout);

    printClaim("the barrier regions for the loop contain a substantial "
               "number of instructions and hence the code is tolerant of "
               "significant drift in execution of different streams "
               "(section 7.2); both versions compute identical results");
    return verdict.exitCode();
}
