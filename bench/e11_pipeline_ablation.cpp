/**
 * @file
 * Experiment E11 (ablation) — pipelining and the fuzzy barrier.
 *
 * Section 2: "If the processors in the system are pipelined, repeated
 * synchronization is less likely to degrade the performance of the
 * pipeline because the synchronization point is not exactly
 * specified. Thus upon reaching a barrier, the processor may be able
 * to issue instructions even if the synchronization has not taken
 * place."
 *
 * In a pipelined machine, readiness fires only when the last
 * non-barrier instruction *drains* from the pipe (depth-1 cycles
 * after issue), so every episode of a point barrier pays the drain
 * latency; a barrier region overlaps the drain with useful issue
 * slots. Sweep pipeline depth x region size and report the total
 * barrier wait per episode.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kEpisodes = 40;
constexpr int kWork = 30;

double
waitPerEpisode(int depth, int region)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    cfg.pipelineDepth = depth;
    cfg.jitterMean = 1.0;
    cfg.seed = 11;
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      region));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E11 run failed\n");
        std::exit(1);
    }
    return static_cast<double>(r.totalBarrierWait()) /
           static_cast<double>(kEpisodes) / kProcs;
}

} // namespace

int
main()
{
    fb::Table table("E11 (ablation, section 2): barrier wait per "
                    "episode per processor vs pipeline depth and "
                    "region size");
    table.setHeader({"pipeline depth", "region 0", "region 16",
                     "region 64"});

    Verdict verdict("E11");
    double point_depth1 = 0;
    for (int depth : {1, 2, 4, 8, 16}) {
        const double point = waitPerEpisode(depth, 0);
        const double region16 = waitPerEpisode(depth, 16);
        const double region64 = waitPerEpisode(depth, 64);
        table.row()
            .cell(static_cast<std::int64_t>(depth))
            .cell(point, 1)
            .cell(region16, 1)
            .cell(region64, 1);

        // A 64-instruction region hides the drain at every depth.
        verdict.require(region64 <= 1,
                        "region-64 wait is %.2f cycles at depth %d, above 1",
                        region64, depth);
        if (depth == 1)
            point_depth1 = point;
        // The point barrier pays the drain: its wait grows with depth.
        if (depth == 16)
            verdict.require(point > 3 * point_depth1,
                            "region-0 wait at depth 16 (%.2f) is not > 3x "
                            "the wait at depth 1 (%.2f)",
                            point, point_depth1);
    }
    table.print(std::cout);

    printClaim("a point barrier pays the pipeline drain latency on "
               "every episode (wait grows with depth); a barrier "
               "region hides the drain behind issued region "
               "instructions, so pipelining stops hurting");
    return verdict.exitCode();
}
