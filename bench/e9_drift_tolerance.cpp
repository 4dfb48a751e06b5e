/**
 * @file
 * Experiment E9 — section 2's central claim:
 *
 * "The tolerance of the mechanism to the variation in the rate at
 * which each stream progresses is limited by the number of
 * instructions in the barrier regions. Thus, the larger the barrier
 * regions, the less likely it is that the processors will stall."
 *
 * Four processors, per-instruction execution jitter (the cache-miss
 * drift of section 1), region size sweep x drift intensity sweep.
 * Reported: fraction of episodes in which any processor stalled, and
 * average stall cycles per episode.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kEpisodes = 50;
constexpr int kWork = 60;

struct Row
{
    double stallFraction;
    double waitPerEpisode;
};

Row
measure(int region, double jitter)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    cfg.jitterMean = jitter;
    cfg.seed = 4242;
    cfg.maxCycles = 500'000'000;
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      region));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E9 run failed\n");
        std::exit(1);
    }
    Row out;
    out.stallFraction = static_cast<double>(totalStalledEpisodes(r)) /
                        (static_cast<double>(kEpisodes) * kProcs);
    out.waitPerEpisode = static_cast<double>(r.totalBarrierWait()) /
                         static_cast<double>(kEpisodes);
    return out;
}

} // namespace

int
main()
{
    fb::Table table("E9 (section 2): stall likelihood vs barrier region "
                    "size under execution drift (4 procs, 60-instr "
                    "work section)");
    table.setHeader({"region instrs", "jitter 0.5", "jitter 1.0",
                     "jitter 2.0", "wait/episode @2.0"});

    constexpr double kJitters[] = {0.5, 1.0, 2.0};
    Verdict verdict("E9");
    double first[3] = {};
    double previous[3] = {};
    for (int region : {0, 4, 8, 16, 32, 64, 128}) {
        table.row().cell(static_cast<std::int64_t>(region));
        double wait_at_high_jitter = 0;
        for (int j = 0; j < 3; ++j) {
            const Row row = measure(region, kJitters[j]);
            table.cell(row.stallFraction, 3);
            // The larger the region, the less likely a stall: never
            // more stalls than with the next smaller region.
            if (region == 0)
                first[j] = row.stallFraction;
            else
                verdict.require(row.stallFraction <= previous[j],
                                "jitter %.1f: stall fraction rises to "
                                "%.3f at region %d (from %.3f)",
                                kJitters[j], row.stallFraction, region,
                                previous[j]);
            previous[j] = row.stallFraction;
            wait_at_high_jitter = row.waitPerEpisode;
        }
        table.cell(wait_at_high_jitter, 1);
    }
    table.print(std::cout);

    printClaim("stall probability falls monotonically as the barrier "
               "region grows, for every drift intensity; a region a few "
               "times larger than the typical drift eliminates stalls");

    // The largest region all but eliminates the point barrier's stalls.
    for (int j = 0; j < 3; ++j)
        verdict.require(previous[j] * 10 < first[j],
                        "jitter %.1f: stall fraction %.3f at region 128 is "
                        "not below a tenth of region 0's %.3f",
                        kJitters[j], previous[j], first[j]);
    return verdict.exitCode();
}
