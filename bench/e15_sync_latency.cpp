/**
 * @file
 * Experiment E15 (ablation) — broadcast propagation latency.
 *
 * Section 6 notes the extensibility limits of the mechanism: "the
 * number of interconnections among the processors increases with the
 * number of processors" — in a larger machine the broadcast takes
 * longer to propagate. The fuzzy barrier's answer is the same as for
 * every other latency: the region hides it. A point barrier pays the
 * full propagation delay on every episode; a region larger than the
 * delay pays nothing, so the mechanism scales to slower networks
 * without giving up its near-zero cost.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 8;
constexpr int kEpisodes = 40;
constexpr int kWork = 30;

double
costPerEpisode(std::uint32_t latency, int region)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    cfg.syncLatency = latency;
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      region));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E15 run failed\n");
        std::exit(1);
    }
    double ideal =
        static_cast<double>(kEpisodes) * (kWork + region + 3) + 8;
    return (static_cast<double>(r.cycles) - ideal) /
           static_cast<double>(kEpisodes);
}

} // namespace

int
main()
{
    fb::Table table("E15 (ablation, section 6): broadcast propagation "
                    "latency vs region size (extra cycles per episode, "
                    "8 processors)");
    table.setHeader({"sync latency", "region 0", "region 16",
                     "region 32", "region 64"});

    Verdict verdict("E15");
    for (std::uint32_t latency : {0u, 5u, 10u, 20u, 40u}) {
        table.row().cell(static_cast<std::int64_t>(latency));
        for (int region : {0, 16, 32, 64}) {
            const double extra = costPerEpisode(latency, region);
            table.cell(extra, 1);
            // A region hides at most its own length of the delay: a
            // point barrier pays all of it.
            const double hidden_floor = std::max(
                0.0, static_cast<double>(latency) - region - 1);
            verdict.require(extra >= hidden_floor,
                            "latency %u region %d: %.2f extra cycles, "
                            "below %.0f",
                            latency, region, extra, hidden_floor);
            // Once the region covers the delay, the cost is gone.
            if (region >= static_cast<int>(latency))
                verdict.require(extra <= 0.5,
                                "latency %u region %d: %.2f extra cycles, "
                                "above 0.5",
                                latency, region, extra);
        }
    }
    table.print(std::cout);

    printClaim("a point barrier pays the full broadcast delay per "
               "episode; once the region exceeds the delay the cost "
               "returns to near zero — larger (slower-broadcast) "
               "machines just need proportionally larger regions");
    return verdict.exitCode();
}
