/**
 * @file
 * Experiment E8 — section 1/6: hot-spot accesses.
 *
 * "Hot-spot accesses are avoided as the mechanism does not rely upon
 * shared memory to achieve synchronization." The centralized software
 * barrier hammers one counter word and one release flag; the
 * dissemination barrier spreads its flags (each with a single writer);
 * the hardware barrier performs no shared-memory synchronization
 * traffic at all. The simulator counts per-word accesses and shared
 * bus traffic.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kEpisodes = 25;
constexpr int kWork = 10;

struct Traffic
{
    std::uint64_t memAccesses;
    std::uint64_t hotSpot;
    std::uint64_t busRequests;
    std::uint64_t busQueueDelay;
};

Traffic
measure(core::SimBarrierKind kind, int procs)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.memWords = 1 << 14;
    cfg.maxCycles = 500'000'000;
    sim::Machine machine(cfg);
    for (int p = 0; p < procs; ++p)
        machine.loadProgram(p, core::buildBarrierLoop(kind, procs, p,
                                                      kEpisodes, kWork,
                                                      4));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E8 run failed\n");
        std::exit(1);
    }
    return {r.memAccesses, r.hotSpotAccesses, r.busRequests,
            r.busQueueDelay};
}

} // namespace

int
main()
{
    fb::Table table("E8 (sections 1/6): shared-memory traffic of "
                    "synchronization, 25 episodes");
    table.setHeader({"procs", "barrier", "mem accesses",
                     "hottest word", "bus requests", "bus queue delay"});

    Verdict verdict("E8");
    for (int procs : {4, 8, 16, 32}) {
        for (auto kind : {core::SimBarrierKind::Centralized,
                          core::SimBarrierKind::Dissemination,
                          core::SimBarrierKind::HardwareFuzzy}) {
            auto t = measure(kind, procs);
            table.row()
                .cell(static_cast<std::int64_t>(procs))
                .cell(core::simBarrierKindName(kind))
                .cell(t.memAccesses)
                .cell(t.hotSpot)
                .cell(t.busRequests)
                .cell(t.busQueueDelay);

            const auto p = static_cast<std::uint64_t>(procs);
            if (kind == core::SimBarrierKind::HardwareFuzzy) {
                // No synchronization traffic: the only accesses are
                // the P result stores, one per word.
                verdict.require(t.memAccesses == p && t.hotSpot == p,
                                "hw-fuzzy at P=%d: %llu mem accesses, "
                                "hottest word %llu, expected %d and %d",
                                procs,
                                static_cast<unsigned long long>(
                                    t.memAccesses),
                                static_cast<unsigned long long>(t.hotSpot),
                                procs, procs);
            } else if (kind == core::SimBarrierKind::Dissemination) {
                // Single-writer flags: the hottest word stays at a
                // few accesses per episode whatever P is.
                verdict.require(t.hotSpot <= 160,
                                "sw-dissemination at P=%d: hottest word "
                                "%llu, above 160",
                                procs,
                                static_cast<unsigned long long>(t.hotSpot));
            }
        }
    }
    table.print(std::cout);

    printClaim("the centralized barrier concentrates O(P) accesses per "
               "episode on single words (hot spot) and serializes on "
               "the bus; dissemination spreads them; the hardware fuzzy "
               "barrier needs no shared-memory traffic (its only "
               "accesses are the programs' own result stores)");
    return verdict.exitCode();
}
