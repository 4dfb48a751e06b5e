/**
 * @file
 * Experiment E16 (robustness ablation) — fault-injection hook cost.
 *
 * The fault subsystem is wired into the per-cycle simulator loop, so
 * its dormant cost matters: a simulator that slows down when a feature
 * is merely *available* taxes every experiment that does not use it.
 * The contract (sim/config.hh) is that a null or empty plan builds no
 * injector and the run loop is identical to the pre-fault simulator;
 * an armed watchdog adds only a per-cycle timer check, and live
 * transient faults cost only their actual injection work.
 */

#include "common.hh"

#include "fault/plan.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 8;
constexpr int kEpisodes = 200;
constexpr int kWork = 25;
constexpr int kRegion = 8;

std::uint64_t
runCycles(const fault::FaultPlan *plan, bool watchdog)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    cfg.faultPlan = plan;
    if (watchdog) {
        cfg.watchdog.enabled = true;
        cfg.watchdog.timeoutCycles = 10'000;
        cfg.watchdog.maxAttempts = 3;
    }
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(
            p, core::buildBarrierLoop(core::SimBarrierKind::HardwareFuzzy,
                                      kProcs, p, kEpisodes, kWork,
                                      kRegion));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E16 run failed\n");
        std::exit(1);
    }
    return r.cycles;
}

} // namespace

int
main()
{
    fb::Table table("E16 (robustness ablation): dormant fault-hook "
                    "cost (8 processors, 200 episodes)");
    table.setHeader({"configuration", "cycles", "overhead vs off"});

    const std::uint64_t off = runCycles(nullptr, false);
    auto report = [&](const char *name, std::uint64_t cycles) {
        double pct = 100.0 *
                     (static_cast<double>(cycles) -
                      static_cast<double>(off)) /
                     static_cast<double>(off);
        table.row().cell(name).cell(cycles).cell(pct, 2);
    };

    fault::FaultPlan empty;
    report("no fault subsystem", off);
    report("empty plan attached", runCycles(&empty, false));
    report("watchdog armed, no faults", runCycles(nullptr, true));

    fault::FaultPlan transient;
    std::string err;
    if (!fault::FaultPlan::parse("drop@500:1:32,fliptag@900:2:3",
                                 transient, err)) {
        std::fprintf(stderr, "E16 plan parse failed: %s\n",
                     err.c_str());
        return 1;
    }
    report("two transient faults", runCycles(&transient, true));

    table.print(std::cout);
    printClaim("fault hooks are free when unused: an empty plan is "
               "cycle-identical to the pre-fault simulator, an armed "
               "watchdog adds no simulated cycles, and transient "
               "faults cost only the synchronization delay they "
               "actually inject");
    return 0;
}
