/**
 * @file
 * Shared differential-test harness for the equivalence, sharding and
 * campaign suites: the corpus seed constants, the per-seed timing
 * knobs, scenario-to-config assembly, the run observer (which routes
 * through exec::ShardedMachine so a config with shardCount > 1 is
 * exercised under real host threads), the exact-match oracle over
 * every RunResult field, and the fault-plan attachment used across
 * the corpus. Header-only so each test binary keeps its own copy.
 */

#ifndef FB_TESTS_HARNESS_HH
#define FB_TESTS_HARNESS_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "exec/sharded_machine.hh"
#include "fault/plan.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "verify/scenario.hh"

namespace fb::harness
{

// The equivalence corpus: 140 fault-free + 80 fault-plan scenarios =
// 220 fuzz-generated programs cross-checked per run, exceeding the
// 200-program floor. The sharded suite sweeps the same population.
inline constexpr std::uint64_t kFaultFreeSeeds = 140;
inline constexpr std::uint64_t kFaultSeeds = 80;

/** Machine knobs varied per seed, on top of the scenario itself. */
struct Knobs
{
    int pipelineDepth = 1;
    int issueWidth = 1;
    double jitterMean = 0.0;
    std::uint32_t syncLatency = 0;
    sim::StallModel stall = sim::StallModel::hardware();
};

/** Derive timing knobs from the seed so the population covers the
 * whole matrix without a combinatorial test explosion. */
inline Knobs
knobsFor(std::uint64_t seed)
{
    Knobs k;
    k.pipelineDepth = 1 + static_cast<int>(seed % 4);         // 1..4
    k.issueWidth = (seed % 3 == 0) ? 4 : 1;
    k.jitterMean = (seed % 5 == 0) ? 1.5 : 0.0;
    k.syncLatency = static_cast<std::uint32_t>((seed / 3) % 4);
    if (seed % 4 == 1)
        k.stall = sim::StallModel::software(20, 20);
    return k;
}

inline sim::MachineConfig
configFor(const verify::Scenario &sc, const Knobs &k, bool fast_forward,
          int shards = 1)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = sc.procs();
    cfg.memWords = 4096;
    cfg.pipelineDepth = k.pipelineDepth;
    cfg.issueWidth = k.issueWidth;
    cfg.jitterMean = k.jitterMean;
    cfg.syncLatency = k.syncLatency;
    cfg.stall = k.stall;
    cfg.seed = 42;
    cfg.maxCycles = 5'000'000;
    cfg.interruptPeriod = sc.interruptPeriod;
    cfg.isrEntry = sc.isrEntry;
    cfg.fastForward = fast_forward;
    if (shards > 1) {
        cfg.shardCount = shards;
        cfg.shardQuantum = 512;
    }
    if (sc.hasFaults()) {
        cfg.faultPlan = &sc.faults;
        cfg.watchdog = sc.watchdog;
    }
    return cfg;
}

/** Attach a seeded fault schedule + watchdog, as fbfuzz --faults
 * does. Works on both ProgramSpec and Scenario (identical fields). */
template <class SpecOrScenario>
inline void
attachFaults(SpecOrScenario &s, std::uint64_t fault_seed)
{
    s.faults =
        fault::randomFaultPlan(fault_seed, s.procs(), s.groupSizes);
    s.faultSeed = fault_seed;
    s.watchdog.enabled = true;
    s.watchdog.timeoutCycles = 2000;
    s.watchdog.maxAttempts = 3;
}

/** The corpus's canonical fault-seed derivation for corpus seed
 * @p seed (shared by the equivalence and sharded sweeps, and by the
 * CoversWatchdogRecovery coverage assertions). */
inline std::uint64_t
corpusFaultSeed(std::uint64_t seed)
{
    return seed * 31 + 7;
}

/** Everything observable about one run, for exact comparison. */
struct Observation
{
    sim::RunResult result;
    std::vector<std::vector<std::int64_t>> regs;
    std::string safety;
    std::size_t syncRecords = 0;
};

/**
 * Load @p procs programs and run @p m to completion. The run goes
 * through exec::ShardedMachine, so a config with shardCount > 1 and
 * shardQuantum > 0 executes under real host threads and anything
 * else falls back to the plain sequential core — callers pick the
 * execution mode purely through MachineConfig.
 */
inline Observation
observeRun(int procs, const std::vector<isa::Program> &programs,
           sim::Machine &m)
{
    for (int p = 0; p < procs; ++p)
        m.loadProgram(p, programs[static_cast<std::size_t>(p)]);
    Observation obs;
    exec::ShardedMachine sharded(m);
    obs.result = sharded.run();
    for (int p = 0; p < procs; ++p) {
        std::vector<std::int64_t> r;
        for (int i = 0; i < isa::numRegisters; ++i)
            r.push_back(m.processor(p).reg(i));
        obs.regs.push_back(std::move(r));
    }
    obs.safety = m.checkSafetyProperty();
    obs.syncRecords = m.syncRecords().size();
    return obs;
}

/** Load the scenario's programs and run @p m (see above). */
inline Observation
observeRun(const verify::Scenario &sc,
           const std::vector<isa::Program> &programs, sim::Machine &m)
{
    return observeRun(sc.procs(), programs, m);
}

/** Run @p sc under @p cfg — pooled when @p pool is set (sweeps
 * recycle machines through the campaign engine's pool), fresh
 * otherwise. */
inline Observation
runOnce(const verify::Scenario &sc,
        const std::vector<isa::Program> &programs,
        const sim::MachineConfig &cfg, exec::MachinePool *pool = nullptr)
{
    if (pool) {
        auto lease = pool->acquire(cfg);
        return observeRun(sc, programs, *lease);
    }
    sim::Machine m(cfg);
    return observeRun(sc, programs, m);
}

/** Knob-level convenience overload (fast engine vs reference). */
inline Observation
runOnce(const verify::Scenario &sc,
        const std::vector<isa::Program> &programs, const Knobs &k,
        bool fast_forward, exec::MachinePool *pool = nullptr)
{
    return runOnce(sc, programs, configFor(sc, k, fast_forward), pool);
}

/** Assert every RunResult field (and final machine state) matches,
 * except the engine and checkpoint counters, which count work, not
 * results. The @p ctx string is the failure pretty-printer: it should
 * carry the seed and every knob needed to replay the divergence. */
inline void
expectIdentical(const Observation &ff, const Observation &legacy,
                const std::string &ctx)
{
    const auto &a = ff.result;
    const auto &b = legacy.result;
    EXPECT_EQ(a.cycles, b.cycles) << ctx;
    EXPECT_EQ(a.deadlocked, b.deadlocked) << ctx;
    EXPECT_EQ(a.timedOut, b.timedOut) << ctx;
    EXPECT_EQ(a.deadlockInfo, b.deadlockInfo) << ctx;
    EXPECT_EQ(a.syncEvents, b.syncEvents) << ctx;
    EXPECT_EQ(a.busRequests, b.busRequests) << ctx;
    EXPECT_EQ(a.busQueueDelay, b.busQueueDelay) << ctx;
    EXPECT_EQ(a.memAccesses, b.memAccesses) << ctx;
    EXPECT_EQ(a.hotSpotAccesses, b.hotSpotAccesses) << ctx;
    EXPECT_EQ(a.invalidationsSent, b.invalidationsSent) << ctx;
    EXPECT_EQ(a.invalidationsAvoided, b.invalidationsAvoided) << ctx;
    EXPECT_EQ(a.correctedFaults, b.correctedFaults) << ctx;
    EXPECT_EQ(a.membershipViolation, b.membershipViolation) << ctx;
    EXPECT_EQ(a.deadDeclared, b.deadDeclared) << ctx;

    ASSERT_EQ(a.recoveries.size(), b.recoveries.size()) << ctx;
    for (std::size_t i = 0; i < a.recoveries.size(); ++i) {
        EXPECT_EQ(a.recoveries[i].cycle, b.recoveries[i].cycle) << ctx;
        EXPECT_EQ(a.recoveries[i].deadProc, b.recoveries[i].deadProc)
            << ctx;
        EXPECT_EQ(a.recoveries[i].survivors, b.recoveries[i].survivors)
            << ctx;
    }

    EXPECT_EQ(a.faultStats.pulseDropCycles, b.faultStats.pulseDropCycles)
        << ctx;
    EXPECT_EQ(a.faultStats.bitsFlipped, b.faultStats.bitsFlipped) << ctx;
    EXPECT_EQ(a.faultStats.kills, b.faultStats.kills) << ctx;
    EXPECT_EQ(a.faultStats.freezes, b.faultStats.freezes) << ctx;
    EXPECT_EQ(a.faultStats.forcedInterrupts,
              b.faultStats.forcedInterrupts)
        << ctx;
    EXPECT_EQ(a.watchdogStats.timeouts, b.watchdogStats.timeouts) << ctx;
    EXPECT_EQ(a.watchdogStats.rearms, b.watchdogStats.rearms) << ctx;
    EXPECT_EQ(a.watchdogStats.deadDeclared, b.watchdogStats.deadDeclared)
        << ctx;

    ASSERT_EQ(a.perProcessor.size(), b.perProcessor.size()) << ctx;
    for (std::size_t p = 0; p < a.perProcessor.size(); ++p) {
        const auto &pa = a.perProcessor[p];
        const auto &pb = b.perProcessor[p];
        std::string pctx = ctx + " cpu" + std::to_string(p);
        EXPECT_EQ(pa.instructions, pb.instructions) << pctx;
        EXPECT_EQ(pa.barrierWaitCycles, pb.barrierWaitCycles) << pctx;
        EXPECT_EQ(pa.contextSwitchCycles, pb.contextSwitchCycles)
            << pctx;
        EXPECT_EQ(pa.contextSwitches, pb.contextSwitches) << pctx;
        EXPECT_EQ(pa.interruptsTaken, pb.interruptsTaken) << pctx;
        EXPECT_EQ(pa.barrierEpisodes, pb.barrierEpisodes) << pctx;
        EXPECT_EQ(pa.stalledEpisodes, pb.stalledEpisodes) << pctx;
        EXPECT_EQ(pa.stallCycles, pb.stallCycles) << pctx;
        EXPECT_EQ(pa.cacheHits, pb.cacheHits) << pctx;
        EXPECT_EQ(pa.cacheMisses, pb.cacheMisses) << pctx;
    }

    EXPECT_EQ(ff.regs, legacy.regs) << ctx;
    EXPECT_EQ(ff.safety, legacy.safety) << ctx;
    EXPECT_EQ(ff.syncRecords, legacy.syncRecords) << ctx;
}

/** Assemble the scenario's programs under its baseline encoding,
 * through the shared intern cache when @p cache is set. */
inline bool
assemblePrograms(const verify::Scenario &sc,
                 std::vector<isa::Program> &out,
                 exec::ProgramCache *cache = nullptr)
{
    for (int p = 0; p < sc.procs(); ++p) {
        const auto &source = sc.sources[static_cast<std::size_t>(p)];
        isa::Program prog;
        if (cache) {
            auto interned = cache->intern(source);
            if (!interned->ok)
                return false;
            prog = sc.encoding == verify::Encoding::Markers
                       ? interned->markers
                       : interned->bits;
        } else {
            std::string err;
            if (!isa::Assembler::assemble(source, prog, err))
                return false;
            if (sc.encoding == verify::Encoding::Markers)
                prog = prog.toMarkerEncoding();
        }
        out.push_back(std::move(prog));
    }
    return true;
}

/** Replay context for one corpus seed (the pretty-printer prefix). */
inline std::string
describeSeed(std::uint64_t seed, bool with_faults, const Knobs &k)
{
    std::ostringstream ctx;
    ctx << "seed=" << seed << (with_faults ? " faults" : "")
        << " depth=" << k.pipelineDepth << " width=" << k.issueWidth
        << " jitter=" << k.jitterMean << " synclat=" << k.syncLatency;
    return ctx.str();
}

} // namespace fb::harness

#endif // FB_TESTS_HARNESS_HH
