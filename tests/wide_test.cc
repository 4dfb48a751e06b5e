/**
 * @file
 * 1024-processor tests: machine-wide fuzzy-barrier loops on the flat,
 * tree and cluster networks (fast engine, inline and over 2 and 4
 * shard threads, against the per-cycle reference), a kill recovered
 * by the watchdog, a diagnosed deadlock, the hierarchies' sync-cost
 * advantage over a size-scaled flat broadcast, and an engine whose
 * work depends on the active processors only. At this width a
 * per-episode cost that grows with the square of the group size costs
 * seconds, so every test here carries a CTest timeout
 * (tests/CMakeLists.txt) and such a cost fails loudly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/topology.hh"
#include "core/barrierprogs.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "isa/assembler.hh"
#include "sim/machine.hh"

namespace fb::sim
{
namespace
{

constexpr int kProcs = 1024;
constexpr int kEpisodes = 64;
/** First word of the per-processor result slots. */
constexpr std::int64_t kResultBase = 16;

int
workFor(int p)
{
    return 4 + p % 5;  // uneven work: some members stall every episode
}

/**
 * Processor @p p's program: @p episodes iterations of workFor(p) work
 * instructions and a machine-wide fuzzy barrier with a three-
 * instruction region, then its work count to its own result word.
 * With @p halt_early the processor halts before its first arrival.
 */
isa::Program
loopProgram(int p, int episodes, bool halt_early = false)
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask -1\n";  // the all-processors form
    if (halt_early)
        oss << "halt\n";
    oss << "li r1, 0\n";
    oss << "li r2, " << episodes << "\n";
    oss << "loop:\n";
    for (int k = 0; k < workFor(p); ++k)
        oss << "addi r3, r3, 1\n";
    oss << ".region 1\n";
    for (int k = 0; k < 3; ++k)
        oss << "addi r4, r4, 1\n";
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << ".endregion\n";
    oss << "st r3, " << kResultBase + p << "(r0)\n";
    oss << "halt\n";
    isa::Program prog;
    std::string err;
    if (!isa::Assembler::assemble(oss.str(), prog, err))
        ADD_FAILURE() << "assembly failed: " << err;
    return prog;
}

std::vector<isa::Program>
loopPrograms(int episodes)
{
    std::vector<isa::Program> progs;
    for (int p = 0; p < kProcs; ++p)
        progs.push_back(loopProgram(p, episodes));
    return progs;
}

MachineConfig
wideConfig(const std::string &shape)
{
    MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 4096;
    cfg.maxCycles = 2'000'000;
    cfg.seed = 11;
    cfg.jitterMean = 0.25;
    EXPECT_TRUE(barrier::Topology::parse(shape, cfg.topology)) << shape;
    // The flat broadcast pays a latency that grows with the machine,
    // the hierarchies pay per level (see WideTopology below).
    cfg.syncLatency = cfg.topology.flat() ? 64 : 1;
    return cfg;
}

/** Everything a run computed, one line per processor and episode. */
std::string
outcome(Machine &m, const RunResult &r)
{
    std::ostringstream oss;
    oss << "cycles=" << r.cycles << " deadlocked=" << r.deadlocked
        << " timedOut=" << r.timedOut << " syncEvents=" << r.syncEvents
        << " bus=" << r.busRequests << "/" << r.busQueueDelay
        << " membership='" << r.membershipViolation << "' dead={";
    for (int d : r.deadDeclared)
        oss << d << ",";
    oss << "}\n";
    for (std::size_t p = 0; p < r.perProcessor.size(); ++p) {
        const ProcessorStats &ps = r.perProcessor[p];
        oss << "cpu" << p << " " << ps.instructions << " "
            << ps.barrierWaitCycles << " " << ps.barrierEpisodes << " "
            << ps.stalledEpisodes << " " << ps.stallCycles << " "
            << m.memory().peek(static_cast<std::size_t>(kResultBase) + p)
            << "\n";
    }
    for (const SyncRecord &rec : m.syncRecords()) {
        oss << "sync@" << rec.cycle << " n=" << rec.members.size();
        for (std::size_t k = 0; k < rec.members.size(); ++k)
            oss << " " << rec.arrivals[k] << "/" << rec.crossings[k];
        oss << "\n";
    }
    return oss.str();
}

/** Run @p progs under @p cfg on the fast or the per-cycle engine. */
std::string
runEngine(MachineConfig cfg, bool fast,
          const std::vector<isa::Program> &progs, RunResult &r)
{
    cfg.fastForward = fast;
    Machine m(cfg);
    for (int p = 0; p < kProcs; ++p)
        m.loadProgram(p, progs[static_cast<std::size_t>(p)]);
    r = m.run();
    return outcome(m, r);
}

class Wide1024Shape : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Wide1024Shape, BarrierLoopFastMatchesReference)
{
    const MachineConfig cfg = wideConfig(GetParam());
    const auto progs = loopPrograms(kEpisodes);
    RunResult fast;
    RunResult ref;
    const std::string fast_out = runEngine(cfg, true, progs, fast);
    const std::string ref_out = runEngine(cfg, false, progs, ref);

    EXPECT_FALSE(fast.deadlocked) << fast.deadlockInfo;
    EXPECT_FALSE(fast.timedOut);
    EXPECT_EQ(fast.membershipViolation, "");
    EXPECT_EQ(fast.syncEvents, static_cast<std::uint64_t>(kEpisodes));
    for (int p = 0; p < kProcs; ++p) {
        const auto sp = static_cast<std::size_t>(p);
        EXPECT_EQ(fast.perProcessor[sp].barrierEpisodes,
                  static_cast<std::uint64_t>(kEpisodes))
            << "cpu" << p;
    }
    EXPECT_GT(fast.perProcessor[0].stalledEpisodes, 0u);
    EXPECT_TRUE(fast_out == ref_out)
        << "fast engine and per-cycle reference differ on " << GetParam();

    // The coordinator's work per iteration scales with the cores it
    // ticks: a window visits only the cores ticked in its iteration,
    // never every active core.
    EXPECT_GT(fast.engine.windows, 0u);
    EXPECT_LE(fast.engine.windowCandidates, fast.engine.coordinatorTicks)
        << GetParam() << ": " << fast.engine.windows << " windows";
    // Cores run ahead through private ticks and wait on the wheel.
    EXPECT_GT(fast.engine.privateCycles, 0u) << GetParam();
    EXPECT_GT(fast.engine.parkedCores, 0u) << GetParam();
}

TEST_P(Wide1024Shape, ShardedMatchesReference)
{
    // Shard threads split each window's candidate list by processor
    // range; at 1024 processors that list spans every shard.
    const auto progs = loopPrograms(kEpisodes);
    MachineConfig ref_cfg = wideConfig(GetParam());
    ref_cfg.fastForward = false;
    Machine ref_machine(ref_cfg);
    const harness::Observation ref =
        harness::observeRun(kProcs, progs, ref_machine);
    const std::string ref_out = outcome(ref_machine, ref.result);
    for (int shards : {2, 4}) {
        MachineConfig cfg = wideConfig(GetParam());
        cfg.shardCount = shards;
        cfg.shardQuantum = 64;
        Machine m(cfg);
        const harness::Observation obs =
            harness::observeRun(kProcs, progs, m);
        const std::string ctx =
            std::string(GetParam()) + " shards=" + std::to_string(shards);
        harness::expectIdentical(obs, ref, ctx);
        EXPECT_TRUE(outcome(m, obs.result) == ref_out) << ctx;
        EXPECT_GT(obs.result.engine.windows, 0u) << ctx;
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Wide1024Shape,
                         ::testing::Values("flat", "tree:4", "cluster:16"),
                         [](const auto &info) {
                             std::string name = info.param;
                             return name.substr(0, name.find(':'));
                         });

TEST(Wide1024, KillRecoveredByWatchdog)
{
    // One processor is killed mid-run; the watchdog declares it dead,
    // the other 1023 shrink their masks, enter a new epoch and finish
    // every episode, and the membership oracle stays clean on each
    // 1023-member episode after the recovery.
    MachineConfig cfg = wideConfig("tree:4");
    fault::FaultPlan plan;
    std::string err;
    ASSERT_TRUE(fault::FaultPlan::parse("kill@150:517", kProcs, plan, err))
        << err;
    cfg.faultPlan = &plan;
    cfg.watchdog.enabled = true;
    cfg.watchdog.timeoutCycles = 400;
    cfg.watchdog.maxAttempts = 3;
    const auto progs = loopPrograms(kEpisodes);
    RunResult fast;
    RunResult ref;
    const std::string fast_out = runEngine(cfg, true, progs, fast);
    const std::string ref_out = runEngine(cfg, false, progs, ref);

    EXPECT_FALSE(fast.deadlocked) << fast.deadlockInfo;
    EXPECT_FALSE(fast.timedOut);
    EXPECT_EQ(fast.deadDeclared, (std::vector<int>{517}));
    ASSERT_EQ(fast.recoveries.size(), 1u);
    EXPECT_EQ(fast.recoveries[0].survivors.size(),
              static_cast<std::size_t>(kProcs - 1));
    EXPECT_EQ(fast.membershipViolation, "");
    for (int p = 0; p < kProcs; ++p) {
        if (p == 517)
            continue;
        EXPECT_EQ(fast.perProcessor[static_cast<std::size_t>(p)]
                      .barrierEpisodes,
                  static_cast<std::uint64_t>(kEpisodes))
            << "survivor cpu" << p;
    }
    EXPECT_LT(fast.perProcessor[517].barrierEpisodes,
              static_cast<std::uint64_t>(kEpisodes));
    EXPECT_TRUE(fast_out == ref_out)
        << "fast engine and per-cycle reference differ after recovery";
}

TEST(Wide1024, AnalyzeDeadlockOnMachineWideBarrier)
{
    // Processor 1023 halts before it ever arrives: the other 1023
    // stall on the machine-wide barrier, both engines report the
    // deadlock at the same cycle, and the network's diagnosis names
    // cpu1023 as the one unsatisfied member of every stuck AND.
    std::vector<isa::Program> progs;
    for (int p = 0; p < kProcs; ++p)
        progs.push_back(loopProgram(p, 4, p == kProcs - 1));
    for (bool fast : {true, false}) {
        MachineConfig cfg = wideConfig("cluster:16");
        cfg.fastForward = fast;
        Machine m(cfg);
        for (int p = 0; p < kProcs; ++p)
            m.loadProgram(p, progs[static_cast<std::size_t>(p)]);
        const RunResult r = m.run();
        ASSERT_TRUE(r.deadlocked) << (fast ? "fast" : "reference");
        EXPECT_NE(r.deadlockInfo.find("barrier deadlock"),
                  std::string::npos);

        std::vector<bool> halted(kProcs, false);
        for (int p = 0; p < kProcs; ++p)
            halted[static_cast<std::size_t>(p)] = m.processor(p).halted();
        EXPECT_TRUE(halted[kProcs - 1]);
        const barrier::DeadlockReport rep =
            m.network().analyzeDeadlock(halted, r.cycles);
        EXPECT_TRUE(rep.deadlocked);
        ASSERT_EQ(rep.stuck.size(), static_cast<std::size_t>(kProcs - 1));
        for (const auto &e : rep.stuck) {
            EXPECT_EQ(e.state, barrier::BarrierState::Stalled);
            ASSERT_EQ(e.unsatisfied.size(), 1u) << "cpu" << e.proc;
            EXPECT_EQ(e.unsatisfied[0], kProcs - 1);
        }
        EXPECT_EQ(rep.stuck.front().proc, 0);
        EXPECT_EQ(rep.stuck.back().proc, kProcs - 2);
    }
}

/** @p procs processors: the first @p active run @p episodes of a
 * hardware fuzzy-barrier loop among themselves, the rest halt. */
std::vector<isa::Program>
barrierLoops(int procs, int active, int episodes, int work, int region)
{
    std::vector<isa::Program> progs;
    for (int p = 0; p < active; ++p)
        progs.push_back(core::buildBarrierLoop(
            core::SimBarrierKind::HardwareFuzzy, active, p, episodes, work,
            region));
    isa::Program halt;
    std::string err;
    EXPECT_TRUE(isa::Assembler::assemble("halt\n", halt, err)) << err;
    progs.resize(static_cast<std::size_t>(procs), halt);
    return progs;
}

TEST(WideTopology, HierarchiesBeatSizeScaledFlatLatency)
{
    // Section 6 scaled up: a flat broadcast's delay grows with the
    // machine (n/16 cycles here), while tree and cluster networks pay
    // one cycle per level they span. From 256 processors up both
    // hierarchies finish an all-processor loop sooner, and the shape
    // moves delivery cycles, never results.
    for (int n : {256, 1024}) {
        const auto progs = barrierLoops(n, n, 4, 16, 4);
        std::uint64_t flat_cycles = 0;
        std::string flat_results;
        for (const char *shape : {"flat", "tree:4", "cluster:16"}) {
            const std::string ctx =
                "n=" + std::to_string(n) + " " + shape;
            MachineConfig cfg;
            cfg.numProcessors = n;
            cfg.memWords = 4096;
            cfg.maxCycles = 2'000'000;
            ASSERT_TRUE(barrier::Topology::parse(shape, cfg.topology));
            cfg.syncLatency =
                cfg.topology.flat() ? static_cast<std::uint32_t>(n / 16)
                                    : 1;
            Machine m(cfg);
            for (int p = 0; p < n; ++p)
                m.loadProgram(p, progs[static_cast<std::size_t>(p)]);
            const RunResult r = m.run();
            ASSERT_FALSE(r.deadlocked || r.timedOut) << ctx;

            std::ostringstream results;
            for (int p = 0; p < n; ++p) {
                results << r.perProcessor[static_cast<std::size_t>(p)]
                               .barrierEpisodes;
                for (int i = 0; i < isa::numRegisters; ++i)
                    results << " " << m.processor(p).reg(i);
                results << "\n";
            }
            if (cfg.topology.flat()) {
                flat_cycles = r.cycles;
                flat_results = results.str();
                continue;
            }
            EXPECT_TRUE(results.str() == flat_results)
                << ctx << ": episodes or registers differ from flat";
            EXPECT_LT(r.cycles, flat_cycles) << ctx;
        }
    }
}

TEST(WideTopology, EngineWorkScalesWithActiveProcessors)
{
    // 16 participants in machines of 16 and 1024 processors, the rest
    // halted: the fast engine does the same work in both, bar the one
    // tick each halted processor takes to halt and its retirement.
    constexpr int kActive = 16;
    auto engineWork = [](int procs) {
        MachineConfig cfg;
        cfg.numProcessors = procs;
        cfg.memWords = 4096;
        cfg.maxCycles = 2'000'000;
        cfg.syncLatency = 1;
        Machine m(cfg);
        const auto progs = barrierLoops(procs, kActive, 300, 200, 8);
        for (int p = 0; p < procs; ++p)
            m.loadProgram(p, progs[static_cast<std::size_t>(p)]);
        const RunResult r = m.run();
        EXPECT_FALSE(r.deadlocked || r.timedOut) << procs;
        return r.engine;
    };
    const EngineStats small = engineWork(kActive);
    const EngineStats wide = engineWork(kProcs);
    EXPECT_EQ(wide.iterations, small.iterations);
    EXPECT_EQ(wide.windows, small.windows);
    EXPECT_EQ(wide.windowCandidates, small.windowCandidates);
    EXPECT_EQ(wide.skippedCycles, small.skippedCycles);
    const std::uint64_t tick_gap =
        std::max(wide.coordinatorTicks, small.coordinatorTicks) -
        std::min(wide.coordinatorTicks, small.coordinatorTicks);
    EXPECT_LE(tick_gap, 2u * (kProcs - kActive))
        << small.coordinatorTicks << " ticks at " << kActive << ", "
        << wide.coordinatorTicks << " at " << kProcs;
}

} // namespace
} // namespace fb::sim
