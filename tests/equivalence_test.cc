/**
 * @file
 * Differential equivalence suite for the two engines (INTERNALS
 * section 14): every counter in RunResult must be bit-identical
 * between the windowed engine (MachineConfig::fastForward = true) and
 * the per-cycle reference loop, across a large population of
 * fuzz-generated programs — including fault-plan and
 * watchdog-recovery runs — and across the machine's timing knobs
 * (pipeline depth, stall model, jitter, multi-issue, sync latency,
 * interrupts). The corpus driver (knobs, config assembly, run
 * observer, exact-match oracle) lives in tests/harness.hh, shared
 * with the sharded and campaign suites.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "barrier/topology.hh"
#include "core/barrierprogs.hh"
#include "exec/machine_pool.hh"
#include "exec/program_cache.hh"
#include "fault/plan.hh"
#include "harness.hh"
#include "sim/machine.hh"
#include "verify/generator.hh"
#include "verify/scenario.hh"

namespace
{

using namespace fb;
using namespace fb::harness;

/**
 * Run @p sc under the per-cycle reference loop (the oracle), then on
 * the fast engine at shard counts 1 and 4, and require every run
 * bit-identical to the reference.
 */
void
checkAgainstReference(const verify::Scenario &sc,
                      const std::vector<isa::Program> &programs,
                      const Knobs &k, const std::string &ctx,
                      exec::MachinePool *pool = nullptr,
                      std::uint64_t machine_seed = 42)
{
    sim::MachineConfig ref_cfg = configFor(sc, k, false);
    ref_cfg.seed = machine_seed;
    const Observation reference = runOnce(sc, programs, ref_cfg, pool);
    for (int shards : {1, 4}) {
        sim::MachineConfig cfg = configFor(sc, k, true, shards);
        cfg.seed = machine_seed;
        expectIdentical(runOnce(sc, programs, cfg, pool), reference,
                        ctx + " [fast shards=" + std::to_string(shards) +
                            "]");
    }
}

/** One corpus seed's scenario, reference against fast engine. */
void
checkSeed(std::uint64_t seed, bool with_faults,
          exec::MachinePool *pool = nullptr,
          exec::ProgramCache *cache = nullptr)
{
    verify::ProgramSpec spec = verify::randomSpec(seed);
    verify::Scenario sc = verify::render(spec);
    if (with_faults)
        attachFaults(sc, corpusFaultSeed(seed));
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs, cache)) << "seed " << seed;
    const Knobs k = knobsFor(seed);
    checkAgainstReference(sc, programs, k,
                          describeSeed(seed, with_faults, k), pool);
}

TEST(Equivalence, FastForwardMatchesLegacyOnFuzzPrograms)
{
    // The sweep runs on pooled machines: every seed after the first
    // exercises Machine::reset() reuse on top of the core comparison.
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= kFaultFreeSeeds; ++seed)
        checkSeed(seed, false, &pool, &cache);
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, FastForwardMatchesLegacyUnderFaults)
{
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= kFaultSeeds; ++seed)
        checkSeed(seed, true, &pool, &cache);
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, TopologySweepPreservesResults)
{
    // Hierarchical barrier topologies move delivery *cycles*, never
    // results: over a slice of the fuzz corpus, flat vs tree vs
    // cluster must agree on every per-processor episode count, the
    // differ's timing-invariant register set, and the safety oracle.
    // (Cycle counts legitimately differ — that is the point of the
    // topology — so the full bit-identity oracle does not apply.)
    constexpr int kDiffedRegs[] = {1, 2, 3, 4, 5, 6, 25};
    exec::MachinePool pool;
    exec::ProgramCache cache;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        verify::ProgramSpec spec = verify::randomSpec(seed);
        verify::Scenario sc = verify::render(spec);
        std::vector<isa::Program> programs;
        ASSERT_TRUE(assemblePrograms(sc, programs, &cache))
            << "seed " << seed;
        Knobs k = knobsFor(seed);
        const sim::MachineConfig cfg = configFor(sc, k, true);
        Observation flat = runOnce(sc, programs, cfg, &pool);
        ASSERT_FALSE(flat.result.deadlocked) << "seed " << seed;
        ASSERT_FALSE(flat.result.timedOut) << "seed " << seed;

        for (const char *name : {"tree:4", "cluster:8", "tree:2:3"}) {
            sim::MachineConfig tcfg = cfg;
            ASSERT_TRUE(barrier::Topology::parse(name, tcfg.topology));
            Observation obs = runOnce(sc, programs, tcfg, &pool);
            const std::string ctx =
                describeSeed(seed, false, k) + " [" + name + "]";
            EXPECT_EQ(obs.result.deadlocked, flat.result.deadlocked)
                << ctx;
            EXPECT_EQ(obs.result.timedOut, flat.result.timedOut) << ctx;
            EXPECT_EQ(obs.safety, flat.safety) << ctx;
            ASSERT_EQ(obs.result.perProcessor.size(),
                      flat.result.perProcessor.size())
                << ctx;
            for (std::size_t p = 0; p < obs.regs.size(); ++p) {
                EXPECT_EQ(obs.result.perProcessor[p].barrierEpisodes,
                          flat.result.perProcessor[p].barrierEpisodes)
                    << ctx << " cpu" << p;
                for (int r : kDiffedRegs)
                    EXPECT_EQ(
                        obs.regs[p][static_cast<std::size_t>(r)],
                        flat.regs[p][static_cast<std::size_t>(r)])
                        << ctx << " cpu" << p << " r" << r;
            }
        }
    }
    EXPECT_GT(pool.reuses(), 0u);
}

TEST(Equivalence, CoversWatchdogRecovery)
{
    // The fault population must actually exercise the watchdog +
    // mask-shrink recovery path (fatal faults that fence a processor)
    // or the fault-mode half of the suite proves nothing.
    int recoveries = 0;
    for (std::uint64_t seed = 1; seed <= kFaultSeeds; ++seed) {
        fault::FaultPlan plan = fault::randomFaultPlan(
            corpusFaultSeed(seed), verify::randomSpec(seed).procs(),
            verify::randomSpec(seed).groupSizes);
        if (plan.hasFatal())
            ++recoveries;
    }
    EXPECT_GE(recoveries, 10)
        << "fault-seed population exercises too few fatal plans";
}

TEST(Equivalence, DeadlockDetectionMatches)
{
    // Mismatched tags deadlock (the paper's Fig. 2 scenario); both
    // cores must report it at the identical cycle with the identical
    // diagnosis, even though a fast-forward skip could be tempted to
    // jump past the no-progress cycle.
    verify::Scenario sc;
    sc.groupSizes = {2};
    sc.episodes = 1;
    sc.sources = {
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\nnop\n"
        "halt\n",
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\n"
        "settag 2\n.region\nnop\n.endregion\nnop\nhalt\n",
    };
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs));
    Knobs k;
    Observation ff = runOnce(sc, programs, k, true);
    Observation legacy = runOnce(sc, programs, k, false);
    EXPECT_TRUE(legacy.result.deadlocked);
    expectIdentical(ff, legacy, "fig2-deadlock");
}

TEST(Equivalence, SkipAfterRecoveryMatchesReference)
{
    // Fault-plan scenarios as fbfuzz --faults derives them (fault
    // seed = spec seed, watchdog 2000 cycles / 3 attempts) on the
    // differ's baseline machine. In each, the watchdog fences a
    // processor and the shrunk mask completes the survivors' group
    // at the very next evaluate(). The fast engine once skipped that
    // cycle, because survivors had run one private tick ahead in the
    // recovery cycle's window, and ended one cycle late. Seed
    // 607003166603 (plan kill@143:1) recovers at cycle 2132.
    for (std::uint64_t seed : {248ull, 5389ull, 36888ull, 607003166603ull}) {
        verify::Scenario sc = verify::render(verify::randomSpec(seed));
        attachFaults(sc, seed);
        std::vector<isa::Program> programs;
        ASSERT_TRUE(assemblePrograms(sc, programs)) << "seed " << seed;
        const Knobs k;
        checkAgainstReference(sc, programs, k,
                              describeSeed(seed, true, k), nullptr,
                              /*machine_seed=*/1);
    }
}

TEST(Equivalence, FastEngineSkipsBroadcastWaits)
{
    // 64 processors in a hardware fuzzy-barrier loop behind a slow
    // broadcast network (section 6's large-machine regime): almost
    // every cycle is spent with every core stalled on the propagation
    // delay. The fast engine must jump those waits rather than step
    // them, in few run-loop iterations, and land on the reference's
    // exact results.
    constexpr int kProcs = 64;
    struct Stress
    {
        std::uint32_t syncLatency;
        int episodes;
    };
    for (const Stress &stress : {Stress{1024, 200}, Stress{2048, 150}}) {
        const std::string ctx =
            "syncLatency " + std::to_string(stress.syncLatency);
        std::vector<isa::Program> programs;
        for (int p = 0; p < kProcs; ++p)
            programs.push_back(core::buildBarrierLoop(
                core::SimBarrierKind::HardwareFuzzy, kProcs, p,
                stress.episodes, /*work_instrs=*/10, /*region_instrs=*/4));
        sim::MachineConfig cfg;
        cfg.numProcessors = kProcs;
        cfg.memWords = 1 << 14;
        cfg.maxCycles = 500'000'000;
        cfg.syncLatency = stress.syncLatency;
        sim::Machine fast_machine(cfg);
        const Observation fast = observeRun(kProcs, programs, fast_machine);
        cfg.fastForward = false;
        sim::Machine ref_machine(cfg);
        const Observation ref = observeRun(kProcs, programs, ref_machine);
        expectIdentical(fast, ref, ctx);

        const std::uint64_t cycles = fast.result.cycles;
        const sim::EngineStats &engine = fast.result.engine;
        EXPECT_FALSE(fast.result.deadlocked || fast.result.timedOut) << ctx;
        EXPECT_GE(engine.skippedCycles * 100, cycles * 99)
            << ctx << ": skipped " << engine.skippedCycles << " of "
            << cycles << " cycles";
        EXPECT_LE(engine.iterations * 100, cycles)
            << ctx << ": " << engine.iterations << " iterations for "
            << cycles << " cycles";
    }
}

TEST(Equivalence, TimeoutMatches)
{
    // A processor spinning forever must hit the maxCycles guard at
    // the same cycle in both cores (the fast-forward clamp must not
    // overshoot the guard).
    verify::Scenario sc;
    sc.groupSizes = {2};
    sc.episodes = 1;
    sc.sources = {
        "settag 1\nsetmask 3\nli r1, 0\nloop:\naddi r1, r1, 1\n"
        "jmp loop\n",
        "settag 1\nsetmask 3\n.region\nnop\n.endregion\nnop\n"
        "halt\n",
    };
    std::vector<isa::Program> programs;
    ASSERT_TRUE(assemblePrograms(sc, programs));
    Knobs k;
    sim::MachineConfig cfg_ff = configFor(sc, k, true);
    sim::MachineConfig cfg_legacy = configFor(sc, k, false);
    cfg_ff.maxCycles = cfg_legacy.maxCycles = 5000;

    sim::Machine m_ff(cfg_ff);
    sim::Machine m_legacy(cfg_legacy);
    for (int p = 0; p < sc.procs(); ++p) {
        m_ff.loadProgram(p, programs[static_cast<std::size_t>(p)]);
        m_legacy.loadProgram(p, programs[static_cast<std::size_t>(p)]);
    }
    auto ra = m_ff.run();
    auto rb = m_legacy.run();
    EXPECT_TRUE(rb.timedOut);
    EXPECT_EQ(ra.timedOut, rb.timedOut);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.cycles, 5000u);
}

} // namespace
