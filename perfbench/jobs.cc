#include "jobs.hh"

#include <chrono>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "barrier/topology.hh"
#include "compiler/codegen.hh"
#include "compiler/region.hh"
#include "compiler/reorder.hh"
#include "core/barrierprogs.hh"
#include "core/workloads.hh"
#include "exec/sharded_machine.hh"
#include "isa/assembler.hh"
#include "snapshot/format.hh"
#include "spans.hh"
#include "support/random.hh"
#include "verify/generator.hh"

namespace fbperf
{

using namespace fb;

namespace
{

std::uint64_t
fingerprintOf(const SimJob &job, sim::Machine &m, const sim::RunResult &r,
              const std::string &safety)
{
    snapshot::Fnv1a h;
    for (std::uint64_t v :
         {r.cycles, std::uint64_t{r.deadlocked}, std::uint64_t{r.timedOut},
          r.syncEvents, r.busRequests, r.busQueueDelay, r.memAccesses,
          r.hotSpotAccesses, r.invalidationsSent, r.invalidationsAvoided,
          r.correctedFaults, r.watchdogStats.timeouts,
          r.watchdogStats.rearms, r.watchdogStats.deadDeclared,
          std::uint64_t{r.recoveries.size()},
          std::uint64_t{r.membershipViolation.size()},
          std::uint64_t{safety.size()}})
        h.mix(v);
    for (int d : r.deadDeclared)
        h.mix(static_cast<std::uint64_t>(d));
    for (const auto &p : r.perProcessor) {
        for (std::uint64_t v :
             {p.instructions, p.barrierWaitCycles, p.contextSwitchCycles,
              p.contextSwitches, p.interruptsTaken, p.barrierEpisodes,
              p.stalledEpisodes, p.stallCycles, p.cacheHits,
              p.cacheMisses})
            h.mix(v);
    }
    for (int p = 0; p < m.numProcessors(); ++p)
        for (int i = 0; i < isa::numRegisters; ++i)
            h.mix(static_cast<std::uint64_t>(m.processor(p).reg(i)));
    for (auto addr : job.watch)
        h.mix(static_cast<std::uint64_t>(m.memory().peek(addr)));
    return h.value();
}

void
countInstrs(SimJob &job)
{
    job.loadedInstrs = 0;
    for (const auto &p : job.programs)
        job.loadedInstrs += p.size();
}

/** Common machine shape: seeded PRNG, drift, runaway guard. */
sim::MachineConfig
machineConfig(int procs, std::uint64_t machine_seed, double jitter)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = procs;
    cfg.memWords = 1 << 14;
    cfg.maxCycles = 200'000'000;
    cfg.seed = machine_seed;
    cfg.jitterMean = jitter;
    return cfg;
}

/**
 * Every processor runs @p episodes iterations of @p work work
 * instructions and one barrier of @p kind; each stores its work
 * accumulator (episodes * work) to word 4, the exact expected value.
 */
SimJob
barrierLoopJob(const std::string &name, core::SimBarrierKind kind,
               int episodes, int work, int region,
               const sim::MachineConfig &cfg)
{
    SimJob job;
    job.name = name;
    job.cfg = cfg;
    {
        FBPERF_SPAN("core", "buildBarrierLoop");
        for (int p = 0; p < cfg.numProcessors; ++p)
            job.programs.push_back(core::buildBarrierLoop(
                kind, cfg.numProcessors, p, episodes, work, region));
    }
    job.watch = {4};
    job.expect = {static_cast<std::int64_t>(episodes) * work};
    countInstrs(job);
    return job;
}

/** Words @p init leaves non-zero in a scratch memory of @p words. */
std::vector<std::pair<std::size_t, std::int64_t>>
initialWords(std::size_t words,
             const std::function<void(sim::SharedMemory &)> &init)
{
    sim::SharedMemory scratch(words);
    init(scratch);
    std::vector<std::pair<std::size_t, std::int64_t>> out;
    for (std::size_t a = 0; a < words; ++a)
        if (scratch.peek(a) != 0)
            out.emplace_back(a, scratch.peek(a));
    return out;
}

void
countCompiled(SimJob &job)
{
    for (const auto &prog : job.programs) {
        job.compiledInstrs += prog.size();
        for (std::size_t i = 0; i < prog.size(); ++i)
            job.compiledRegionInstrs += prog.at(i).inRegion ? 1 : 0;
    }
}

/** Figs. 3/4 Poisson solver, one processor per interior cell, for
 * @p iters outer iterations. */
SimJob
poissonJob(int m, bool reordered, int iters, std::int64_t boundary,
           const sim::MachineConfig &cfg)
{
    const core::PoissonWorkload wl(m);
    SimJob job;
    job.name = std::string("poisson/m") + std::to_string(m) +
               (reordered ? "/reordered" : "/naive");
    job.cfg = cfg;
    ir::Block body;
    {
        FBPERF_SPAN("core", "PoissonWorkload::naiveBody");
        body = wl.naiveBody();
    }
    if (reordered) {
        FBPERF_SPAN("compiler", "threePhaseReorder");
        body = compiler::threePhaseReorder(body).block;
    } else {
        FBPERF_SPAN("compiler", "assignRegions");
        compiler::assignRegions(body);
    }
    compiler::CodegenOptions opts;
    opts.baseAddresses = {{"P", wl.baseAddr}};
    opts.mask = (1ull << (m * m)) - 1;
    {
        FBPERF_SPAN("compiler", "compileLoop");
        for (int l = 1; l <= m; ++l)
            for (int c = 1; c <= m; ++c)
                job.programs.push_back(compiler::compileLoop(
                    wl.loopSpec(l, c, iters, body), opts));
    }
    job.memInit = initialWords(wl.gridWords(), [&](sim::SharedMemory &mem) {
        wl.initBoundary(mem, boundary);
    });
    for (int r = 1; r <= m; ++r)
        for (int c = 1; c <= m; ++c)
            job.watch.push_back(wl.addrOf(r, c));
    countInstrs(job);
    countCompiled(job);
    return job;
}

/** Figs. 9/10 lexically-forward loop, reordered body; the host
 * reference gives every array word exactly. */
SimJob
lexForwardJob(int n, int j_limit, const sim::MachineConfig &cfg)
{
    const core::LexForwardWorkload wl(n, j_limit);
    SimJob job;
    job.name = "lexforward/n" + std::to_string(n) + "/j" +
               std::to_string(j_limit);
    job.cfg = cfg;
    compiler::CodegenOptions opts;
    opts.baseAddresses = {{"a", wl.baseAddr}};
    opts.mask = (1ull << n) - 1;
    ir::Block body;
    {
        FBPERF_SPAN("core", "LexForwardWorkload::reorderedBody");
        body = wl.reorderedBody();
    }
    {
        FBPERF_SPAN("compiler", "compileLoop");
        for (int p = 0; p < n; ++p)
            job.programs.push_back(
                compiler::compileLoop(wl.loopSpec(p + 1, body), opts));
    }
    job.memInit = initialWords(wl.arrayWords(), [&](sim::SharedMemory &mem) {
        wl.initArray(mem);
    });
    const auto ref = wl.reference();
    for (std::size_t a = 0; a < ref.size(); ++a) {
        job.watch.push_back(a + static_cast<std::size_t>(wl.baseAddr));
        job.expect.push_back(ref[a]);
    }
    countInstrs(job);
    countCompiled(job);
    return job;
}

/**
 * Memory-streaming kernel, written as fbasm: each processor sweeps its
 * own @p block words per episode (load, accumulate, increment, store
 * back), then synchronizes through a fuzzy barrier. Episode e reads
 * value e from every word, so each processor's sum is exactly
 * block * E(E-1)/2 and every word ends at E.
 */
SimJob
streamJob(int procs, int block, int episodes, const sim::MachineConfig &cfg)
{
    constexpr std::size_t kData = 1024;
    constexpr std::size_t kResults = 512;
    SimJob job;
    job.name = "stream/p" + std::to_string(procs) + "/b" +
               std::to_string(block);
    job.cfg = cfg;
    for (int p = 0; p < procs; ++p) {
        std::ostringstream src;
        src << "settag 1\n"
            << "setmask " << ((1ll << procs) - 1) << "\n"
            << "li r1, 0\n"
            << "li r2, " << episodes << "\n"
            << "li r5, " << kData + static_cast<std::size_t>(p * block)
            << "\n"
            << "li r8, " << block << "\n"
            << "loop:\n"
            << "li r6, 0\n"
            << "inner:\n"
            << "add r9, r5, r6\n"
            << "ld r10, 0(r9)\n"
            << "add r3, r3, r10\n"
            << "addi r10, r10, 1\n"
            << "st r10, 0(r9)\n"
            << "addi r6, r6, 1\n"
            << "bne r6, r8, inner\n"
            << ".region 1\n"
            << "addi r4, r4, 1\n"
            << "addi r4, r4, 1\n"
            << "addi r1, r1, 1\n"
            << "bne r1, r2, loop\n"
            << ".endregion\n"
            << "st r3, " << kResults + static_cast<std::size_t>(p)
            << "(r0)\n"
            << "halt\n";
        isa::Program prog;
        std::string err;
        bool ok = false;
        {
            FBPERF_SPAN("isa", "Assembler::assemble");
            ok = isa::Assembler::assemble(src.str(), prog, err);
        }
        if (!ok)
            throw std::runtime_error("stream kernel: " + err);
        job.programs.push_back(std::move(prog));
        job.watch.push_back(kResults + static_cast<std::size_t>(p));
        job.expect.push_back(static_cast<std::int64_t>(block) * episodes *
                             (episodes - 1) / 2);
    }
    const std::size_t words = static_cast<std::size_t>(procs * block);
    for (std::size_t a = 0; a < words; a += 97) {
        job.watch.push_back(kData + a);
        job.expect.push_back(episodes);
    }
    countInstrs(job);
    return job;
}

barrier::Topology
topology(const char *spec)
{
    barrier::Topology t;
    if (!barrier::Topology::parse(spec, t))
        throw std::runtime_error(std::string("bad topology ") + spec);
    return t;
}

/*
 * Job sets. The shapes (processor counts, work and region lengths,
 * topologies) are fixed grids, so every seed loads the simulator
 * alike; the seed draws the machines' drift streams and the episode
 * counts. Jobs run round-robin, and each set has 3 or 15 jobs so that
 * the p50 and p90 of the job times fall inside one job's band rather
 * than on the edge between two.
 */

/** e7/e8/e15 regime: an episode every few cycles on 64 processors. */
void
syncDense(std::uint64_t seed, std::vector<SimJob> &jobs)
{
    RandomSource rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    constexpr int works[] = {2,  3,  4,  5,  6,  8,  10, 12,
                             14, 17, 20, 24, 28, 32, 36};
    for (int j = 0; j < 15; ++j) {
        const int work = works[j];
        const int region = 1 + (j % 3) * 2;
        const int episodes = 1000 + static_cast<int>(rng.nextRange(0, 40));
        auto cfg = machineConfig(64, rng.next(), j % 2 ? 0.25 : 0.5);
        cfg.busKind = sim::BusKind::Banked;
        jobs.push_back(barrierLoopJob(
            "fuzzy/p64/w" + std::to_string(work) + "/r" +
                std::to_string(region),
            core::SimBarrierKind::HardwareFuzzy, episodes, work, region,
            cfg));
    }
}

/** e22a regime: 1024 active processors, few episodes per job. */
void
wide1024(std::uint64_t seed, std::vector<SimJob> &jobs)
{
    RandomSource rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    const char *shapes[] = {"flat", "tree:4", "cluster:16"};
    for (const char *shape : shapes) {
        const auto topo = topology(shape);
        auto cfg = machineConfig(1024, rng.next(), 0.25);
        cfg.memWords = 1 << 12;
        cfg.topology = topo;
        // As in e22: the flat network's broadcast latency grows with
        // the machine, the hierarchical shapes pay per level instead.
        cfg.syncLatency = topo.flat() ? 64 : 1;
        jobs.push_back(barrierLoopJob(
            std::string("fuzzy/p1024/") + shape,
            core::SimBarrierKind::HardwareFuzzy, 2, 16, 3, cfg));
    }
}

/**
 * e2-e6/e14 regime: long private windows, rare network episodes.
 * Drift (execution jitter) only where the paper uses it, on one long
 * loop and the Poisson solvers; the rest run the jitter-free dispatch
 * path. The sizes put the jobs' host times roughly 1.2x apart, evenly
 * in log time, so the p50 and p90 of the mix move smoothly when the
 * host slows down instead of jumping between clustered jobs.
 */
void
kernels(std::uint64_t seed, std::vector<SimJob> &jobs)
{
    RandomSource rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    auto vary = [&rng](int n) {
        return n + static_cast<int>(rng.nextRange(0, 1));
    };
    const struct
    {
        int work, episodes;
        double jitter;
    } loops[] = {{1000, 30, 0.0}, {1300, 28, 0.0}, {1600, 30, 0.0},
                 {1900, 16, 0.5}};
    for (const auto &l : loops)
        jobs.push_back(barrierLoopJob(
            "fuzzy/p16/w" + std::to_string(l.work),
            core::SimBarrierKind::HardwareFuzzy, vary(l.episodes), l.work,
            8 + l.work / 150, machineConfig(16, rng.next(), l.jitter)));
    for (auto [m, reordered, iters] :
         {std::tuple{3, true, 39}, {3, false, 45}, {4, false, 40},
          {4, true, 47}})
        jobs.push_back(poissonJob(m, reordered, vary(iters),
                                  1000 + rng.nextRange(0, 999),
                                  machineConfig(m * m, rng.next(), 0.5)));
    for (auto [n, jl] : {std::pair{8, 48}, {16, 22}, {16, 58}})
        jobs.push_back(
            lexForwardJob(n, jl, machineConfig(n, rng.next(), 0.0)));
    for (auto [kind, episodes] :
         {std::pair{core::SimBarrierKind::Centralized, 30},
          {core::SimBarrierKind::Dissemination, 18}})
        jobs.push_back(barrierLoopJob(
            std::string(core::simBarrierKindName(kind)) + "/p16", kind,
            vary(episodes), 160, 0, machineConfig(16, rng.next(), 0.0)));
    for (auto [procs, block, episodes] :
         {std::tuple{4, 512, 11}, {8, 256, 14}})
        jobs.push_back(streamJob(procs, block, vary(episodes),
                                 machineConfig(procs, rng.next(), 0.0)));
}

} // namespace

SimOutcome
runSimJob(const SimJob &job, const RunMode &mode)
{
    sim::MachineConfig cfg = job.cfg;
    cfg.fastForward = mode.fastForward;
    cfg.recordSyncEvents = mode.recordSyncEvents;
    if (!job.faults.empty())
        cfg.faultPlan = &job.faults;
    if (mode.shards >= 2) {
        cfg.shardCount = mode.shards;
        cfg.shardQuantum = 1024;
    }
    SimOutcome out;
    std::unique_ptr<sim::Machine> m;
    {
        FBPERF_SPAN("sim", "Machine::Machine");
        m = std::make_unique<sim::Machine>(cfg);
        for (const auto &[addr, value] : job.memInit)
            m->memory().poke(addr, value);
    }
    {
        FBPERF_SPAN("sim", "Machine::loadProgram");
        for (std::size_t p = 0; p < job.programs.size(); ++p)
            m->loadProgram(static_cast<int>(p), job.programs[p]);
    }
    if (mode.shards >= 2) {
        FBPERF_SPAN("exec", "ShardedMachine::run");
        exec::ShardedMachine sharded(*m);
        out.result = sharded.run();
    } else {
        FBPERF_SPAN("sim", "Machine::run");
        out.result = m->run();
    }
    std::string safety;
    if (mode.recordSyncEvents) {
        FBPERF_SPAN("sim", "Machine::checkSafetyProperty");
        safety = m->checkSafetyProperty();
    }
    {
        FBPERF_SPAN("bench", "checkJob");
        const auto &r = out.result;
        std::ostringstream why;
        if (r.deadlocked)
            why << "deadlocked; ";
        if (r.timedOut)
            why << "timed out; ";
        if (!safety.empty())
            why << "safety: " << safety << "; ";
        if (!r.membershipViolation.empty())
            why << "membership: " << r.membershipViolation << "; ";
        for (std::size_t i = 0; i < job.expect.size(); ++i) {
            const auto got = m->memory().peek(job.watch[i]);
            if (got != job.expect[i]) {
                why << "word " << job.watch[i] << " = " << got
                    << ", expected " << job.expect[i] << "; ";
                break;
            }
        }
        out.failure = why.str();
        out.fingerprint = fingerprintOf(job, *m, r, safety);
    }
    {
        FBPERF_SPAN("sim", "Machine::~Machine");
        m.reset();
    }
    return out;
}

void
buildSimJobs(const std::string &workload, std::uint64_t seed,
             std::vector<SimJob> &jobs)
{
    jobs.clear();
    if (workload == "sync-dense")
        syncDense(seed, jobs);
    else if (workload == "wide-1024")
        wide1024(seed, jobs);
    else
        kernels(seed, jobs);
}

bool
scenarioFaulted(std::uint64_t index)
{
    return index % 2 == 1;
}

namespace
{

/** The spec of campaign item @p index: fbfuzz's generation, with a
 * fault plan and the watchdog on faulted items (`fbfuzz --faults`). */
verify::ProgramSpec
scenarioSpec(std::uint64_t spec_seed, bool faulted)
{
    verify::ProgramSpec spec;
    {
        FBPERF_SPAN("verify", "randomSpec");
        spec = verify::randomSpec(spec_seed);
    }
    if (faulted) {
        FBPERF_SPAN("fault", "randomFaultPlan");
        spec.faults = fault::randomFaultPlan(spec_seed, spec.procs(),
                                             spec.groupSizes);
        spec.faultSeed = spec_seed;
        // Any plan with a fatal fault needs the watchdog to recover.
        spec.watchdog.enabled = true;
        spec.watchdog.timeoutCycles = 2000;
        spec.watchdog.maxAttempts = 3;
    }
    return spec;
}

/** What campaign slot i asks of its scenario. */
struct SlotClass
{
    bool faulted = false;
    bool fatal = false; ///< the plan holds a fatal fault
    /** The watchdog must declare the victim dead (fatal slots only;
     * the others must finish without a death). */
    bool dies = false;
    bool deathByKill = false; ///< else by a silent (forever) freeze
    int procs = 0;
    int longRun = -1; ///< 1: 6-10 episodes, 0: 1-5, -1: any
    bool oneGroup = false;
};

SlotClass
slotClass(std::uint64_t i)
{
    SlotClass c;
    c.faulted = scenarioFaulted(i);
    c.fatal = c.faulted && (i / 2) % 2 == 0;
    // Watchdog deaths are pinned to their natural mix, so that the
    // seed does not move the simulated metrics through them. Over
    // 40,000 faulted specs (randomSpec + randomFaultPlan + watchdog
    // 2000/3, baseline run) 3.2% ended with a declared death: 70% by
    // kill, 30% by freeze, 82% in one-group machines. A death stalls
    // each survivor of the victim's group ~2,000 cycles (kill) or
    // ~14,000 (freeze), so its cost is set by that group's size. Here
    // 9 of 288 faulted slots die, 6 by kill and 3 by freeze, each in a
    // one-group machine whose size is the victim group size at evenly
    // spaced quantiles of its measured distribution for that kind.
    constexpr int killProcs[] = {2, 2, 3, 4, 5, 7};
    constexpr int freezeProcs[] = {2, 4, 6};
    c.deathByKill = i % 96 == 1;
    c.dies = c.deathByKill || i % 192 == 5;
    if (c.dies) {
        c.procs = c.deathByKill ? killProcs[i / 96] : freezeProcs[i / 192];
        c.oneGroup = true;
    } else {
        c.procs = 2 + static_cast<int>((i / 4) % 6);
        c.longRun = static_cast<int>((i / 24) % 2);
    }
    return c;
}

bool
matches(const SlotClass &c, std::uint64_t spec_seed)
{
    const verify::ProgramSpec spec = scenarioSpec(spec_seed, c.faulted);
    if (spec.procs() != c.procs ||
        (c.longRun >= 0 && (spec.episodes > 5) != (c.longRun == 1)) ||
        (c.oneGroup && spec.groups() != 1) ||
        spec.faults.hasFatal() != c.fatal)
        return false;
    if (!c.fatal)
        return true;
    if (c.dies) {
        for (const auto &e : spec.faults.events)
            if (e.fatal() &&
                (e.kind == fault::FaultKind::Kill) != c.deathByKill)
                return false;
    }
    const SimOutcome out =
        runSimJob(scenarioBaselineJob(verify::render(spec)));
    return out.result.deadDeclared.empty() != c.dies;
}

/** Why the program fails faulted scenario @p sc: what a timed pass
 * and the reference probe check (empty if it passes). */
std::string
faultedFailure(const verify::Scenario &sc)
{
    const verify::DiffReport rep =
        verify::runDifferential(sc, campaignDiffOptions());
    if (!rep.ok)
        return rep.variant + ": " + rep.failure;
    const SimJob job = scenarioBaselineJob(sc);
    const SimOutcome fast = runSimJob(job);
    RunMode reference;
    reference.fastForward = false;
    if (runSimJob(job, reference).fingerprint != fast.fingerprint)
        return "baseline: fast engine differs from the per-cycle "
               "reference";
    return "";
}

} // namespace

FuzzSet
makeFuzzSet(std::uint64_t seed)
{
    // 12 rounds of the 48 slot classes; a freeze-death slot matches
    // about one seed in 600.
    constexpr std::uint64_t kCount = 576;
    constexpr std::uint64_t kRange = 16384;
    const std::uint64_t base = 1 + seed * 1'000'000'007ULL;
    FuzzSet set;
    for (std::uint64_t i = 0; i < kCount; ++i) {
        const SlotClass c = slotClass(i);
        for (std::uint64_t k = 0;; ++k) {
            if (k == kRange)
                throw std::runtime_error("no scenario of slot class " +
                                         std::to_string(i));
            const std::uint64_t s = base + i * kRange + k;
            if (!matches(c, s))
                continue;
            if (c.faulted) {
                const std::string why =
                    faultedFailure(verify::render(scenarioSpec(s, true)));
                if (!why.empty()) {
                    set.screened.push_back("scenario " + std::to_string(s) +
                                           ": " + why);
                    continue;
                }
            }
            set.specSeeds.push_back(s);
            break;
        }
    }
    return set;
}

verify::Scenario
generateScenario(const FuzzSet &set, std::uint64_t index)
{
    const verify::ProgramSpec spec =
        scenarioSpec(set.specSeeds[index], scenarioFaulted(index));
    FBPERF_SPAN("verify", "render");
    return verify::render(spec);
}

verify::DiffOptions
campaignDiffOptions()
{
    verify::DiffOptions d;
    // The real-thread reference spawns up to 7 spinning threads per
    // scenario; the benchmark stays single-threaded.
    d.swBarrierReference = false;
    return d;
}

SimJob
scenarioBaselineJob(const verify::Scenario &sc)
{
    const verify::DiffOptions d = campaignDiffOptions();
    SimJob job;
    job.name = "scenario/" + std::to_string(sc.genSeed);
    job.cfg.numProcessors = sc.procs();
    job.cfg.memWords = d.memWords;
    job.cfg.maxCycles = d.maxCycles;
    job.cfg.topology = d.topology;
    job.cfg.interruptPeriod = sc.interruptPeriod;
    job.cfg.isrEntry = sc.isrEntry;
    if (sc.hasFaults()) {
        job.faults = sc.faults;
        job.cfg.watchdog = sc.watchdog;
    }
    for (const auto &source : sc.sources) {
        isa::Program prog;
        std::string err;
        bool ok = false;
        {
            FBPERF_SPAN("isa", "Assembler::assemble");
            ok = isa::Assembler::assemble(source, prog, err);
            if (ok && sc.encoding == verify::Encoding::Markers)
                prog = prog.toMarkerEncoding();
        }
        if (!ok)
            throw std::runtime_error(job.name + ": " + err);
        job.programs.push_back(std::move(prog));
    }
    job.watch = sc.watchAddrs;
    countInstrs(job);
    return job;
}

exec::CampaignStats
runFuzzPass(const FuzzSet &set, const verify::DiffOptions &opt,
            std::vector<FuzzResult> &out)
{
    out.assign(set.count(), FuzzResult{});
    exec::CampaignOptions copt;
    copt.jobs = 1;
    FBPERF_SPAN("exec", "runCampaign");
    return exec::runCampaign(
        set.count(), copt,
        [&](std::uint64_t i, exec::WorkerContext &ctx) {
            tracer().nextJob();
            const auto start = std::chrono::steady_clock::now();
            FBPERF_SPAN("bench", "scenario");
            const verify::Scenario sc = generateScenario(set, i);
            verify::DiffOptions d = opt;
            d.machinePool = &ctx.machines;
            d.programCache = &ctx.programs;
            verify::DiffReport rep;
            {
                FBPERF_SPAN("verify", "runDifferential");
                rep = verify::runDifferential(sc, d);
            }
            FuzzResult &fr = out[i];
            fr.ok = rep.ok;
            fr.baselineHash = rep.baseline.hash();
            fr.variants = rep.variantsRun;
            if (!rep.ok)
                fr.failure = rep.variant + ": " + rep.failure;
            fr.hostUs = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            exec::ItemResult r;
            r.failed = !rep.ok;
            return r;
        },
        [](std::uint64_t, const exec::ItemResult &) {});
}

} // namespace fbperf
