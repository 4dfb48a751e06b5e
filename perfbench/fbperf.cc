/**
 * @file
 * fbperf: the repository benchmark.
 *
 *   fbperf --workload W --seed N --seconds S --trace 0|1 [--trace-out F]
 *
 *   fbperf --workload W --seed N --setup-only 1
 *
 * Workloads: sync-dense, wide-1024, kernels, fuzz-campaign (see
 * perfbench/README.md for why each exists). The run builds its inputs
 * from the seed and warms up (set-up, timed from process start to the
 * first timed job), runs jobs back to back for S seconds, then checks
 * every job against the per-cycle reference engine outside the timed
 * section. Host-time metrics are taken at each job's median run time
 * and scaled to a reference host speed (see HostProbe). It prints each
 * metric with its unit and sample count, a digest of the simulated
 * results, and as its last line one JSON object. With --setup-only 1
 * it stops after set-up and prints only {"setup_s": ...}.
 *
 * With --trace 1 the timed loop is split: the first half runs with
 * tracing off, the second with spans around every layer call, so the
 * two halves' end-to-end metrics give the tracing overhead. Pricing
 * passes then re-run the jobs with one mechanism switched off or
 * changed. The spans are written to F as Chrome trace-event JSON and
 * folded into the per-layer metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "jobs.hh"
#include "snapshot/format.hh"
#include "spans.hh"
#include "support/logging.hh"

namespace
{

using namespace fbperf;
using Clock = std::chrono::steady_clock;

const Clock::time_point processStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/**
 * Host-speed probe. A shared host runs this simulator up to 1.7x slower
 * for seconds to minutes at a time, while other tenants load it; a
 * fixed std::find scan of 1 MiB slows with it (in two runs of four and
 * five minutes of kernels rounds, 25-second windows of round time
 * ranged 1.30x and 1.29x, of round time over scan time 1.04x and
 * 1.12x). The scan is the
 * benchmark's own code, which no change to the program can speed up,
 * so host-time metrics are reported at the host speed at which a scan
 * takes kProbeRefUs: measured times are scaled by kProbeRefUs over the
 * median scan time of the same run (see timeScale).
 */
class HostProbe
{
  public:
    /** Minimum spacing of the samples taken during a timed loop. */
    static constexpr auto kEvery = std::chrono::milliseconds(50);

    HostProbe() : _data(1 << 18)
    {
        std::iota(_data.begin(), _data.end(), 0);
        scan(); // first touch, untimed
    }

    /** Time one scan, in microseconds. */
    double
    sampleUs()
    {
        const auto t0 = Clock::now();
        scan();
        _last = Clock::now();
        return std::chrono::duration<double, std::micro>(_last - t0)
            .count();
    }

    /** Time one scan into @p out if kEvery has passed since the last. */
    void
    sampleEvery(std::vector<double> &out)
    {
        if (Clock::now() - _last >= kEvery)
            out.push_back(sampleUs());
    }

  private:
    void
    scan()
    {
        std::ptrdiff_t found = 0;
        for (int r = 0; r < 16; ++r)
            found += std::find(_data.begin(), _data.end(),
                               static_cast<int>(_data.size()) - 1 - r) -
                     _data.begin();
        _sink = found;
    }

    std::vector<int> _data;
    volatile std::ptrdiff_t _sink = 0;
    Clock::time_point _last;
};

/** Scan time of the reference host speed: the median scan of a 4-vCPU
 * Xeon KVM guest over a quarter hour of benchmark runs. */
constexpr double kProbeRefUs = 1800;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    std::string traceOut = "fbperf-trace.json";
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
};

using Metrics = std::vector<Metric>;

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** Factor that takes a host time measured while the probe scans took
 * @p probe_us to the reference host speed. */
double
timeScale(const std::vector<double> &probe_us)
{
    return probe_us.empty() ? 1 : kProbeRefUs / quantile(probe_us, 0.5);
}

/** Sums over the jobs of one timed loop. */
struct LoopTotals
{
    /** Host time of every run, in run order. */
    std::vector<double> jobUs;
    /** Host times of the runs of each distinct job. */
    std::vector<std::vector<double>> runsUs;
    /** Simulated instructions and cycles of one run of each job. */
    std::vector<std::uint64_t> jobInstrs, jobCycles;
    /** Host-speed probe scans taken between the jobs. */
    std::vector<double> probeUs;
    std::uint64_t failed = 0;
    /** Failed runs of each distinct job. */
    std::vector<std::uint64_t> runsFailed;
    std::uint64_t instrs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loadedInstrs = 0;
    std::uint64_t syncEvents = 0;
    std::uint64_t procEpisodes = 0;
    std::uint64_t stalledEpisodes = 0;
    std::uint64_t waitCycles = 0;
    // fuzz-campaign only
    std::uint64_t variants = 0;
    fb::exec::CampaignStats campaign;

    explicit LoopTotals(std::size_t jobs = 0)
        : runsUs(jobs), jobInstrs(jobs, 0), jobCycles(jobs, 0),
          runsFailed(jobs, 0)
    {
    }

    /** One run of job @p k took @p us of host time. */
    void
    record(std::size_t k, double us)
    {
        jobUs.push_back(us);
        runsUs[k].push_back(us);
    }

    /** Job @p k failed a check made after the loop: every run of it
     * that has not failed yet fails now. */
    void
    failAfter(std::size_t k)
    {
        failed += runsUs[k].size() - runsFailed[k];
        runsFailed[k] = runsUs[k].size();
    }

    void
    add(const fb::sim::RunResult &r, const SimJob &job)
    {
        instrs += instrsOf(r);
        cycles += r.cycles;
        loadedInstrs += job.loadedInstrs;
        syncEvents += r.syncEvents;
        for (const auto &p : r.perProcessor) {
            procEpisodes += p.barrierEpisodes;
            stalledEpisodes += p.stalledEpisodes;
            waitCycles += p.barrierWaitCycles;
        }
    }

    static std::uint64_t
    instrsOf(const fb::sim::RunResult &r)
    {
        std::uint64_t n = 0;
        for (const auto &p : r.perProcessor)
            n += p.instructions;
        return n;
    }
};

/** Exact simulated properties of the distinct job set. */
struct SimTotals
{
    std::uint64_t jobs = 0;
    std::uint64_t cycles = 0;
    std::uint64_t procCycles = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t busRequests = 0;
    std::uint64_t busQueueDelay = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t invalSent = 0;
    std::uint64_t invalAvoided = 0;
    std::uint64_t deadDeclared = 0;
    std::uint64_t compiledInstrs = 0;
    std::uint64_t compiledRegionInstrs = 0;

    void
    add(const fb::sim::RunResult &r, const SimJob &job)
    {
        ++jobs;
        cycles += r.cycles;
        procCycles += r.cycles * r.perProcessor.size();
        memAccesses += r.memAccesses;
        busRequests += r.busRequests;
        busQueueDelay += r.busQueueDelay;
        invalSent += r.invalidationsSent;
        invalAvoided += r.invalidationsAvoided;
        deadDeclared += r.deadDeclared.size();
        for (const auto &p : r.perProcessor) {
            stallCycles += p.stallCycles;
            cacheHits += p.cacheHits;
            cacheAccesses += p.cacheHits + p.cacheMisses;
        }
        compiledInstrs += job.compiledInstrs;
        compiledRegionInstrs += job.compiledRegionInstrs;
    }
};

/** Everything one run reports. */
struct Report
{
    Metrics endToEnd;       ///< untraced timed loop
    Metrics endToEndTraced; ///< traced half (--trace 1)
    Metrics perLayer;       ///< --trace 1
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> failures;
    /** Probe scans of the untraced timed loop. */
    std::vector<double> probeUs;
};

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * End-to-end metrics of one timed loop. Host-time figures are taken at
 * each distinct job's median run time, scaled to the reference host
 * speed by the loop's probe scans (see HostProbe), so that the
 * slowdowns of a shared host move them neither within a run nor
 * between runs: jobs_per_s is the distinct jobs over the sum of their
 * medians (one round of the job set), the sim rates are one round's
 * simulated work over that sum, and job_ms_p50/p90 are quantiles over
 * the jobs' medians. @p setup_s is scaled already.
 */
Metrics
endToEnd(const LoopTotals &t, double setup_s, const SimTotals &sim)
{
    const auto n = static_cast<std::uint64_t>(t.jobUs.size());
    const double scale = timeScale(t.probeUs);
    std::vector<double> medUs;
    double roundS = 0, instrs = 0, cycles = 0;
    for (std::size_t k = 0; k < t.runsUs.size(); ++k) {
        medUs.push_back(quantile(t.runsUs[k], 0.5) * scale);
        roundS += medUs.back() / 1e6;
        instrs += static_cast<double>(t.jobInstrs[k]);
        cycles += static_cast<double>(t.jobCycles[k]);
    }
    return {
        {"jobs_per_s",
         ratio(static_cast<double>(medUs.size()), roundS), "1/s", n},
        {"job_ms_p50", quantile(medUs, 0.5) / 1000, "ms", n},
        {"job_ms_p90", quantile(medUs, 0.9) / 1000, "ms", n},
        {"sim_instr_per_s", ratio(instrs, roundS), "1/s", n},
        {"sim_cycles_per_s", ratio(cycles, roundS), "1/s", n},
        {"setup_s", setup_s, "s", 1},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"sim_cycles_per_job",
         ratio(static_cast<double>(sim.cycles),
               static_cast<double>(sim.jobs)),
         "cycles", sim.jobs},
        {"stall_frac",
         ratio(static_cast<double>(sim.stallCycles),
               static_cast<double>(sim.procCycles)),
         "frac", sim.jobs},
        {"failed_frac",
         ratio(static_cast<double>(t.failed), static_cast<double>(n)),
         "frac", n},
    };
}

/** Per-layer metrics every workload reports (0 where a layer is not
 * exercised by the workload). */
Metrics
perLayerTemplate()
{
    const char *names[][2] = {
        {"sim.run_ms", "ms"},
        {"sim.run_ns_per_instr", "ns"},
        {"sim.run_ns_per_cycle", "ns"},
        {"barrier.run_us_per_episode", "us"},
        {"barrier.episodes", "count"},
        {"barrier.stalled_episode_frac", "frac"},
        {"barrier.wait_cycles_per_episode", "cycles"},
        {"sim.sync_record_share", "frac"},
        {"sim.reference_speedup", "x"},
        {"sim.construct_ms", "ms"},
        {"sim.load_ms", "ms"},
        {"sim.load_ns_per_instr", "ns"},
        {"sim.safety_ms", "ms"},
        {"isa.assemble_ms", "ms"},
        {"compiler.compile_ms", "ms"},
        {"core.build_ms", "ms"},
        {"compiler.region_instr_frac", "frac"},
        {"verify.generate_ms", "ms"},
        {"verify.differential_ms", "ms"},
        {"verify.variants_per_scenario", "count"},
        {"verify.ms_per_variant", "ms"},
        {"verify.share.checkpointing", "frac"},
        {"verify.share.legacy_loop", "frac"},
        {"verify.share.topology_sweep", "frac"},
        {"verify.share.other_encoding", "frac"},
        {"verify.share.pipeline_depths", "frac"},
        {"verify.share.software_stall", "frac"},
        {"verify.share.jitter", "frac"},
        {"verify.share.multi_issue", "frac"},
        {"exec.machines_reused_frac", "frac"},
        {"exec.programs_interned_frac", "frac"},
        {"exec.shard2_speedup", "x"},
        {"fault.faulted_scenarios", "count"},
        {"fault.dead_declared", "count"},
        {"sim.mem_accesses", "count"},
        {"sim.bus_requests", "count"},
        {"sim.bus_queue_delay", "cycles"},
        {"sim.cache_hit_frac", "frac"},
        {"sim.invalidations_avoided_frac", "frac"},
    };
    Metrics out;
    for (const auto &n : names)
        out.push_back({n[0], 0, n[1], 0});
    return out;
}

void
setMetric(Metrics &m, const std::string &name, double value,
          std::uint64_t samples)
{
    for (auto &x : m) {
        if (x.name == name) {
            x.value = std::isfinite(value) ? value : 0;
            x.samples = samples;
            return;
        }
    }
    std::fprintf(stderr, "fbperf: unknown metric %s\n", name.c_str());
    std::exit(2);
}

/** Per-job sim layer timings from the spans of @p phase. */
void
setSimLayerMetrics(Metrics &pl, const char *phase, const LoopTotals &t,
                   std::uint64_t jobs)
{
    auto &tr = tracer();
    const double runUs = tr.sumUs(phase, "sim", "Machine::run");
    const double loadUs = tr.sumUs(phase, "sim", "Machine::loadProgram");
    const double n = static_cast<double>(jobs);
    setMetric(pl, "sim.run_ms", ratio(runUs / 1000, n), jobs);
    setMetric(pl, "sim.run_ns_per_instr",
              ratio(runUs * 1000, static_cast<double>(t.instrs)), jobs);
    setMetric(pl, "sim.run_ns_per_cycle",
              ratio(runUs * 1000, static_cast<double>(t.cycles)), jobs);
    setMetric(pl, "barrier.run_us_per_episode",
              ratio(runUs, static_cast<double>(t.syncEvents)), jobs);
    setMetric(pl, "barrier.episodes",
              ratio(static_cast<double>(t.syncEvents), n), jobs);
    setMetric(pl, "barrier.stalled_episode_frac",
              ratio(static_cast<double>(t.stalledEpisodes),
                    static_cast<double>(t.procEpisodes)),
              jobs);
    setMetric(pl, "barrier.wait_cycles_per_episode",
              ratio(static_cast<double>(t.waitCycles),
                    static_cast<double>(t.procEpisodes)),
              jobs);
    setMetric(pl, "sim.construct_ms",
              ratio(tr.sumUs(phase, "sim", "Machine::Machine") / 1000, n),
              jobs);
    setMetric(pl, "sim.load_ms", ratio(loadUs / 1000, n), jobs);
    setMetric(pl, "sim.load_ns_per_instr",
              ratio(loadUs * 1000, static_cast<double>(t.loadedInstrs)),
              jobs);
    setMetric(pl, "sim.safety_ms",
              ratio(tr.sumUs(phase, "sim", "Machine::checkSafetyProperty") /
                        1000,
                    n),
              jobs);
}

/** Exact simulated counts of the distinct job set. */
void
setSimCountMetrics(Metrics &pl, const SimTotals &s)
{
    const double n = static_cast<double>(s.jobs);
    setMetric(pl, "sim.mem_accesses",
              ratio(static_cast<double>(s.memAccesses), n), s.jobs);
    setMetric(pl, "sim.bus_requests",
              ratio(static_cast<double>(s.busRequests), n), s.jobs);
    setMetric(pl, "sim.bus_queue_delay",
              ratio(static_cast<double>(s.busQueueDelay), n), s.jobs);
    setMetric(pl, "sim.cache_hit_frac",
              ratio(static_cast<double>(s.cacheHits),
                    static_cast<double>(s.cacheAccesses)),
              s.jobs);
    setMetric(pl, "sim.invalidations_avoided_frac",
              ratio(static_cast<double>(s.invalAvoided),
                    static_cast<double>(s.invalSent + s.invalAvoided)),
              s.jobs);
    setMetric(pl, "compiler.region_instr_frac",
              ratio(static_cast<double>(s.compiledRegionInstrs),
                    static_cast<double>(s.compiledInstrs)),
              s.jobs);
}

/** Pricing ratios over passes that ran the same jobs. */
void
setPricingMetrics(Metrics &pl, std::uint64_t jobs)
{
    auto &tr = tracer();
    const double fast = tr.sumUs("price:fast", "sim", "Machine::run");
    setMetric(pl, "sim.sync_record_share",
              1 - ratio(tr.sumUs("price:sync-off", "sim", "Machine::run"),
                        fast),
              jobs);
    setMetric(pl, "sim.reference_speedup",
              ratio(tr.sumUs("reference", "sim", "Machine::run"), fast),
              jobs);
    setMetric(pl, "exec.shard2_speedup",
              ratio(fast,
                    tr.sumUs("price:shard2", "exec", "ShardedMachine::run")),
              jobs);
}

/** Run @p job under every pricing mode (spans carry the mode). */
void
priceJob(const SimJob &job)
{
    auto &tr = tracer();
    tr.nextJob();
    tr.setPhase("price:fast");
    runSimJob(job);
    tr.setPhase("price:sync-off");
    RunMode off;
    off.recordSyncEvents = false;
    runSimJob(job, off);
    tr.setPhase("price:shard2");
    RunMode sharded;
    sharded.shards = 2;
    runSimJob(job, sharded);
}

/** Set-up per layer: total span time of the set-up. */
void
setSetupMetrics(Metrics &pl)
{
    double isaUs = 0, compilerUs = 0, coreUs = 0;
    for (const auto &[name, t] : tracer().totals("setup")) {
        if (name.rfind("isa.", 0) == 0)
            isaUs += t.totalUs;
        else if (name.rfind("compiler.", 0) == 0)
            compilerUs += t.totalUs;
        else if (name.rfind("core.", 0) == 0)
            coreUs += t.totalUs;
    }
    setMetric(pl, "isa.assemble_ms", isaUs / 1000, 1);
    setMetric(pl, "compiler.compile_ms", compilerUs / 1000, 1);
    setMetric(pl, "core.build_ms", coreUs / 1000, 1);
}

/** Set-up time so far, scaled to the reference host speed by probe
 * scans taken right after it. The probe is built after the clock is
 * read, so its allocation is not set-up time. */
double
scaledSetupS(std::unique_ptr<HostProbe> &probe)
{
    const double raw = secondsSince(processStart);
    probe = std::make_unique<HostProbe>();
    std::vector<double> us;
    for (int i = 0; i < 5; ++i)
        us.push_back(probe->sampleUs());
    return raw * timeScale(us);
}

/** Set-up of a simulation workload: build its jobs, run one warm-up. */
void
setUpSim(const Args &a, std::vector<SimJob> &jobs)
{
    tracer().setPhase("setup");
    buildSimJobs(a.workload, a.seed, jobs);
    tracer().nextJob();
    runSimJob(jobs.front());
}

/** The three simulation workloads. */
Report
runSimWorkload(const Args &a)
{
    auto &tr = tracer();
    Report rep;
    std::vector<SimJob> jobs;
    tr.setEnabled(a.trace);
    setUpSim(a, jobs);
    std::unique_ptr<HostProbe> hostProbe;
    const double setupS = scaledSetupS(hostProbe);

    const std::size_t nJobs = jobs.size();
    std::vector<std::uint64_t> firstPrint(nJobs, 0);
    std::vector<bool> seen(nJobs, false);
    // Every distinct job runs at least once per loop, so a check made
    // after the loop has runs of each job to fail.
    auto timedLoop = [&](double seconds, LoopTotals &t) {
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        for (std::size_t i = 0; i < nJobs || Clock::now() < deadline;
             ++i) {
            const std::size_t k = i % nJobs;
            hostProbe->sampleEvery(t.probeUs);
            tr.nextJob();
            const auto j0 = Clock::now();
            SimOutcome o;
            {
                FBPERF_SPAN("bench", "job");
                o = runSimJob(jobs[k]);
            }
            t.record(k, secondsSince(j0) * 1e6);
            t.add(o.result, jobs[k]);
            t.jobInstrs[k] = LoopTotals::instrsOf(o.result);
            t.jobCycles[k] = o.result.cycles;
            std::string why = o.failure;
            if (!seen[k]) {
                seen[k] = true;
                firstPrint[k] = o.fingerprint;
            } else if (o.fingerprint != firstPrint[k]) {
                why += "result differs from the job's first run; ";
            }
            if (!why.empty()) {
                ++t.failed;
                ++t.runsFailed[k];
                if (rep.failures.size() < 20)
                    rep.failures.push_back(jobs[k].name + ": " + why);
            }
        }
    };

    LoopTotals untraced(nJobs), traced(nJobs);
    tr.setEnabled(false);
    timedLoop(a.trace ? a.seconds / 2 : a.seconds, untraced);
    if (a.trace) {
        tr.setEnabled(true);
        tr.setPhase("timed");
        timedLoop(a.seconds / 2, traced);
    }

    // Correctness, outside the timed section: every distinct job on
    // the per-cycle reference engine. Its fingerprint must equal what
    // the timed runs produced; the reference results feed the digest
    // and the exact simulated metrics.
    tr.setPhase("reference");
    SimTotals sim;
    fb::snapshot::Fnv1a digest;
    RunMode reference;
    reference.fastForward = false;
    for (std::size_t k = 0; k < nJobs; ++k) {
        tr.nextJob();
        const SimOutcome ref = runSimJob(jobs[k], reference);
        sim.add(ref.result, jobs[k]);
        digest.mix(ref.fingerprint);
        std::string why = ref.failure;
        if (ref.fingerprint != firstPrint[k])
            why += "fast engine differs from the per-cycle reference; ";
        if (!why.empty()) {
            untraced.failAfter(k);
            traced.failAfter(k);
            rep.failures.push_back(jobs[k].name + ": " + why);
        }
    }
    rep.digest = digest.value();

    rep.endToEnd = endToEnd(untraced, setupS, sim);
    rep.probeUs = untraced.probeUs;
    rep.attempted = untraced.jobUs.size();
    rep.failed = untraced.failed;
    if (!a.trace)
        return rep;

    for (const auto &job : jobs)
        priceJob(job);
    rep.endToEndTraced = endToEnd(traced, setupS, sim);
    rep.attempted += traced.jobUs.size();
    rep.failed += traced.failed;
    rep.perLayer = perLayerTemplate();
    setSimLayerMetrics(rep.perLayer, "timed", traced, traced.jobUs.size());
    setSimCountMetrics(rep.perLayer, sim);
    setPricingMetrics(rep.perLayer, nJobs);
    setSetupMetrics(rep.perLayer);
    return rep;
}

/** Set-up of the campaign: pick its scenarios, run a 16-scenario
 * warm-up campaign. */
void
setUpFuzz(const Args &a, FuzzSet &set)
{
    tracer().setPhase("setup");
    set = makeFuzzSet(a.seed);
    FuzzSet warm = set;
    warm.specSeeds.resize(16);
    std::vector<FuzzResult> results;
    runFuzzPass(warm, campaignDiffOptions(), results);
}

/** The differential fuzz campaign. */
Report
runFuzzWorkload(const Args &a)
{
    auto &tr = tracer();
    Report rep;
    const fb::verify::DiffOptions opt = campaignDiffOptions();
    FuzzSet set;
    std::vector<FuzzResult> results;
    tr.setEnabled(a.trace);
    setUpFuzz(a, set);
    std::unique_ptr<HostProbe> hostProbe;
    const double setupS = scaledSetupS(hostProbe);
    const std::uint64_t nScen = set.count();
    for (const auto &s : set.screened)
        std::printf("screened out %s\n", s.c_str());
    if (set.screened.size() > kMaxScreened)
        rep.failures.push_back(std::to_string(set.screened.size()) +
                               " faulted candidates screened out, more "
                               "than the known defects explain (" +
                               std::to_string(kMaxScreened) + ")");

    std::vector<std::uint64_t> firstHash(nScen, 0);
    bool firstPass = true;
    // Each pass is one fresh campaign over every scenario; simulated
    // instructions and cycles are folded in after the probe below.
    auto timedLoop = [&](double seconds, LoopTotals &t) {
        const auto start = Clock::now();
        const auto deadline =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        do {
            hostProbe->sampleEvery(t.probeUs);
            const auto stats = runFuzzPass(set, opt, results);
            t.campaign.items += stats.items;
            t.campaign.machinesBuilt += stats.machinesBuilt;
            t.campaign.machinesReused += stats.machinesReused;
            t.campaign.programsAssembled += stats.programsAssembled;
            t.campaign.programsInterned += stats.programsInterned;
            for (std::uint64_t i = 0; i < nScen; ++i) {
                const FuzzResult &fr = results[i];
                t.record(i, fr.hostUs);
                t.variants += static_cast<std::uint64_t>(fr.variants);
                std::string why = fr.failure;
                if (firstPass)
                    firstHash[i] = fr.baselineHash;
                else if (fr.baselineHash != firstHash[i])
                    why += "baseline differs from the first pass; ";
                if (!fr.ok || !why.empty()) {
                    ++t.failed;
                    ++t.runsFailed[i];
                    if (rep.failures.size() < 20)
                        rep.failures.push_back(
                            "scenario " + std::to_string(set.specSeeds[i]) +
                            ": " + why);
                }
            }
            firstPass = false;
        } while (Clock::now() < deadline);
    };

    LoopTotals untraced(nScen), traced(nScen);
    tr.setEnabled(false);
    timedLoop(a.trace ? a.seconds / 2 : a.seconds, untraced);
    if (a.trace) {
        tr.setEnabled(true);
        tr.setPhase("timed");
        timedLoop(a.seconds / 2, traced);
    }

    // Outside the timed section: each scenario's baseline machine on
    // the fast and the per-cycle reference engine. The differential's
    // legacy-loop executor already diffs the two inside the timed job;
    // this probe also yields the simulated counts DiffReport does not
    // expose (RunResult of the baseline variant).
    SimTotals sim;
    LoopTotals probe;
    std::vector<std::uint64_t> instrs(nScen), cycles(nScen);
    fb::snapshot::Fnv1a digest;
    std::uint64_t faulted = 0;
    RunMode reference;
    reference.fastForward = false;
    for (std::uint64_t i = 0; i < nScen; ++i) {
        tr.setPhase("probe");
        tr.nextJob();
        const auto sc = generateScenario(set, i);
        faulted += sc.hasFaults() ? 1 : 0;
        const SimJob job = scenarioBaselineJob(sc);
        const SimOutcome fast = runSimJob(job);
        tr.setPhase("reference");
        const SimOutcome ref = runSimJob(job, reference);
        if (a.trace)
            priceJob(job);
        sim.add(fast.result, job);
        probe.add(fast.result, job);
        instrs[i] = LoopTotals::instrsOf(fast.result);
        cycles[i] = fast.result.cycles;
        digest.mix(firstHash[i]);
        digest.mix(ref.fingerprint);
        std::string why = fast.failure;
        if (ref.fingerprint != fast.fingerprint)
            why += "fast engine differs from the per-cycle reference; ";
        if (!why.empty()) {
            untraced.failAfter(i);
            traced.failAfter(i);
            rep.failures.push_back("scenario " +
                                   std::to_string(set.specSeeds[i]) +
                                   " baseline: " + why);
        }
    }
    rep.digest = digest.value();
    for (auto *t : {&untraced, &traced}) {
        const std::uint64_t passes = t->jobUs.size() / nScen;
        for (std::uint64_t i = 0; i < nScen; ++i) {
            t->instrs += passes * instrs[i];
            t->cycles += passes * cycles[i];
            t->jobInstrs[i] = instrs[i];
            t->jobCycles[i] = cycles[i];
        }
    }

    rep.endToEnd = endToEnd(untraced, setupS, sim);
    rep.probeUs = untraced.probeUs;
    rep.attempted = untraced.jobUs.size();
    rep.failed = untraced.failed;
    if (!a.trace)
        return rep;

    // Executor families, each priced by one campaign pass without it.
    struct Family
    {
        const char *metric;
        const char *phase;
        void (*off)(fb::verify::DiffOptions &);
    };
    const Family families[] = {
        {"checkpointing", "family-off:checkpointing",
         [](fb::verify::DiffOptions &d) { d.checkpointing = false; }},
        {"legacy_loop", "family-off:legacy_loop",
         [](fb::verify::DiffOptions &d) { d.legacyLoop = false; }},
        {"topology_sweep", "family-off:topology_sweep",
         [](fb::verify::DiffOptions &d) { d.topologySweep = false; }},
        {"other_encoding", "family-off:other_encoding",
         [](fb::verify::DiffOptions &d) { d.otherEncoding = false; }},
        {"pipeline_depths", "family-off:pipeline_depths",
         [](fb::verify::DiffOptions &d) { d.pipelineDepths.clear(); }},
        {"software_stall", "family-off:software_stall",
         [](fb::verify::DiffOptions &d) { d.softwareStall = false; }},
        {"jitter", "family-off:jitter",
         [](fb::verify::DiffOptions &d) { d.jitter = false; }},
        {"multi_issue", "family-off:multi_issue",
         [](fb::verify::DiffOptions &d) { d.multiIssue = false; }},
    };
    tr.setPhase("family-off:none");
    runFuzzPass(set, opt, results);
    const double fullUs =
        tr.sumUs("family-off:none", "verify", "runDifferential");
    rep.perLayer = perLayerTemplate();
    auto &pl = rep.perLayer;
    for (const auto &f : families) {
        fb::verify::DiffOptions d = opt;
        f.off(d);
        tr.setPhase(f.phase);
        runFuzzPass(set, d, results);
        setMetric(pl, std::string("verify.share.") + f.metric,
                  1 - ratio(tr.sumUs(f.phase, "verify", "runDifferential"),
                            fullUs),
                  nScen);
    }

    rep.endToEndTraced = endToEnd(traced, setupS, sim);
    rep.attempted += traced.jobUs.size();
    rep.failed += traced.failed;
    const std::uint64_t n = traced.jobUs.size();
    const double nd = static_cast<double>(n);
    const double diffUs = tr.sumUs("timed", "verify", "runDifferential");
    const double genUs = tr.sumUs("timed", "verify", "randomSpec") +
                         tr.sumUs("timed", "fault", "randomFaultPlan") +
                         tr.sumUs("timed", "verify", "render");
    setMetric(pl, "verify.generate_ms", ratio(genUs / 1000, nd), n);
    setMetric(pl, "verify.differential_ms", ratio(diffUs / 1000, nd), n);
    setMetric(pl, "verify.variants_per_scenario",
              ratio(static_cast<double>(traced.variants), nd), n);
    setMetric(pl, "verify.ms_per_variant",
              ratio(diffUs / 1000, static_cast<double>(traced.variants)), n);
    const auto &cs = traced.campaign;
    setMetric(pl, "exec.machines_reused_frac",
              ratio(static_cast<double>(cs.machinesReused),
                    static_cast<double>(cs.machinesBuilt +
                                        cs.machinesReused)),
              n);
    setMetric(pl, "exec.programs_interned_frac",
              ratio(static_cast<double>(cs.programsInterned),
                    static_cast<double>(cs.programsAssembled +
                                        cs.programsInterned)),
              n);
    setMetric(pl, "fault.faulted_scenarios", static_cast<double>(faulted),
              nScen);
    setMetric(pl, "fault.dead_declared",
              static_cast<double>(sim.deadDeclared), nScen);
    // The sim and barrier layers as the probe's baseline runs saw them.
    setSimLayerMetrics(pl, "probe", probe, nScen);
    setSimCountMetrics(pl, sim);
    setPricingMetrics(pl, nScen);
    setMetric(pl, "isa.assemble_ms",
              tr.sumUs("probe", "isa", "Assembler::assemble") / 1000, 1);
    return rep;
}

void
printMetrics(const char *title, const Metrics &m)
{
    std::printf("%s\n", title);
    for (const auto &x : m)
        std::printf("  %-34s %16.6g %-6s (n=%llu)\n", x.name.c_str(),
                    x.value, x.unit.c_str(),
                    static_cast<unsigned long long>(x.samples));
}

/** Self time per layer function and per layer over @p phase. */
void
printSelfTimes(const char *phase)
{
    const auto totals = tracer().totals(phase);
    if (totals.empty())
        return;
    std::printf("span self time, phase %s (ms):\n", phase);
    std::map<std::string, double> perLayer;
    for (const auto &[name, t] : totals) {
        std::printf("  %-40s calls=%-8llu total=%12.3f self=%12.3f\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.totalUs / 1000, t.selfUs / 1000);
        perLayer[name.substr(0, name.find('.'))] += t.selfUs;
    }
    for (const auto &[layer, us] : perLayer)
        std::printf("  layer %-34s self=%12.3f\n", layer.c_str(), us / 1000);
}

/** JSON value with every digit the double carries. */
std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricsJson(const Metrics &m)
{
    std::string out = "{";
    bool first = true;
    for (const auto &x : m) {
        // failed_frac travels as the result's attempted/failed counts.
        if (x.name == "failed_frac")
            continue;
        out += first ? "" : ", ";
        first = false;
        out += "\"" + x.name + "\": {\"value\": " + num(x.value) +
               ", \"unit\": \"" + x.unit + "\"}";
    }
    return out + "}";
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string val = argv[++i];
        if (arg == "--workload")
            a.workload = val;
        else if (arg == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            a.seconds = std::atof(val.c_str());
        else if (arg == "--trace")
            a.trace = val == "1";
        else if (arg == "--trace-out")
            a.traceOut = val;
        else if (arg == "--setup-only")
            a.setupOnly = val == "1";
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: fbperf --workload sync-dense|wide-1024|kernels|"
                     "fuzz-campaign --seed N --seconds S --trace 0|1 "
                     "[--trace-out FILE] [--setup-only 1]\n");
        return 2;
    }
    // Fault-campaign warnings (kills, dropped pulses) would flood
    // stderr and bill the logger to the simulator's time.
    fb::Logger::get().setLevel(fb::LogLevel::Quiet);
    const bool fuzz = a.workload == "fuzz-campaign";
    if (!fuzz && a.workload != "sync-dense" && a.workload != "wide-1024" &&
        a.workload != "kernels") {
        std::fprintf(stderr, "fbperf: unknown workload %s\n",
                     a.workload.c_str());
        return 2;
    }

    if (a.setupOnly) {
        try {
            if (fuzz) {
                FuzzSet set;
                setUpFuzz(a, set);
            } else {
                std::vector<SimJob> jobs;
                setUpSim(a, jobs);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "fbperf: %s\n", e.what());
            return 1;
        }
        std::unique_ptr<HostProbe> probe;
        const double setupS = scaledSetupS(probe);
        std::printf("{\"setup_s\": %s}\n", num(setupS).c_str());
        return 0;
    }

    std::printf("fbperf workload=%s seed=%llu seconds=%g trace=%d\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::printf("build: {\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                __VERSION__, FBPERF_BUILD_TYPE);
    Report rep;
    try {
        rep = fuzz ? runFuzzWorkload(a) : runSimWorkload(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "fbperf: %s\n", e.what());
        return 1;
    }

    printMetrics(a.trace ? "end-to-end, untraced half:"
                         : "end-to-end (host time unless a sim count):",
                 rep.endToEnd);
    std::printf("host probe: median scan %.1f us (n=%zu); host times "
                "scaled by %.4f to a %.0f us scan\n",
                quantile(rep.probeUs, 0.5), rep.probeUs.size(),
                timeScale(rep.probeUs), kProbeRefUs);
    if (a.trace) {
        printMetrics("end-to-end, traced half:", rep.endToEndTraced);
        const double p50 = rep.endToEnd[1].value;
        const double p50t = rep.endToEndTraced[1].value;
        std::printf("tracing overhead (job_ms_p50 traced/untraced - 1): "
                    "%.4f\n",
                    ratio(p50t, p50) - 1);
        printMetrics("per-layer (traced run):", rep.perLayer);
        printSelfTimes("setup");
        printSelfTimes("timed");
        char meta[256];
        std::snprintf(meta, sizeof meta,
                      "{\"workload\": \"%s\", \"seed\": %llu}",
                      a.workload.c_str(),
                      static_cast<unsigned long long>(a.seed));
        if (!tracer().writeChromeJson(a.traceOut, meta)) {
            std::fprintf(stderr, "fbperf: cannot write %s\n",
                         a.traceOut.c_str());
            return 1;
        }
        std::printf("trace: %s (%zu spans)\n", a.traceOut.c_str(),
                    tracer().spans().size());
    }
    for (const auto &f : rep.failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("digest %s seed=%llu: %016llx\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(rep.digest));

    const bool correct = rep.failed == 0 && rep.failures.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                metricsJson(a.trace ? rep.perLayer : rep.endToEnd)
                    .c_str());
    return 0;
}
