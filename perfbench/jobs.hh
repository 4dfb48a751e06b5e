/**
 * @file
 * The benchmark's workloads and the calls they make into each layer.
 *
 * Every input is generated from the benchmark seed; the simulator only
 * ever sees the generated programs and configs. All calls go through
 * public API of core, compiler, isa, sim, barrier, fault, exec and
 * verify, each bracketed by a span (see spans.hh) so the traced run
 * can attribute host time to layers.
 */

#ifndef FBPERF_JOBS_HH
#define FBPERF_JOBS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/campaign.hh"
#include "fault/plan.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "verify/differ.hh"
#include "verify/scenario.hh"

namespace fbperf
{

/** One simulation: a machine config plus one program per processor. */
struct SimJob
{
    std::string name;
    fb::sim::MachineConfig cfg;
    std::vector<fb::isa::Program> programs;
    /** Fault schedule (cfg.faultPlan is pointed at it per run). */
    fb::fault::FaultPlan faults;
    /** Shared-memory words written before the run. */
    std::vector<std::pair<std::size_t, std::int64_t>> memInit;
    /** Words folded into the fingerprint after the run. */
    std::vector<std::size_t> watch;
    /** Exact expected values of the leading @ref watch words, when
     * the job has a host reference (empty = none). */
    std::vector<std::int64_t> expect;
    /** Instructions over all loaded programs. */
    std::uint64_t loadedInstrs = 0;
    /** Instructions, and those carrying the region bit, over the
     * programs produced by compiler::compileLoop. */
    std::uint64_t compiledInstrs = 0;
    std::uint64_t compiledRegionInstrs = 0;
};

/** How to execute a SimJob. */
struct RunMode
{
    bool fastForward = true;
    bool recordSyncEvents = true;
    /** Host threads (>= 2 runs under exec::ShardedMachine). */
    int shards = 1;
};

/** What one execution produced. */
struct SimOutcome
{
    fb::sim::RunResult result;
    /** Hash of RunResult counters, every register and watched memory. */
    std::uint64_t fingerprint = 0;
    /** Empty, or why the job failed its oracles / expected values. */
    std::string failure;
};

/** Construct, load, run and check @p job (spans per layer call). */
SimOutcome runSimJob(const SimJob &job, const RunMode &mode = {});

/** Build the distinct jobs of simulation workload @p workload
 * (sync-dense, wide-1024 or kernels) from @p seed. */
void buildSimJobs(const std::string &workload, std::uint64_t seed,
                  std::vector<SimJob> &jobs);

/** The fuzz-campaign scenarios: one spec seed per campaign item. */
struct FuzzSet
{
    std::vector<std::uint64_t> specSeeds;
    /** Faulted candidates passed over because the program fails them
     * ("scenario <spec seed>: <why>"), see makeFuzzSet. */
    std::vector<std::string> screened;
    std::uint64_t count() const { return specSeeds.size(); }
};

/**
 * At most this many faulted candidates may be screened out of one
 * campaign. The two known fault-handling defects fail about one
 * faulted candidate in 3,000 (one in 150 of those with a declared
 * death), so a seed's campaign screens out 0.1 on average; more than
 * this means the program fails faulted scenarios more often than those
 * defects explain, and the run is reported incorrect.
 */
constexpr std::size_t kMaxScreened = 3;

/**
 * Pick the campaign's scenarios for @p seed. Slot i asks for a fixed
 * class: a fault plan on odd slots, a fatal fault on every other
 * faulted slot, a watchdog-declared death on 9 fatal slots (the
 * natural death rate), and otherwise 2..7 processors and 1-5 or 6-10
 * episodes in turn. The seed
 * picks the first spec of that class in the slot's own seed range, so
 * the class mix, which sets most of a scenario's cost, is the same for
 * every seed.
 *
 * A faulted candidate of the right class is taken only if the program
 * handles it: its differential passes and its baseline machine ends
 * the same on the fast and the per-cycle engine. Two known defects
 * fail a few faulted specs in 10,000 (after a tag-bit flip, a watchdog
 * false positive or a survivor short of one episode; after a declared
 * death, a one-cycle divergence of the two engines), and a benchmark run must not fail on them; the candidates
 * passed over are listed in FuzzSet::screened. Fault-free candidates
 * are not screened.
 */
FuzzSet makeFuzzSet(std::uint64_t seed);

/** Generate scenario @p index (spec, optional fault plan, render). */
fb::verify::Scenario generateScenario(const FuzzSet &set,
                                      std::uint64_t index);

/** True if scenario @p index carries a fault plan. */
bool scenarioFaulted(std::uint64_t index);

/** Differential options of the campaign (default matrix, no
 * real-thread software-barrier reference). */
fb::verify::DiffOptions campaignDiffOptions();

/**
 * The baseline machine of @p sc as the differential runs it, built as
 * a SimJob so it can be run, fingerprinted and priced like any other
 * job. Assembly goes through isa::Assembler directly.
 */
SimJob scenarioBaselineJob(const fb::verify::Scenario &sc);

/** Per-scenario result of one campaign pass. */
struct FuzzResult
{
    bool ok = false;
    std::uint64_t baselineHash = 0;
    int variants = 0;
    double hostUs = 0;
    std::string failure;
};

/**
 * Run scenarios [0, set.count()) as one campaign on exec::runCampaign
 * (jobs = 1, private machine pool and program cache), each item
 * generating its scenario and running the differential matrix.
 * @p out receives one FuzzResult per scenario, in index order.
 */
fb::exec::CampaignStats
runFuzzPass(const FuzzSet &set, const fb::verify::DiffOptions &opt,
            std::vector<FuzzResult> &out);

} // namespace fbperf

#endif // FBPERF_JOBS_HH
