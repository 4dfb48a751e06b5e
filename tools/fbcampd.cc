/**
 * @file
 * fbcampd — standalone coordinator daemon for long-running
 * differential fuzz campaigns.
 *
 * Runs the same campaign as `fbfuzz --workers N` but packaged for
 * unattended operation: the coordinator process owns a crash-safe
 * cursor journal (required — a daemon you cannot resume is a daemon
 * you cannot kill), shards the seed range into leased chunks across
 * forked worker processes, and survives worker crashes, wedges, and
 * transport corruption by heartbeat timeout, exponential-backoff
 * respawn, and deterministic lease reassignment. A seed that
 * repeatedly kills its worker is quarantined and reported as a
 * first-class QUARANTINE artifact instead of wedging the campaign.
 *
 * SIGKILL the daemon at any point and rerun the same command line: it
 * resumes past the journal's contiguous completed prefix, re-runs
 * failing seeds to reproduce their reports, and the final
 * failing-seed set is identical to an uninterrupted run. Journals are
 * interchangeable with `fbfuzz --cursor` (same header, same format).
 *
 * Usage:
 *   fbcampd --cursor FILE [--seed S] [--runs N] [--workers N] ...
 *
 * Campaign options (exactly fbfuzz's): --seed --runs --no-swref
 *   --faults --fault-seed --max-cycles --shards N[:QUANTUM]
 * Service options: --workers N (default 2), --jobs N (threads inside
 *   each worker), --lease N, --hb-interval MS, --hb-timeout MS,
 *   --svc-fault SPEC (injected process/transport faults; see
 *   src/exec/service/wire.hh), --cursor-compact N, --quiet
 *
 * Exit status: 0 all seeds passed, 1 a divergence was found, 2 usage
 * error, 4 the only failures were quarantined seeds, 5 the service
 * aborted (worker respawn budget exhausted). Worker loss alone never
 * changes the exit code — it is survivable by design and reported on
 * stderr only.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/service/coordinator.hh"
#include "support/strutil.hh"

#include "fuzz_campaign.hh"

namespace
{

using namespace fb;

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "fbcampd: %s\n", msg);
    std::fprintf(stderr,
                 "usage: fbcampd --cursor FILE [--seed S] [--runs N] "
                 "[--workers N]\n"
                 "       (see the header of tools/fbcampd.cc for the "
                 "full option list)\n");
    std::exit(2);
}

struct Options : fbtool::CampaignConfig
{
    std::string cursorFile;
    std::uint64_t cursorCompact = 0;  ///< 0 = journal default
    int workers = 2;
    int jobs = 1;  ///< threads inside each worker
    exec::svc::SvcFaultPlan svcFault;
    std::uint64_t leaseItems = 16;
    int hbIntervalMs = 200;
    int hbTimeoutMs = 30'000;
    bool quiet = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                usage(("missing value after " + arg).c_str());
            return argv[i];
        };
        auto nextInt = [&]() -> std::int64_t {
            std::int64_t v;
            std::string s = next();
            if (!parseInt(s, v))
                usage(("bad integer for " + arg + ": " + s).c_str());
            return v;
        };
        if (arg == "--seed")
            opt.seed = static_cast<std::uint64_t>(nextInt());
        else if (arg == "--runs")
            opt.runs = static_cast<int>(nextInt());
        else if (arg == "--no-swref")
            opt.swref = false;
        else if (arg == "--faults")
            opt.faults = true;
        else if (arg == "--fault-seed") {
            opt.faultSeed = static_cast<std::uint64_t>(nextInt());
            opt.faults = true;
        } else if (arg == "--max-cycles")
            opt.maxCycles = static_cast<std::uint64_t>(nextInt());
        else if (arg == "--shards") {
            auto parts = split(next(), ':');
            std::int64_t n = 0;
            if (parts.empty() || parts.size() > 2 ||
                !parseInt(parts[0], n) || n < 2)
                usage("--shards N[:QUANTUM] with N >= 2");
            opt.shards = static_cast<int>(n);
            if (parts.size() == 2) {
                std::int64_t q = 0;
                if (!parseInt(parts[1], q) || q < 1)
                    usage("--shards quantum must be >= 1");
                opt.shardQuantum = static_cast<std::uint64_t>(q);
            }
        } else if (arg == "--cursor")
            opt.cursorFile = next();
        else if (arg == "--cursor-compact") {
            std::int64_t n = nextInt();
            if (n < 1)
                usage("--cursor-compact must be at least 1");
            opt.cursorCompact = static_cast<std::uint64_t>(n);
        } else if (arg == "--workers") {
            opt.workers = static_cast<int>(nextInt());
            if (opt.workers < 1)
                usage("--workers must be at least 1");
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<int>(nextInt());
            if (opt.jobs < 1)
                usage("--jobs must be at least 1");
        } else if (arg == "--svc-fault") {
            std::string err;
            if (!exec::svc::SvcFaultPlan::parse(next(), opt.svcFault,
                                                err))
                usage(("--svc-fault: " + err).c_str());
        } else if (arg == "--lease") {
            std::int64_t n = nextInt();
            if (n < 1)
                usage("--lease must be at least 1");
            opt.leaseItems = static_cast<std::uint64_t>(n);
        } else if (arg == "--hb-interval") {
            opt.hbIntervalMs = static_cast<int>(nextInt());
            if (opt.hbIntervalMs < 1)
                usage("--hb-interval must be at least 1");
        } else if (arg == "--hb-timeout") {
            opt.hbTimeoutMs = static_cast<int>(nextInt());
            if (opt.hbTimeoutMs < 1)
                usage("--hb-timeout must be at least 1");
        } else if (arg == "--quiet")
            opt.quiet = true;
        else
            usage(("unknown option " + arg).c_str());
    }
    if (opt.runs < 1)
        usage("--runs must be at least 1");
    if (opt.cursorFile.empty())
        usage("--cursor FILE is required (the journal is what makes "
              "the daemon resumable)");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);

    exec::svc::CursorJournal journal;
    std::string error;
    if (!journal.open(opt.cursorFile, fbtool::cursorHeader(opt),
                      static_cast<std::uint64_t>(opt.runs), error)) {
        std::fprintf(stderr, "fbcampd: %s\n", error.c_str());
        return 2;
    }
    if (opt.cursorCompact != 0)
        journal.setCompactionThreshold(opt.cursorCompact);
    if (journal.resumedItems() != 0)
        std::fprintf(stderr,
                     "fbcampd: cursor %s: resuming past %llu recorded "
                     "seed(s)\n",
                     opt.cursorFile.c_str(),
                     static_cast<unsigned long long>(
                         journal.resumedItems()));

    exec::svc::ServiceOptions sopt;
    sopt.workers = opt.workers;
    sopt.leaseItems = opt.leaseItems;
    sopt.heartbeatIntervalMs = opt.hbIntervalMs;
    sopt.heartbeatTimeoutMs = opt.hbTimeoutMs;
    sopt.innerJobs = opt.jobs;
    sopt.fault = opt.svcFault;
    sopt.quarantineArtifact = [&](std::uint64_t i, int kills) {
        return fbtool::quarantineArtifact(opt, opt.seed + i, kills);
    };

    auto runner = [&](std::uint64_t i, exec::WorkerContext &ctx) {
        return fbtool::runScenario(opt, i, ctx);
    };

    int failures = 0;
    int quarantined = 0;
    std::uint64_t delivered = 0;
    auto consume = [&](std::uint64_t i, const exec::ItemResult &r) {
        ++delivered;
        if (r.failed) {
            ++failures;
            if (r.quarantined)
                ++quarantined;
            std::printf("%s", r.payload.c_str());
            std::fflush(stdout);
        }
        // Operator heartbeat: coarse progress on stderr so a daemon
        // run in a terminal is visibly alive (the journal, not this,
        // is the machine-readable state).
        if (!opt.quiet && delivered % 100 == 0)
            std::fprintf(stderr, "fbcampd: %llu/%d seeds complete\n",
                         static_cast<unsigned long long>(i + 1),
                         opt.runs);
    };

    auto stats = exec::svc::runCampaignService(
        static_cast<std::uint64_t>(opt.runs), sopt, runner, consume,
        &journal);

    if (stats.workerDeaths != 0 || stats.corruptStreams != 0)
        std::fprintf(
            stderr,
            "fbcampd: service: %llu worker death(s), %llu respawn(s), "
            "%llu lease(s) reassigned, %llu heartbeat timeout(s), "
            "%llu corrupt stream(s)\n",
            static_cast<unsigned long long>(stats.workerDeaths),
            static_cast<unsigned long long>(stats.respawns),
            static_cast<unsigned long long>(stats.leasesReassigned),
            static_cast<unsigned long long>(stats.heartbeatTimeouts),
            static_cast<unsigned long long>(stats.corruptStreams));
    if (stats.aborted) {
        std::fprintf(stderr, "fbcampd: service aborted: %s\n",
                     stats.error.c_str());
        return 5;
    }

    std::printf("fbcampd: %d/%d scenarios passed (seeds %llu..%llu, "
                "%d workers)\n",
                opt.runs - failures, opt.runs,
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(
                    opt.seed + static_cast<std::uint64_t>(opt.runs) - 1),
                opt.workers);
    if (failures == quarantined)
        return quarantined != 0 ? 4 : 0;
    return 1;
}
