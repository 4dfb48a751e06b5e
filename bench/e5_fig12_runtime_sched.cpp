/**
 * @file
 * Experiment E5 — Fig. 12: run-time scheduling of loop iterations.
 *
 * The inner loop's trip count (26) is not divisible by the processor
 * count (4) and the iterations have non-uniform cost, so the
 * iterations are distributed at run time. The compiler emits multiple
 * versions of the loop body (Fig. 12): a processor's *first*
 * iteration starts with a barrier region, its *last* is followed by
 * one, intervening iterations carry no barrier code, and a single
 * iteration gets both.
 *
 * Policies: static block scheduling; fixed-chunk self-scheduling;
 * guided self-scheduling (GSS) — the self-scheduled policies use the
 * first-to-finish-grabs model. Under each policy the barrier between
 * outer iterations is either a point or a fuzzy region built (per the
 * multi-version roles) from the tail of the processor's last
 * iteration and the head of its first iteration of the next round —
 * no instructions are added.
 */

#include "common.hh"
#include "compiler/transforms.hh"
#include "sched/schedule.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kInnerIters = 26;
constexpr int kOuterIters = 8;
constexpr int kShare = 20;  // max tail/head share in the region

/** Non-uniform iteration cost in instructions (8..16). */
int
iterCost(int iteration)
{
    return 8 + (iteration * 7) % 9;
}

enum class Policy
{
    Block,
    Chunk,
    Gss,
};

sched::Assignment
assignmentFor(Policy policy)
{
    std::vector<double> costs;
    for (int i = 0; i < kInnerIters; ++i)
        costs.push_back(iterCost(i));
    switch (policy) {
      case Policy::Block:
        return sched::blockSchedule(kInnerIters, kProcs);
      case Policy::Chunk:
        return sched::chunkSelfSchedule(kInnerIters, kProcs, 2, costs);
      case Policy::Gss:
        return sched::guidedSelfSchedule(kInnerIters, kProcs, costs);
    }
    return {};
}

const char *
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Block: return "block-static";
      case Policy::Chunk: return "chunk(2)-self";
      case Policy::Gss: return "guided-self";
    }
    return "?";
}

std::string
streamSource(int self, Policy policy, bool fuzzy)
{
    auto assignment = assignmentFor(policy);
    const auto &mine = assignment[static_cast<std::size_t>(self)];
    int total = 0;
    for (int it : mine)
        total += iterCost(it);

    // Multi-version roles: the region at each inter-round barrier is
    // the tail of this processor's LAST iteration plus the head of
    // its FIRST iteration of the next round.
    const int share = fuzzy ? std::min(kShare, std::max(1, total / 2))
                            : 0;

    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << kProcs) - 1) << "\n";
    auto emitWork = [&](int n) {
        for (int k = 0; k < n; ++k)
            oss << "addi r3, r3, 1\n";
    };

    for (int outer = 0; outer < kOuterIters; ++outer) {
        int head = outer == 0 ? 0 : share;
        int tail = share;
        emitWork(std::max(0, total - head - tail));
        oss << ".region 1\n";
        if (fuzzy) {
            emitWork(tail);
            if (outer + 1 < kOuterIters)
                emitWork(share);  // head of the next round
        } else {
            oss << "nop\n";
        }
        oss << ".endregion\n";
    }
    oss << "st r3, 100(r0)\n";
    oss << "halt\n";
    return oss.str();
}

struct Row
{
    std::uint64_t cycles;
    std::uint64_t stalled;
    std::uint64_t wait;
    int loadSpread;  // max-min per-processor work in instructions
};

Row
measure(Policy policy, bool fuzzy)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = kProcs;
    cfg.memWords = 1 << 14;
    sim::Machine machine(cfg);
    for (int p = 0; p < kProcs; ++p)
        machine.loadProgram(p,
                            assembleOrDie(streamSource(p, policy, fuzzy)));
    auto r = machine.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E5 run failed\n");
        std::exit(1);
    }

    auto assignment = assignmentFor(policy);
    int max_work = 0;
    int min_work = 1 << 30;
    for (const auto &list : assignment) {
        int total = 0;
        for (int it : list)
            total += iterCost(it);
        max_work = std::max(max_work, total);
        min_work = std::min(min_work, total);
    }
    return {r.cycles, totalStalledEpisodes(r), r.totalBarrierWait(),
            max_work - min_work};
}

} // namespace

int
main()
{
    fb::Table table("E5 (Fig. 12): run-time scheduling, 26 non-uniform "
                    "iterations on 4 processors, 8 outer rounds");
    table.setHeader({"policy", "barrier", "work spread", "stalled",
                     "idle cycles", "total cycles"});

    Verdict verdict("E5");
    int gss_spread = 0;
    int other_spread = 1 << 30;
    for (Policy policy : {Policy::Block, Policy::Chunk, Policy::Gss}) {
        const Row point = measure(policy, false);
        const Row fuzzy = measure(policy, true);
        for (const auto &[barrier, row] :
             {std::pair{"point", point}, std::pair{"fuzzy", fuzzy}}) {
            table.row()
                .cell(policyName(policy))
                .cell(barrier)
                .cell(static_cast<std::int64_t>(row.loadSpread))
                .cell(row.stalled)
                .cell(row.wait)
                .cell(row.cycles);
        }
        // The multi-version regions shave idle time off every policy.
        verdict.require(fuzzy.wait < point.wait,
                        "%s: fuzzy idles %llu cycles, not below point's "
                        "%llu",
                        policyName(policy),
                        static_cast<unsigned long long>(fuzzy.wait),
                        static_cast<unsigned long long>(point.wait));
        if (policy == Policy::Gss)
            gss_spread = point.loadSpread;
        else
            other_spread = std::min(other_spread, point.loadSpread);
    }
    table.print(std::cout);

    printClaim("self-scheduling (especially GSS) distributes work so "
               "processors complete at about the same time, reducing "
               "idling at the inter-round barrier; the multi-version "
               "fuzzy regions absorb the residual imbalance");

    verdict.require(gss_spread < other_spread,
                    "guided-self work spread %d is not the smallest "
                    "(best other policy: %d)",
                    gss_spread, other_spread);
    return verdict.exitCode();
}
