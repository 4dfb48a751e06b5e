/**
 * @file
 * Experiment E13 — cycle shrinking on the fuzzy barrier machine.
 *
 * Section 1: "Application of transformations such as cycle shrinking
 * depend heavily upon use of barriers. Availability of an efficient
 * barrier mechanism makes their application practical."
 *
 * Workload: the doacross recurrence a[i] = a[i-d] + i with dependence
 * distance d. Cycle shrinking executes groups of d consecutive
 * iterations in parallel with a barrier between groups, giving an
 * ideal speedup of d over the sequential loop — if the barrier is
 * cheap enough. The table reports the measured speedup for the
 * hardware fuzzy barrier (region = next group's address arithmetic)
 * versus the simulated shared-counter software barrier, for several
 * distances. Every run's array is verified against the exact host
 * recurrence.
 */

#include "common.hh"
#include "compiler/transforms.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kTrip = 96;
constexpr std::int64_t kBase = 512;  // array base address

/** Host reference. */
std::vector<std::int64_t>
reference(int distance)
{
    std::vector<std::int64_t> a(static_cast<std::size_t>(kTrip) + 64, 0);
    for (int i = 0; i < kTrip; ++i) {
        std::int64_t prev =
            i >= distance ? a[static_cast<std::size_t>(i - distance)] : 0;
        a[static_cast<std::size_t>(i)] = prev + i;
    }
    return a;
}

/**
 * Body: a[i] = f(a[i-d]) + i where f is ~24 cycles of arithmetic
 * (cycle-shrinking candidates are compute-bearing loop bodies; with a
 * pure load/store body the experiment would measure memory bandwidth,
 * not synchronization). i is in r1; clobbers r20..r23.
 */
void
emitBody(std::ostringstream &oss, int distance)
{
    oss << "addi r20, r1, " << (kBase - distance) << "\n";  // &a[i-d]
    oss << "ld r21, 0(r20)\n";
    for (int k = 0; k < 12; ++k) {
        oss << "addi r21, r21, 1\n";
        oss << "addi r21, r21, -1\n";
    }
    oss << "add r22, r21, r1\n";
    oss << "addi r23, r1, " << kBase << "\n";               // &a[i]
    oss << "st r22, 0(r23)\n";
}

/** Sequential single-processor version. */
std::string
sequentialSource(int distance)
{
    std::ostringstream oss;
    oss << "li r1, 0\nli r2, " << kTrip << "\n";
    oss << "loop:\n";
    emitBody(oss, distance);
    oss << "addi r1, r1, 1\n";
    oss << "bne r1, r2, loop\n";
    oss << "halt\n";
    return oss.str();
}

/**
 * Cycle-shrunk version for processor @p self of @p procs == distance:
 * group g executes iteration g*d + self; groups separated by the
 * chosen barrier. With the fuzzy barrier, the next group's index and
 * address arithmetic live in the region.
 */
std::string
shrunkSource(int distance, int self, bool fuzzy,
             const core::SwBarrierLayout &layout)
{
    const int groups = (kTrip + distance - 1) / distance;
    std::ostringstream oss;
    if (fuzzy) {
        oss << "settag 1\n";
        oss << "setmask " << ((1ll << distance) - 1) << "\n";
    } else {
        oss << "li r19, " << distance << "\n";  // P for the sw barrier
    }
    oss << "li r9, " << self << "\n";   // i = g*d + self
    oss << "li r2, " << groups << "\n";
    oss << "li r8, 0\n";                // g
    oss << "loop:\n";
    // i = g*d + self
    oss << "muli r1, r8, " << distance << "\n";
    oss << "add r1, r1, r9\n";
    emitBody(oss, distance);
    if (fuzzy) {
        oss << ".region 1\n";
        // The group counter increment and backedge — plus slack the
        // compiler could fill with the next group's address math.
        oss << "addi r4, r4, 1\n";
        oss << "addi r4, r4, 1\n";
        oss << "addi r8, r8, 1\n";
        oss << "bne r8, r2, loop\n";
        oss << ".endregion\n";
    } else {
        // Simulated centralized software barrier (counter + sense).
        oss << "li r24, 1\n";
        oss << "sub r25, r24, r25\n";
        oss << "faa r21, " << layout.countAddr << "(r0), r24\n";
        oss << "addi r22, r21, 1\n";
        oss << "bne r22, r19, bspin\n";
        oss << "st r0, " << layout.countAddr << "(r0)\n";
        oss << "st r25, " << layout.senseAddr << "(r0)\n";
        oss << "jmp bdone\n";
        oss << "bspin:\n";
        oss << "ld r26, " << layout.senseAddr << "(r0)\n";
        oss << "bne r26, r25, bspin\n";
        oss << "bdone:\n";
        oss << "addi r8, r8, 1\n";
        oss << "bne r8, r2, loop\n";
    }
    oss << "halt\n";
    return oss.str();
}

struct Row
{
    std::uint64_t cycles;
    bool correct;
};

Row
runShrunk(int distance, bool fuzzy)
{
    core::SwBarrierLayout layout;
    sim::MachineConfig cfg;
    cfg.numProcessors = distance;
    cfg.memWords = 2048;
    cfg.maxCycles = 100'000'000;
    cfg.busKind = sim::BusKind::Banked;
    sim::Machine m(cfg);
    for (int p = 0; p < distance; ++p)
        m.loadProgram(p,
                      assembleOrDie(shrunkSource(distance, p, fuzzy,
                                                 layout)));
    auto r = m.run();
    if (r.deadlocked || r.timedOut) {
        std::fprintf(stderr, "E13 run failed (d=%d)\n", distance);
        std::exit(1);
    }
    auto ref = reference(distance);
    bool ok = true;
    for (int i = 0; i < kTrip; ++i)
        ok = ok && m.memory().peek(static_cast<std::size_t>(kBase + i)) ==
                       ref[static_cast<std::size_t>(i)];
    return {r.cycles, ok};
}

std::uint64_t
runSequential(int distance)
{
    sim::MachineConfig cfg;
    cfg.numProcessors = 1;
    cfg.memWords = 2048;
    cfg.busKind = sim::BusKind::Banked;
    sim::Machine m(cfg);
    m.loadProgram(0, assembleOrDie(sequentialSource(distance)));
    auto r = m.run();
    return r.cycles;
}

} // namespace

int
main()
{
    // Sanity-check the transform's grouping once.
    auto groups = fb::compiler::cycleShrink(10, 4);
    if (groups.size() != 3 || groups[0].size() != 4 ||
        groups[2].size() != 2) {
        std::fprintf(stderr, "cycleShrink grouping unexpected\n");
        return 1;
    }

    fb::Table table("E13 (section 1): cycle shrinking of a[i] = a[i-d] "
                    "+ i, 96 iterations, d processors");
    table.setHeader({"distance d", "sequential", "shrunk+fuzzy",
                     "speedup", "shrunk+sw-barrier", "speedup",
                     "correct"});

    Verdict verdict("E13");
    for (int d : {2, 4, 8, 16}) {
        auto seq = runSequential(d);
        auto fuzzy = runShrunk(d, true);
        auto sw = runShrunk(d, false);
        const double fuzzy_speedup =
            static_cast<double>(seq) / static_cast<double>(fuzzy.cycles);
        const double sw_speedup =
            static_cast<double>(seq) / static_cast<double>(sw.cycles);
        table.row()
            .cell(static_cast<std::int64_t>(d))
            .cell(seq)
            .cell(fuzzy.cycles)
            .cell(fuzzy_speedup, 2)
            .cell(sw.cycles)
            .cell(sw_speedup, 2)
            .cell(fuzzy.correct && sw.correct ? "yes" : "NO");

        verdict.require(fuzzy.correct && sw.correct,
                        "d=%d: memory differs from the host recurrence "
                        "(fuzzy %s, sw %s)",
                        d, fuzzy.correct ? "ok" : "wrong",
                        sw.correct ? "ok" : "wrong");
        verdict.require(fuzzy_speedup > sw_speedup,
                        "d=%d: fuzzy speedup %.2f is not above sw speedup "
                        "%.2f",
                        d, fuzzy_speedup, sw_speedup);
        // The near-free barrier scales with d, within the factor-2
        // coherence gap EXPERIMENTS.md explains.
        if (d >= 4)
            verdict.require(fuzzy_speedup >= 0.45 * d,
                            "d=%d: fuzzy speedup %.2f is below 0.45*d",
                            d, fuzzy_speedup);
        // The shared-counter barrier makes d=2 slower than sequential.
        if (d == 2)
            verdict.require(sw_speedup < 1,
                            "d=2: sw speedup %.2f is not below 1",
                            sw_speedup);
    }
    table.print(std::cout);

    printClaim("with a near-free barrier, cycle shrinking attains "
               "speedup approaching the dependence distance d; with a "
               "shared-counter software barrier, per-group overhead "
               "eats a large share of the gain — exactly why the paper "
               "says cheap barriers make the transformation practical");
    return verdict.exitCode();
}
