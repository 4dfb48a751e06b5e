/**
 * @file
 * Shared helpers for the experiment harnesses (bench/e*). Each paper
 * experiment (E1-E9, E11-E15) reproduces one table/figure-level claim
 * of the paper, prints its table, and checks the verdict
 * EXPERIMENTS.md states for it; ctest runs them under the label
 * `paper`. See DESIGN.md section 3 for the experiment index.
 */

#ifndef FB_BENCH_COMMON_HH
#define FB_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/fuzzy_barrier.hh"
#include "core/barrierprogs.hh"
#include "sim/machine.hh"
#include "support/table.hh"

namespace fb::bench
{

/** Assemble or abort: bench programs are generated, so failure is a
 * harness bug. */
inline isa::Program
assembleOrDie(const std::string &src)
{
    isa::Program prog;
    std::string err;
    if (!isa::Assembler::assemble(src, prog, err)) {
        std::fprintf(stderr, "bench assembly failed: %s\n", err.c_str());
        std::exit(1);
    }
    return prog;
}

/** Simulated clock period used when reporting microseconds: the
 * Encore Multimax's NS32032 processors ran at 10 MHz, so one cycle is
 * 0.1 us. Only E1 reports in microseconds; everything else uses raw
 * cycles. */
constexpr double usPerCycle = 0.1;

/** Sum of stalled episodes over all processors. */
inline std::uint64_t
totalStalledEpisodes(const sim::RunResult &r)
{
    std::uint64_t total = 0;
    for (const auto &p : r.perProcessor)
        total += p.stalledEpisodes;
    return total;
}

/** Sum of context switches over all processors. */
inline std::uint64_t
totalContextSwitches(const sim::RunResult &r)
{
    std::uint64_t total = 0;
    for (const auto &p : r.perProcessor)
        total += p.contextSwitches;
    return total;
}

/** Print the standard bench footer naming the claim reproduced. */
inline void
printClaim(const char *claim)
{
    std::printf("\npaper claim: %s\n", claim);
}

/**
 * The verdict EXPERIMENTS.md states for one experiment, checked
 * clause by clause against the measured table. Every clause that
 * does not hold prints "<experiment> claim failed: <clause>" to
 * stderr, and exitCode() turns any failure into exit status 1.
 */
class Verdict
{
  public:
    explicit Verdict(const char *experiment) : experiment_(experiment) {}

    /** Check one clause; the printf-style message says what was
     * expected and what was measured. */
    __attribute__((format(printf, 3, 4))) void
    require(bool holds, const char *fmt, ...)
    {
        if (holds)
            return;
        failed_ = true;
        std::fprintf(stderr, "%s claim failed: ", experiment_);
        std::va_list args;
        va_start(args, fmt);
        std::vfprintf(stderr, fmt, args);
        va_end(args);
        std::fputc('\n', stderr);
    }

    int exitCode() const { return failed_ ? 1 : 0; }

  private:
    const char *experiment_;
    bool failed_ = false;
};

} // namespace fb::bench

#endif // FB_BENCH_COMMON_HH
