/**
 * @file
 * Experiment E12 (ablation) — the two region encodings of section 6.
 *
 * "A single bit in each instruction is used... An alternative and
 * less expensive approach is to use special instructions that when
 * executed, indicate an entry or exit from a barrier region."
 *
 * The bit encoding spends an opcode bit but no execution time; the
 * marker encoding is cheaper in hardware but executes BRENTER/BREXIT
 * instructions — and, for regions reached through branches, an extra
 * marker per branch target. This bench quantifies the run-time cost
 * of the marker encoding as a function of how many region boundaries
 * an iteration has, plus the static code-size growth.
 */

#include "common.hh"

namespace
{

using namespace fb;
using namespace fb::bench;

constexpr int kProcs = 4;
constexpr int kEpisodes = 50;

struct Row
{
    std::uint64_t bitCycles;
    std::uint64_t markerCycles;
    std::size_t bitSize;
    std::size_t markerSize;
};

/** A loop with @p regions_per_iter separate barrier regions. */
std::string
streamSource(int procs, int regions_per_iter, int work, int region)
{
    std::ostringstream oss;
    oss << "settag 1\n";
    oss << "setmask " << ((1 << procs) - 1) << "\n";
    oss << "li r1, 0\nli r2, " << kEpisodes / regions_per_iter << "\n";
    oss << "loop:\n";
    for (int s = 0; s < regions_per_iter; ++s) {
        for (int k = 0; k < work; ++k)
            oss << "addi r3, r3, 1\n";
        oss << ".region 1\n";
        for (int k = 0; k < region; ++k)
            oss << "addi r4, r4, 1\n";
        if (s + 1 == regions_per_iter) {
            oss << "addi r1, r1, 1\n";
            oss << "bne r1, r2, loop\n";
        }
        oss << ".endregion\n";
        if (s + 1 == regions_per_iter)
            oss << "nop\n";  // crossing point after the backedge region
    }
    oss << "halt\n";
    return oss.str();
}

Row
measure(int regions_per_iter, int work, int region)
{
    auto run = [&](bool marker) {
        sim::MachineConfig cfg;
        cfg.numProcessors = kProcs;
        cfg.memWords = 1 << 14;
        sim::Machine machine(cfg);
        std::size_t size = 0;
        for (int p = 0; p < kProcs; ++p) {
            auto prog = assembleOrDie(
                streamSource(kProcs, regions_per_iter, work, region));
            if (marker)
                prog = prog.toMarkerEncoding();
            size = prog.size();
            machine.loadProgram(p, std::move(prog));
        }
        auto r = machine.run();
        if (r.deadlocked || r.timedOut) {
            std::fprintf(stderr, "E12 run failed\n");
            std::exit(1);
        }
        return std::make_pair(r.cycles, size);
    };
    auto [bit_cycles, bit_size] = run(false);
    auto [marker_cycles, marker_size] = run(true);
    return {bit_cycles, marker_cycles, bit_size, marker_size};
}

} // namespace

int
main()
{
    fb::Table table("E12 (ablation, section 6): region-bit vs "
                    "BRENTER/BREXIT marker encoding");
    table.setHeader({"regions/iter", "bit cycles", "marker cycles",
                     "overhead/episode", "bit instrs", "marker instrs"});

    Verdict verdict("E12");
    for (int regions : {1, 2, 5}) {
        auto row = measure(regions, 10, 8);
        double overhead =
            (static_cast<double>(row.markerCycles) -
             static_cast<double>(row.bitCycles)) /
            kEpisodes;
        table.row()
            .cell(static_cast<std::int64_t>(regions))
            .cell(row.bitCycles)
            .cell(row.markerCycles)
            .cell(overhead, 2)
            .cell(static_cast<std::uint64_t>(row.bitSize))
            .cell(static_cast<std::uint64_t>(row.markerSize));
        // The executed BRENTER/BREXIT pair: ~2 cycles per episode.
        verdict.require(overhead >= 2.0 && overhead <= 2.1,
                        "%d regions/iter: marker overhead %.2f "
                        "cycles/episode, outside [2.0, 2.1]",
                        regions, overhead);
    }
    table.print(std::cout);

    printClaim("the marker encoding trades an opcode bit for ~2 "
               "executed marker instructions per region boundary per "
               "episode (plus extra markers at branch targets); the "
               "bit encoding has zero execution overhead");
    return verdict.exitCode();
}
