/**
 * @file
 * The versioned binary snapshot container (see docs/INTERNALS.md
 * section 15 for the byte-level layout).
 *
 * A snapshot is a header followed by typed sections. The header pins
 * the magic, format version, the machine-configuration fingerprint
 * (so a snapshot can never be silently restored into a differently
 * configured machine), the cycle the state was captured at, and the
 * store generation. Header and every section carry independent CRC32s:
 * a torn write or a flipped bit is detected before any state is
 * decoded, never after.
 */

#ifndef FB_SNAPSHOT_FORMAT_HH
#define FB_SNAPSHOT_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/hash.hh"

namespace fb::snapshot
{

/**
 * Current container format version. Version 2 added the delta-chain
 * linkage fields (`baseFull`, `prev`) to the header and the delta
 * section ids; version 3 added the rotated-out sync-record count to
 * the MachineCore and CoreDelta sections (the sync-record window).
 * Older streams are rejected, not migrated — a snapshot store is
 * regenerated from a live machine, never converted.
 */
constexpr std::uint32_t formatVersion = 3;

/** 8-byte magic at offset 0: "FBSNAP" + version tag bytes. */
constexpr std::uint8_t magic[8] = {'F', 'B', 'S', 'N', 'A', 'P',
                                   '0', '1'};

/** Section identifiers (one section per machine component). */
enum class SectionId : std::uint32_t
{
    MachineCore = 1,  ///< clock, fences, recoveries, oracle bookkeeping
    Memory = 2,       ///< shared memory (sparse dirty pages)
    Bus = 3,          ///< interconnect busy state and counters
    Network = 4,      ///< barrier units + in-flight deliveries
    Caches = 5,       ///< per-processor cache tags and counters
    Processors = 6,   ///< per-processor core state
    Injector = 7,     ///< fault-plan cursors (optional)
    Watchdog = 8,     ///< armed timers and backoff state (optional)
    MemoryDelta = 9,  ///< epoch-dirty memory pages + stats (delta only)
    BusDelta = 10,    ///< epoch-dirty bank pages (delta only)
    CoreDelta = 11,   ///< clock/fences + new sync records + sharer patches
    CacheDelta = 12,  ///< per-cache epoch-filled lines + counters
};

/**
 * Fixed-size metadata preceding the sections.
 *
 * The chain linkage lives in the header so the store can reason about
 * delta chains (prune safely, walk back past corrupt links) with a
 * `peekHeader()` probe, without decoding any payload. A *full*
 * snapshot carries `baseFull == prev == generation`; a *delta*
 * carries `prev` = the generation it applies on top of and
 * `baseFull` = the full snapshot anchoring its chain.
 */
struct SnapshotHeader
{
    std::uint32_t version = formatVersion;
    std::uint64_t configFingerprint = 0;
    std::uint64_t cycle = 0;       ///< machine clock at capture
    std::uint64_t generation = 0;  ///< store generation number
    std::uint64_t baseFull = 0;    ///< chain anchor (== generation: full)
    std::uint64_t prev = 0;        ///< predecessor (== generation: full)

    bool isDelta() const { return prev != generation; }
};

/** One typed, CRC-protected payload. */
struct Section
{
    std::uint32_t id = 0;
    std::vector<std::uint8_t> payload;
};

/** Serialize header + sections into the on-disk byte stream. */
std::vector<std::uint8_t> assemble(const SnapshotHeader &header,
                                   const std::vector<Section> &sections);

/**
 * Parse and fully validate a snapshot byte stream: magic, version,
 * header CRC, section table bounds, and every section CRC. Returns
 * false with a positional diagnostic in @p error on any mismatch; on
 * success every payload is known intact.
 */
bool disassemble(const std::vector<std::uint8_t> &bytes,
                 SnapshotHeader &header, std::vector<Section> &sections,
                 std::string &error);

/**
 * Validate only the header (magic, version, header CRC) and return
 * it — cheap enough to probe candidate files during the generation
 * walk-back without decoding payloads.
 */
bool peekHeader(const std::vector<std::uint8_t> &bytes,
                SnapshotHeader &header, std::string &error);

/** FNV-1a, as used for the configuration fingerprint. */
using Fnv1a = fb::Fnv1a;

} // namespace fb::snapshot

#endif // FB_SNAPSHOT_FORMAT_HH
