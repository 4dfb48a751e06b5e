/**
 * @file
 * Campaign-wide interning cache for assembled programs.
 */

#ifndef FB_EXEC_PROGRAM_CACHE_HH
#define FB_EXEC_PROGRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "isa/program.hh"

namespace fb::exec
{

/**
 * One source text assembled exactly once: both encodings (region
 * bits and BRENTER/BREXIT markers) plus the static-check results,
 * shared by every scenario in a campaign that renders the same text.
 * Immutable after interning, so workers share it without locking.
 */
struct InternedProgram
{
    /** False if assembly failed; @ref error holds the message. */
    bool ok = false;
    std::string error;
    /** checkRegionBranches() verdict for the bit-encoded program. */
    std::optional<std::string> regionViolation;
    isa::Program bits;    ///< region-bit encoding
    isa::Program markers; ///< marker encoding (toMarkerEncoding)
};

/**
 * Shared assembly cache keyed by source text. Generated campaigns
 * draw from a small space of program shapes, so the same source
 * recurs across thousands of scenarios; interning makes each distinct
 * text pay the assembler exactly once per campaign. Thread-safe: one
 * mutex around the map, results handed out as shared_ptr-to-const.
 */
class ProgramCache
{
  public:
    /** Assemble @p source, or return the cached result. */
    std::shared_ptr<const InternedProgram>
    intern(const std::string &source);

    /** Lookups served from cache. */
    std::uint64_t hits() const;

    /** Lookups that ran the assembler. */
    std::uint64_t misses() const;

  private:
    mutable std::mutex _mu;
    std::unordered_map<std::string,
                       std::shared_ptr<const InternedProgram>>
        _cache;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace fb::exec

#endif // FB_EXEC_PROGRAM_CACHE_HH
