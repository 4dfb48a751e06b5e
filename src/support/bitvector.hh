/**
 * @file
 * Fixed-capacity dynamic bit vector.
 *
 * Used for the per-processor participation masks of the fuzzy barrier
 * hardware (paper section 6: "the mask for each processor consists of
 * n-1 bits"). Kept deliberately simple; the set-wide operations work a
 * 64-bit word at a time, which is what keeps 1024-processor masks cheap.
 */

#ifndef FB_SUPPORT_BITVECTOR_HH
#define FB_SUPPORT_BITVECTOR_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace fb
{

/**
 * A growable vector of bits with set-algebra helpers.
 */
class BitVector
{
  public:
    /** Construct with @p size bits, all clear. */
    explicit BitVector(std::size_t size = 0);

    /** Number of bits. */
    std::size_t size() const { return _size; }

    /** Set bit @p idx to @p value. */
    void set(std::size_t idx, bool value = true);

    /** Clear bit @p idx. */
    void clear(std::size_t idx) { set(idx, false); }

    /** Read bit @p idx. Inline: this is the innermost operation of
     * the barrier network's per-cycle AND evaluation. */
    bool test(std::size_t idx) const
    {
        FB_ASSERT(idx < _size, "BitVector index "
                                   << idx << " out of range " << _size);
        return (_words[wordOf(idx)] & maskOf(idx)) != 0;
    }

    /** Set every bit: O(words). */
    void setAll();

    /** Clear every bit. */
    void clearAll();

    /** Number of set bits. */
    std::size_t count() const;

    /** True if no bit is set. */
    bool none() const { return count() == 0; }

    /** True if every bit is set. */
    bool all() const { return count() == _size; }

    /** True if (this & other) == other, i.e. other is a subset. */
    bool covers(const BitVector &other) const;

    /** True if this and other share at least one set bit. */
    bool intersects(const BitVector &other) const;

    /** Number of 64-bit words backing the vector. */
    std::size_t wordCount() const { return _words.size(); }

    /** Raw 64-bit word @p i (bit k of the word is bit i*64+k). Used
     * by the barrier network's word-at-a-time AND evaluation. */
    std::uint64_t word(std::size_t i) const
    {
        FB_ASSERT(i < _words.size(), "BitVector word index " << i
                                                             << " bad");
        return _words[i];
    }

    /** Index of the lowest set bit, or size() when none is set. */
    std::size_t firstSet() const;

    /** Index of the highest set bit, or size() when none is set. */
    std::size_t lastSet() const;

    /**
     * Invoke @p fn(index) for every set bit in ascending order. Cost
     * is O(words + set bits), not O(size): the innermost loop of the
     * O(active) barrier evaluation.
     */
    template <typename Fn>
    void forEachSet(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _words.size(); ++i) {
            std::uint64_t w = _words[i];
            while (w != 0) {
                const int bit = std::countr_zero(w);
                w &= w - 1;
                fn(i * bitsPerWord + static_cast<std::size_t>(bit));
            }
        }
    }

    /** Bitwise AND (sizes must match). */
    BitVector operator&(const BitVector &other) const;

    /** Bitwise OR (sizes must match). */
    BitVector operator|(const BitVector &other) const;

    /** Equality (sizes and bits). */
    bool operator==(const BitVector &other) const;

    /** Render as a 0/1 string, bit 0 first. */
    std::string toString() const;

  private:
    static constexpr std::size_t bitsPerWord = 64;

    std::size_t wordOf(std::size_t idx) const { return idx / bitsPerWord; }
    std::uint64_t maskOf(std::size_t idx) const
    {
        return std::uint64_t{1} << (idx % bitsPerWord);
    }

    std::size_t _size;
    std::vector<std::uint64_t> _words;
};

} // namespace fb

#endif // FB_SUPPORT_BITVECTOR_HH
