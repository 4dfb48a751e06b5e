/**
 * @file
 * Two-level hierarchical bitset for O(active) sparse scans.
 *
 * One summary word tracks which of up to 64 payload words are
 * nonzero, so iterating, clearing and min/max queries cost O(set
 * bits), never O(capacity). This is the data structure behind the
 * barrier network's ready/pending/scrub sets and the machine's sparse
 * per-cycle bookkeeping: with 1024 processors of which a handful are
 * active, every per-cycle walk touches only the words that actually
 * hold members. Capacity is therefore 64 * 64 = 4096 bits, which caps
 * the simulated processor count.
 */

#ifndef FB_SUPPORT_HIBITSET_HH
#define FB_SUPPORT_HIBITSET_HH

#include <bit>
#include <cstddef>
#include <cstdint>

#include "support/logging.hh"

namespace fb
{

/**
 * Fixed-capacity set of small integers with a one-word summary level.
 */
class HiBitset
{
  public:
    static constexpr std::size_t bitsPerWord = 64;
    static constexpr std::size_t maxCapacity = bitsPerWord * bitsPerWord;

    explicit HiBitset(std::size_t size = 0) { resize(size); }

    /** Reset to @p size bits, all clear. */
    void resize(std::size_t size)
    {
        FB_ASSERT(size <= maxCapacity,
                  "HiBitset capacity is " << maxCapacity << " bits, "
                                          << size << " requested");
        _size = size;
        _summary = 0;
        for (auto &w : _words)
            w = 0;
    }

    std::size_t size() const { return _size; }

    bool test(std::size_t idx) const
    {
        FB_ASSERT(idx < _size, "HiBitset index " << idx
                                                 << " out of range "
                                                 << _size);
        return (_words[idx / bitsPerWord] &
                (std::uint64_t{1} << (idx % bitsPerWord))) != 0;
    }

    void set(std::size_t idx)
    {
        FB_ASSERT(idx < _size, "HiBitset index " << idx
                                                 << " out of range "
                                                 << _size);
        const std::size_t w = idx / bitsPerWord;
        _words[w] |= std::uint64_t{1} << (idx % bitsPerWord);
        _summary |= std::uint64_t{1} << w;
    }

    void clear(std::size_t idx)
    {
        FB_ASSERT(idx < _size, "HiBitset index " << idx
                                                 << " out of range "
                                                 << _size);
        const std::size_t w = idx / bitsPerWord;
        _words[w] &= ~(std::uint64_t{1} << (idx % bitsPerWord));
        if (_words[w] == 0)
            _summary &= ~(std::uint64_t{1} << w);
    }

    bool empty() const { return _summary == 0; }

    /** Clear every set bit; O(nonzero words), not O(capacity). */
    void clearAll()
    {
        std::uint64_t s = _summary;
        while (s != 0) {
            const int w = std::countr_zero(s);
            s &= s - 1;
            _words[w] = 0;
        }
        _summary = 0;
    }

    /** Copy from @p other (sizes must match); O(other's words). */
    void assignFrom(const HiBitset &other)
    {
        FB_ASSERT(_size == other._size, "HiBitset size mismatch");
        clearAll();
        std::uint64_t s = other._summary;
        while (s != 0) {
            const int w = std::countr_zero(s);
            s &= s - 1;
            _words[w] = other._words[w];
        }
        _summary = other._summary;
    }

    /** Make this the union of @p a and @p b (sizes must match). */
    void assignUnion(const HiBitset &a, const HiBitset &b)
    {
        FB_ASSERT(_size == a._size && _size == b._size,
                  "HiBitset size mismatch");
        clearAll();
        std::uint64_t s = a._summary | b._summary;
        _summary = s;
        while (s != 0) {
            const int w = std::countr_zero(s);
            s &= s - 1;
            _words[w] = a._words[w] | b._words[w];
        }
    }

    /** Payload word @p i (zero when outside the summary). */
    std::uint64_t word(std::size_t i) const
    {
        return i < bitsPerWord ? _words[i] : 0;
    }

    std::size_t count() const
    {
        std::size_t total = 0;
        std::uint64_t s = _summary;
        while (s != 0) {
            const int w = std::countr_zero(s);
            s &= s - 1;
            total += static_cast<std::size_t>(std::popcount(_words[w]));
        }
        return total;
    }

    /** Lowest member, or size() when empty. */
    std::size_t first() const
    {
        if (_summary == 0)
            return _size;
        const int w = std::countr_zero(_summary);
        return static_cast<std::size_t>(w) * bitsPerWord +
               static_cast<std::size_t>(std::countr_zero(_words[w]));
    }

    /** Lowest member at or above @p idx, or size() when there is none
     * (also when @p idx >= size()); O(1) word probes. */
    std::size_t firstFrom(std::size_t idx) const
    {
        if (idx >= _size)
            return _size;
        const std::size_t w = idx / bitsPerWord;
        const std::uint64_t here =
            _words[w] & (~std::uint64_t{0} << (idx % bitsPerWord));
        if (here != 0)
            return w * bitsPerWord +
                   static_cast<std::size_t>(std::countr_zero(here));
        // Summary words strictly above w (w + 1 < 64 or none).
        const std::uint64_t later =
            w + 1 < bitsPerWord ? _summary & (~std::uint64_t{0} << (w + 1))
                                : 0;
        if (later == 0)
            return _size;
        const int next = std::countr_zero(later);
        return static_cast<std::size_t>(next) * bitsPerWord +
               static_cast<std::size_t>(std::countr_zero(_words[next]));
    }

    /** Invoke @p fn(index) for every member in ascending order. */
    template <typename Fn>
    void forEach(Fn &&fn) const
    {
        std::uint64_t s = _summary;
        while (s != 0) {
            const int wi = std::countr_zero(s);
            s &= s - 1;
            std::uint64_t w = _words[wi];
            while (w != 0) {
                const int bit = std::countr_zero(w);
                w &= w - 1;
                fn(static_cast<std::size_t>(wi) * bitsPerWord +
                   static_cast<std::size_t>(bit));
            }
        }
    }

  private:
    std::size_t _size = 0;
    std::uint64_t _summary = 0;
    std::uint64_t _words[bitsPerWord] = {};
};

} // namespace fb

#endif // FB_SUPPORT_HIBITSET_HH
