/**
 * @file
 * Incremental 64-bit FNV-1a hashing.
 */

#ifndef FB_SUPPORT_HASH_HH
#define FB_SUPPORT_HASH_HH

#include <cstdint>
#include <string>

namespace fb
{

/**
 * Incremental FNV-1a hasher: configuration fingerprints, program
 * content hashes and the decode memo key.
 */
class Fnv1a
{
  public:
    void mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xffu;
            _h *= 0x100000001b3ULL;
        }
    }

    void mixString(const std::string &s)
    {
        mix(s.size());
        for (char c : s) {
            _h ^= static_cast<std::uint8_t>(c);
            _h *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace fb

#endif // FB_SUPPORT_HASH_HH
