/**
 * @file
 * Stable content hashing for cache and checkpoint keys.
 *
 * FNV-1a over explicitly fed fields: the caller enumerates every field
 * that can influence the derived artifact, so two keys that could name
 * different content hash differently, and the hash is identical across
 * platforms and process runs (no pointer values, no iteration over
 * unordered containers). Used by the trace cache (profile -> .ev8s/.ev8p
 * file names) and the experiment checkpoint (grid -> journal file name).
 */

#ifndef EV8_COMMON_HASH_HH
#define EV8_COMMON_HASH_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace ev8
{

/** FNV-1a over explicitly fed fields; stable across platforms. */
class ContentHash
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 1099511628211ULL;
        }
    }

    void
    u64(uint64_t v)
    {
        unsigned char buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<unsigned char>(v >> (i * 8));
        bytes(buf, sizeof(buf));
    }

    void
    f64(double v)
    {
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    uint64_t value() const { return h; }

  private:
    uint64_t h = 1469598103934665603ULL;
};

} // namespace ev8

#endif // EV8_COMMON_HASH_HH
