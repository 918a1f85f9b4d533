/**
 * @file
 * LEB128 varint / zigzag stream helpers shared by the binary trace and
 * block-stream serializers. All multi-byte integers in those formats go
 * through these, so the encodings cannot drift apart.
 */

#ifndef EV8_TRACE_VARINT_HH
#define EV8_TRACE_VARINT_HH

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "trace/trace_io.hh"

namespace ev8
{

inline void
putVarint(std::ostream &out, uint64_t value)
{
    while (value >= 0x80) {
        out.put(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.put(static_cast<char>(value));
}

/** putVarint() appending to an in-memory buffer. */
inline void
putVarint(std::string &out, uint64_t value)
{
    while (value >= 0x80) {
        out += static_cast<char>((value & 0x7f) | 0x80);
        value >>= 7;
    }
    out += static_cast<char>(value);
}

inline uint64_t
getVarint(std::istream &in)
{
    uint64_t value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = in.get();
        if (c == std::char_traits<char>::eof())
            throw TraceIoError("truncated varint");
        value |= static_cast<uint64_t>(c & 0x7f) << shift;
        if (!(c & 0x80))
            return value;
    }
    throw TraceIoError("varint too long");
}

inline uint64_t
zigzag(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1)
        ^ static_cast<uint64_t>(value >> 63);
}

inline int64_t
unzigzag(uint64_t value)
{
    return static_cast<int64_t>(value >> 1)
        ^ -static_cast<int64_t>(value & 1);
}

inline void
putU32(std::ostream &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out.put(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** putU32() appending to an in-memory buffer. */
inline void
putU32(std::string &out, uint32_t value)
{
    for (int i = 0; i < 4; ++i)
        out += static_cast<char>((value >> (8 * i)) & 0xff);
}

inline uint32_t
getU32(std::istream &in)
{
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        const int c = in.get();
        if (c == std::char_traits<char>::eof())
            throw TraceIoError("truncated header");
        value |= static_cast<uint32_t>(c & 0xff) << (8 * i);
    }
    return value;
}

/**
 * Bounds-checked reads of the encodings above from an in-memory buffer,
 * for parsers that load a whole file with one read instead of pulling
 * it a byte at a time through std::istream::get().
 */
class ByteCursor
{
  public:
    explicit ByteCursor(std::string_view bytes)
        : pos_(bytes.data()), end_(bytes.data() + bytes.size())
    {}

    /** Bytes not yet consumed. */
    size_t remaining() const { return static_cast<size_t>(end_ - pos_); }

    /** The next byte; throws TraceIoError(@p what) past the end. */
    uint8_t
    byte(const char *what)
    {
        if (pos_ == end_)
            throw TraceIoError(what);
        return static_cast<uint8_t>(*pos_++);
    }

    /** The next @p n bytes; throws TraceIoError(@p what) if fewer remain. */
    std::string_view
    take(size_t n, const char *what)
    {
        if (n > remaining())
            throw TraceIoError(what);
        const std::string_view out(pos_, n);
        pos_ += n;
        return out;
    }

    /** getVarint() over the buffer. */
    uint64_t
    varint()
    {
        uint64_t value = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            const uint8_t c = byte("truncated varint");
            value |= static_cast<uint64_t>(c & 0x7f) << shift;
            if (!(c & 0x80))
                return value;
        }
        throw TraceIoError("varint too long");
    }

    /** getU32() over the buffer. */
    uint32_t
    u32()
    {
        uint32_t value = 0;
        for (int i = 0; i < 4; ++i)
            value |= static_cast<uint32_t>(byte("truncated header"))
                << (8 * i);
        return value;
    }

  private:
    const char *pos_;
    const char *end_;
};

} // namespace ev8

#endif // EV8_TRACE_VARINT_HH
