/**
 * @file
 * Compact binary serialization of branch traces.
 *
 * Our stand-in for the paper's Atom trace files (Section 8.1.2). The
 * format is delta/varint encoded: PCs of successive CTIs are close
 * together, so the common record costs a handful of bytes instead of 17.
 *
 * Layout:
 *   magic   "EV8T"            (4 bytes)
 *   version u32 little-endian (currently 1)
 *   namelen u32  + name bytes
 *   startPc varint
 *   count   varint
 *   records:
 *     flags  u8   (bits 0-2 type, bit 3 taken)
 *     pcDelta   varint  (pc - previous flow pc, in instruction units)
 *     tgtDelta  zigzag varint (target - pc, in instruction units)
 */

#ifndef EV8_TRACE_TRACE_IO_HH
#define EV8_TRACE_TRACE_IO_HH

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/trace.hh"

namespace ev8
{

/** Error raised on malformed or truncated trace files. */
class TraceIoError : public std::runtime_error
{
  public:
    explicit TraceIoError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** Serializes @p trace to a stream. Throws TraceIoError on I/O failure. */
void writeTrace(std::ostream &out, const Trace &trace);

/** Serializes @p trace to @p path. */
void writeTraceFile(const std::string &path, const Trace &trace);

/**
 * Parses a serialized trace held in @p bytes. Throws TraceIoError on
 * malformed or truncated input; the record count is untrusted, so the
 * up-front allocation is bounded by the size of @p bytes.
 */
Trace readTrace(std::string_view bytes);

/** Reads the rest of @p in into one buffer, then parses it as above. */
Trace readTrace(std::istream &in);

/** Reads the whole file with one call, then parses it as above. */
Trace readTraceFile(const std::string &path);

} // namespace ev8

#endif // EV8_TRACE_TRACE_IO_HH
