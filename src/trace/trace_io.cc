#include "trace/trace_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <iterator>
#include <ostream>

#include "trace/varint.hh"

namespace ev8
{

namespace
{

constexpr char kMagic[4] = {'E', 'V', '8', 'T'};
constexpr uint32_t kVersion = 1;

} // namespace

void
writeTrace(std::ostream &out, const Trace &trace)
{
    out.write(kMagic, sizeof(kMagic));
    putU32(out, kVersion);
    putU32(out, static_cast<uint32_t>(trace.name().size()));
    out.write(trace.name().data(),
              static_cast<std::streamsize>(trace.name().size()));
    putVarint(out, trace.startPc() / kInstrBytes);
    putVarint(out, trace.size());

    uint64_t flow_pc = trace.startPc();
    for (const auto &rec : trace.records()) {
        const uint8_t flags = static_cast<uint8_t>(rec.type)
            | (rec.taken ? 0x08 : 0x00);
        out.put(static_cast<char>(flags));
        putVarint(out, (rec.pc - flow_pc) / kInstrBytes);
        putVarint(out, zigzag(
            (static_cast<int64_t>(rec.target)
             - static_cast<int64_t>(rec.pc)) / 4));
        flow_pc = rec.nextPc();
    }
    if (!out)
        throw TraceIoError("write failure");
}

Trace
readTrace(std::string_view bytes)
{
    const std::string_view magic(kMagic, sizeof(kMagic));
    if (bytes.substr(0, magic.size()) != magic)
        throw TraceIoError("bad magic");
    ByteCursor in(bytes.substr(magic.size()));
    if (in.u32() != kVersion)
        throw TraceIoError("unsupported trace version");

    const uint32_t name_len = in.u32();
    if (name_len > (1u << 20))
        throw TraceIoError("implausible name length");
    std::string name(in.take(name_len, "truncated name"));

    const uint64_t start_pc = in.varint() * kInstrBytes;
    const uint64_t count = in.varint();

    Trace trace(std::move(name), start_pc);
    // The count is untrusted input: a record takes at least 3 bytes
    // (flags and two varints), so the bytes present bound the up-front
    // reservation. A lying header fails at the first missing record,
    // after bounded memory use.
    trace.records().reserve(static_cast<size_t>(
        std::min<uint64_t>(count, in.remaining() / 3)));

    uint64_t flow_pc = start_pc;
    for (uint64_t i = 0; i < count; ++i) {
        const uint8_t flags = in.byte("truncated record");
        if ((flags & 0x07) > static_cast<int>(BranchType::Indirect))
            throw TraceIoError("bad branch type");

        BranchRecord rec;
        rec.type = static_cast<BranchType>(flags & 0x07);
        rec.taken = (flags & 0x08) != 0;
        rec.pc = flow_pc + in.varint() * kInstrBytes;
        rec.target = static_cast<uint64_t>(
            static_cast<int64_t>(rec.pc) + unzigzag(in.varint()) * 4);
        flow_pc = rec.nextPc();
        trace.append(rec);
    }
    return trace;
}

Trace
readTrace(std::istream &in)
{
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    return readTrace(std::string_view(bytes));
}

void
writeTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceIoError("cannot open for writing: " + path);
    writeTrace(out, trace);
    out.flush();
    if (!out)
        throw TraceIoError("write failure: " + path);
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        throw TraceIoError("cannot open: " + path);
    const std::streamoff size = in.tellg();
    std::string bytes(size > 0 ? static_cast<size_t>(size) : 0, '\0');
    in.seekg(0);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (size < 0 || !in)
        throw TraceIoError("read failure: " + path);
    return readTrace(std::string_view(bytes));
}

} // namespace ev8
