#include "sim/block_stream.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "obs/trace_span.hh"
#include "trace/trace.hh"
#include "trace/varint.hh"

namespace ev8
{

namespace
{

constexpr char kMagic[4] = {'E', 'V', '8', 'S'};

/**
 * Bump when the serialized layout changes. Semantic changes to the
 * decode itself (FetchBlockBuilder behaviour) are covered by
 * TraceCache::kStreamFormatVersion in the cache file name; this version
 * only guards the byte layout below.
 */
constexpr uint32_t kVersion = 1;

} // namespace

BlockStreamBuilder::BlockStreamBuilder(std::string name,
                                       uint64_t start_pc,
                                       uint64_t expected_branches)
    : flowPc_(start_pc)
{
    stream_.name_ = std::move(name);
    const size_t expected = static_cast<size_t>(expected_branches);
    stream_.addr_.reserve(expected);
    stream_.info_.reserve(expected);
    stream_.branchBegin_.reserve(expected + 1);
    stream_.branchSlot_.reserve(expected);
    stream_.branchBegin_.push_back(0); // block 0's [begin, end) prefix
    blocks_.begin(start_pc);
}

BlockStream
BlockStreamBuilder::finish()
{
    blocks_.flush([this](const FetchBlock &b) { append(b); });
    return std::move(stream_);
}

void
BlockStreamBuilder::tooManyBranches()
{
    throw TraceIoError("block stream exceeds 2^32-1 branches");
}

BlockStream
decodeBlockStream(const Trace &trace)
{
    ScopedSpan span(SpanPhase::Decode);
    span.rename("decode:" + trace.name());
    span.arg("bench", trace.name());
    // Every branch is a record, so the record count bounds the branch
    // count; capacity beyond what is used is never touched, so it costs
    // address space, not resident memory.
    BlockStreamBuilder builder(trace.name(), trace.startPc(),
                               trace.size());
    for (const auto &rec : trace.records())
        builder.feed(rec);
    return builder.finish();
}

void
writeBlockStream(std::ostream &out, const BlockStream &stream)
{
    out.write(kMagic, sizeof(kMagic));
    putU32(out, kVersion);
    putU32(out, static_cast<uint32_t>(stream.name().size()));
    out.write(stream.name().data(),
              static_cast<std::streamsize>(stream.name().size()));
    putVarint(out, stream.instructions());
    putVarint(out, stream.blocks());
    putVarint(out, stream.branches());

    uint64_t prev_addr = 0;
    for (size_t b = 0; b < stream.blocks(); ++b) {
        const uint64_t addr = stream.blockAddr(b);
        putVarint(out, zigzag((static_cast<int64_t>(addr)
                               - static_cast<int64_t>(prev_addr))
                              / static_cast<int64_t>(kInstrBytes)));
        out.put(static_cast<char>((stream.blockInstrs(b) << 1)
                                  | (stream.blockEndsTaken(b) ? 1 : 0)));
        const unsigned nbr = stream.numBranches(b);
        out.put(static_cast<char>(nbr));
        for (unsigned k = 0; k < nbr; ++k)
            out.put(static_cast<char>(
                stream.branchRaw(stream.branchBegin(b) + k)));
        prev_addr = addr;
    }
    if (!out)
        throw TraceIoError("block stream write failure");
}

BlockStream
readBlockStream(std::string_view bytes)
{
    const std::string_view magic(kMagic, sizeof(kMagic));
    if (bytes.substr(0, magic.size()) != magic)
        throw TraceIoError("bad block stream magic");
    ByteCursor in(bytes.substr(magic.size()));
    if (in.u32() != kVersion)
        throw TraceIoError("unsupported block stream version");

    const uint32_t name_len = in.u32();
    if (name_len > (1u << 20))
        throw TraceIoError("implausible name length");
    BlockStream stream;
    stream.name_ = in.take(name_len, "truncated block stream name");

    stream.instructions_ = in.varint();
    const uint64_t block_count = in.varint();
    const uint64_t branch_count = in.varint();
    if (branch_count > std::numeric_limits<uint32_t>::max())
        throw TraceIoError("block stream exceeds 2^32-1 branches");
    // Untrusted header: a block takes at least 3 bytes (address delta,
    // info, branch count) and a branch 1, so the bytes actually present
    // bound the reservations. A lying count fails at the first missing
    // block, after bounded memory use.
    const size_t reserve_blocks = static_cast<size_t>(
        std::min<uint64_t>(block_count, in.remaining() / 3));
    stream.addr_.reserve(reserve_blocks);
    stream.info_.reserve(reserve_blocks);
    stream.branchBegin_.reserve(reserve_blocks + 1);
    stream.branchSlot_.reserve(static_cast<size_t>(
        std::min<uint64_t>(branch_count, in.remaining())));

    stream.branchBegin_.push_back(0);
    uint64_t prev_addr = 0;
    for (uint64_t b = 0; b < block_count; ++b) {
        const uint64_t addr = static_cast<uint64_t>(
            static_cast<int64_t>(prev_addr)
            + unzigzag(in.varint()) * static_cast<int64_t>(kInstrBytes));
        const uint8_t info = in.byte("truncated block");
        const unsigned nbr = in.byte("truncated block");
        const unsigned instrs = info >> 1u;
        if (instrs < 1 || instrs > kFetchBlockInstrs)
            throw TraceIoError("bad block instruction count");
        if (nbr > instrs)
            throw TraceIoError("bad block branch count");
        stream.addr_.push_back(addr);
        stream.info_.push_back(info);
        for (unsigned k = 0; k < nbr; ++k) {
            const uint8_t slot = in.byte("truncated branch");
            if ((slot >> 1u) >= instrs)
                throw TraceIoError("branch slot outside block");
            stream.branchSlot_.push_back(slot);
        }
        stream.branchBegin_.push_back(
            static_cast<uint32_t>(stream.branchSlot_.size()));
        prev_addr = addr;
    }
    if (stream.branches() != branch_count)
        throw TraceIoError("branch count mismatch");
    return stream;
}

BlockStream
readBlockStream(std::istream &in)
{
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    return readBlockStream(std::string_view(bytes));
}

void
writeBlockStreamFile(const std::string &path, const BlockStream &stream)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceIoError("cannot open for writing: " + path);
    try {
        writeBlockStream(out, stream);
        out.flush();
        if (!out)
            throw TraceIoError("write failure");
    } catch (const TraceIoError &err) {
        // Never leave a partial file behind under the target name: a
        // later reader would have to detect the truncation instead of
        // simply missing.
        out.close();
        std::error_code ec;
        std::filesystem::remove(path, ec);
        throw TraceIoError(std::string(err.what()) + " in " + path);
    }
}

BlockStream
readBlockStreamFile(const std::string &path)
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
    try {
        return readBlockStream(std::string_view(bytes));
    } catch (const TraceIoError &err) {
        // The low-level decoder cannot know the file name; re-throw
        // with the path so cache warnings and logs are actionable.
        throw TraceIoError(std::string(err.what()) + " in " + path);
    }
}

} // namespace ev8
