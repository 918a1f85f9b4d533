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
 * only guards the byte layout:
 *
 *   magic "EV8S", version u32, name length u32 + name bytes
 *   varint instructions, blocks, branches, shapes
 *   per shape:  zigzag varint address delta from the previous shape
 *               (bytes), u8 instrs << 1 | endsTaken, u8 branch count
 *   per block:  varint shape id
 *   per branch: u8 slot << 1 | taken
 */
constexpr uint32_t kVersion = 2;

/** Bytes the id writer buffers between writes to the ostream. */
constexpr size_t kWriteChunk = size_t{1} << 16;

} // namespace

uint32_t
BlockShapeIndex::insert(std::vector<BlockShape> &shapes,
                        const BlockShape &shape, size_t slot)
{
    if (shapes.size() >= std::numeric_limits<uint32_t>::max())
        throw TraceIoError("block stream exceeds 2^32-1 block shapes");
    const uint32_t id = static_cast<uint32_t>(shapes.size());
    shapes.push_back(shape);
    slots_[slot] = {shape.address, pack(shape), id};
    // Load factor at most 1/2 keeps probe chains short.
    if (shapes.size() * 2 > slots_.size()) {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        const size_t mask = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.meta == 0)
                continue;
            size_t i = hash(s.address, s.meta) & mask;
            while (slots_[i].meta != 0)
                i = (i + 1) & mask;
            slots_[i] = s;
        }
    }
    return id;
}

BlockStreamBuilder::BlockStreamBuilder(std::string name,
                                       uint64_t start_pc,
                                       uint64_t expected_branches)
    : flowPc_(start_pc)
{
    stream_.name_ = std::move(name);
    const size_t blocks =
        static_cast<size_t>(expected_branches * kBlocksPerBranchReserve);
    stream_.shapeId_.reserve(blocks);
    stream_.checkpoint_.reserve(blocks / BlockStream::kCheckpointBlocks
                                + 1);
    stream_.branchSlot_.reserve(static_cast<size_t>(expected_branches));
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

TraceStats
BlockStream::stats() const
{
    TraceStats s;
    s.dynamicCondBranches = branches();
    s.instructions = instructions_;
    // Per shape, the in-block slots that held a conditional branch.
    std::vector<uint8_t> slots(shapes_.size(), 0);
    uint32_t j = 0;
    for (const uint32_t id : shapeId_) {
        const BlockShape &shape = shapes_[id];
        s.dynamicBranches += shape.endsTaken ? 1 : 0;
        for (const uint32_t last = j + shape.numBranches; j < last; ++j) {
            const uint8_t raw = branchSlot_[j];
            slots[id] |= static_cast<uint8_t>(1u << (raw >> 1));
            s.takenCondBranches += raw & 1;
        }
    }
    s.dynamicBranches += s.dynamicCondBranches - s.takenCondBranches;

    std::vector<uint64_t> pcs;
    for (size_t id = 0; id < shapes_.size(); ++id) {
        for (unsigned slot = 0; slot < kFetchBlockInstrs; ++slot) {
            if ((slots[id] >> slot) & 1)
                pcs.push_back(shapes_[id].address
                              + uint64_t{slot} * kInstrBytes);
        }
    }
    std::sort(pcs.begin(), pcs.end());
    s.staticCondBranches = static_cast<uint64_t>(
        std::unique(pcs.begin(), pcs.end()) - pcs.begin());
    return s;
}

BlockStream
decodeBlockStream(const Trace &trace)
{
    ScopedSpan span(SpanPhase::Decode);
    span.rename("decode:" + trace.name());
    span.arg("bench", trace.name());
    // Every branch is a record, so the record count bounds the branch
    // count.
    BlockStreamBuilder builder(trace.name(), trace.startPc(),
                               trace.size());
    for (const auto &rec : trace.records())
        builder.feed(rec);
    return builder.finish();
}

void
writeBlockStream(std::ostream &out, const BlockStream &stream)
{
    std::string buf(kMagic, sizeof(kMagic));
    putU32(buf, kVersion);
    putU32(buf, static_cast<uint32_t>(stream.name().size()));
    buf += stream.name();
    putVarint(buf, stream.instructions());
    putVarint(buf, stream.blocks());
    putVarint(buf, stream.branches());
    putVarint(buf, stream.shapes());

    uint64_t prev_addr = 0;
    for (const BlockShape &s : stream.shapes_) {
        putVarint(buf, zigzag(static_cast<int64_t>(s.address - prev_addr)));
        buf += static_cast<char>((s.instrs << 1) | (s.endsTaken ? 1 : 0));
        buf += static_cast<char>(s.numBranches);
        prev_addr = s.address;
    }
    for (const uint32_t id : stream.shapeId_) {
        putVarint(buf, id);
        if (buf.size() >= kWriteChunk) {
            out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
            buf.clear();
        }
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    out.write(reinterpret_cast<const char *>(stream.branchSlot_.data()),
              static_cast<std::streamsize>(stream.branches()));
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
    const uint64_t shape_count = in.varint();
    if (branch_count > std::numeric_limits<uint32_t>::max())
        throw TraceIoError("block stream exceeds 2^32-1 branches");
    if (shape_count > block_count || (shape_count == 0) != (block_count == 0))
        throw TraceIoError("bad block shape count");

    // Untrusted header: a shape takes at least 3 bytes and a block id 1,
    // so the bytes actually present bound the reservations. A lying
    // count fails at the first missing entry, after bounded memory use.
    stream.shapes_.reserve(static_cast<size_t>(
        std::min<uint64_t>(shape_count, in.remaining() / 3)));
    BlockShapeIndex index;
    uint64_t prev_addr = 0;
    for (uint64_t id = 0; id < shape_count; ++id) {
        BlockShape s;
        s.address = prev_addr + static_cast<uint64_t>(unzigzag(in.varint()));
        const uint8_t info = in.byte("truncated block shape");
        s.instrs = info >> 1u;
        s.endsTaken = (info & 1u) != 0;
        s.numBranches = in.byte("truncated block shape");
        if (s.instrs < 1 || s.instrs > kFetchBlockInstrs)
            throw TraceIoError("bad block instruction count");
        if (s.numBranches > s.instrs)
            throw TraceIoError("bad block branch count");
        if (index.intern(stream.shapes_, s) != id)
            throw TraceIoError("duplicate block shape");
        prev_addr = s.address;
    }

    // Ids follow first-appearance order, so the next new shape is always
    // the lowest id not yet seen and every shape is used.
    const size_t reserve_blocks = static_cast<size_t>(
        std::min<uint64_t>(block_count, in.remaining()));
    stream.shapeId_.reserve(reserve_blocks);
    stream.checkpoint_.reserve(
        reserve_blocks / BlockStream::kCheckpointBlocks + 1);
    uint64_t seen = 0, branches = 0;
    for (uint64_t b = 0; b < block_count; ++b) {
        const uint64_t id = in.varint();
        if (id > seen || id >= shape_count)
            throw TraceIoError(id >= shape_count
                                   ? "block shape id out of range"
                                   : "block shape ids out of order");
        seen += id == seen;
        branches += stream.shapes_[id].numBranches;
        // Checked per block so the running sum cannot wrap the
        // checkpoints before the final count comparison.
        if (branches > branch_count)
            throw TraceIoError("branch count mismatch");
        stream.appendBlock(static_cast<uint32_t>(id),
                           static_cast<uint32_t>(branches));
    }
    if (seen != shape_count)
        throw TraceIoError("unused block shape");
    if (branches != branch_count)
        throw TraceIoError("branch count mismatch");

    const std::string_view slots = in.take(
        static_cast<size_t>(branch_count), "truncated branch");
    if (in.remaining() != 0)
        throw TraceIoError("trailing bytes after block stream");
    size_t j = 0;
    for (const uint32_t id : stream.shapeId_) {
        const BlockShape &s = stream.shapes_[id];
        for (unsigned k = 0; k < s.numBranches; ++k, ++j) {
            if ((static_cast<uint8_t>(slots[j]) >> 1u) >= s.instrs)
                throw TraceIoError("branch slot outside block");
        }
    }
    stream.branchSlot_.assign(slots.begin(), slots.end());
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
