/**
 * @file
 * Pre-decoded fetch-block streams: the cache-linear form of a trace.
 *
 * Reconstructing fetch blocks from the raw branch records
 * (FetchBlockBuilder) is pure per-trace work, yet the experiment grids
 * re-ran it for every (benchmark x configuration) cell -- ~11 times per
 * benchmark for a figure regeneration. A BlockStream is the result of
 * running the builder exactly once, flattened into storage the
 * simulation kernel can stream through linearly.
 *
 * A dynamic stream is a long walk over a small set of static block
 * shapes (Section 2: a fetch block is up to eight sequential
 * instructions ending at an aligned row or a taken CTI, so its shape is
 * fixed by where it starts and how it ends). The stream stores:
 *
 *  - a table of the distinct shapes {address, instruction count,
 *    ends-taken flag, branch count}, numbered in order of first
 *    appearance -- tens to a few thousand per benchmark;
 *  - one 32-bit shape id per dynamic block;
 *  - one byte per conditional branch packing the in-block instruction
 *    slot (0..7) and the outcome bit. The branch PC is reconstructed as
 *    the shape's address + slot * kInstrBytes;
 *  - the flat branch index of every 64th block, so branchBegin(b) is
 *    one checkpoint plus at most 63 adds. The hot walks never call it
 *    per block: they keep a running branch index from their range start.
 *
 * That is 4 bytes per block and 1 per branch: 7.1 bytes per branch
 * over the suite at 4M branches per benchmark, whose streams hold
 * 1.05-2.41 blocks per branch, instead of a 17-byte BranchRecord
 * re-decoded per cell.
 *
 * The block sequence is exactly what FetchBlockBuilder::feed/flush
 * emits for the trace, including zero-branch alignment blocks, so a
 * simulation over the stream is bit-for-bit equivalent to one over the
 * trace. BlockStreamBuilder is the one way to build the data from
 * branch records: it takes them one at a time, so TraceCache feeds it
 * straight from trace synthesis and never holds the Trace, and
 * decodeBlockStream() is the same builder run over a Trace already in
 * memory. The binary serialization (readBlockStream/writeBlockStream)
 * persists the shape table and the ids as they are, so a reader never
 * dedupes; it parses the whole file from one in-memory buffer.
 *
 * The stream is also the unit of sharing for fused multi-configuration
 * simulation (simulateStreamFused): because the data is immutable and
 * the walk order is defined entirely by the stream, N predictor lanes
 * can consume one linear pass concurrently with no per-lane decode or
 * history state of their own.
 */

#ifndef EV8_SIM_BLOCK_STREAM_HH
#define EV8_SIM_BLOCK_STREAM_HH

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "frontend/fetch_block.hh"
#include "trace/branch_record.hh"
#include "trace/trace.hh"

namespace ev8
{

/** One distinct fetch-block shape: a block minus its branch outcomes. */
struct BlockShape
{
    uint64_t address = 0;    //!< address of the first instruction
    uint8_t instrs = 0;      //!< instructions in the block (1..8)
    bool endsTaken = false;  //!< ended by a taken CTI (vs. alignment)
    uint8_t numBranches = 0; //!< conditional branches (0..instrs)

    bool operator==(const BlockShape &) const = default;
};

/**
 * Open-addressed dedup index over a shape table: maps a shape to its id
 * in the table. Each slot holds the shape's key beside its id, so a
 * probe touches one slot and never the table. Sized to the table (a
 * few thousand shapes per suite benchmark), so it stays cache-resident
 * while a stream is built.
 */
class BlockShapeIndex
{
  public:
    /**
     * Id of @p shape in @p shapes, appending it first when new. Throws
     * TraceIoError once the table would need a 2^32nd id.
     */
    uint32_t
    intern(std::vector<BlockShape> &shapes, const BlockShape &shape)
    {
        const uint32_t meta = pack(shape);
        const size_t mask = slots_.size() - 1;
        for (size_t i = hash(shape.address, meta) & mask;;
             i = (i + 1) & mask) {
            const Slot &slot = slots_[i];
            if (slot.address == shape.address && slot.meta == meta)
                return slot.id;
            if (slot.meta == 0)
                return insert(shapes, shape, i);
        }
    }

  private:
    /** A used slot's meta is nonzero: instrs is at least 1. */
    struct Slot
    {
        uint64_t address = 0;
        uint32_t meta = 0; //!< pack() of the shape, 0 = empty
        uint32_t id = 0;
    };

    static uint32_t
    pack(const BlockShape &s)
    {
        return s.instrs | (uint32_t{s.endsTaken} << 4)
            | (uint32_t{s.numBranches} << 5);
    }

    static size_t
    hash(uint64_t address, uint32_t meta)
    {
        return static_cast<size_t>(
            ((address ^ (uint64_t{meta} << 52)) * 0x9e3779b97f4a7c15ULL)
            >> 32);
    }

    uint32_t insert(std::vector<BlockShape> &shapes,
                    const BlockShape &shape, size_t slot);

    std::vector<Slot> slots_ = std::vector<Slot>(64);
};

/** The flattened fetch-block form of one trace. */
class BlockStream
{
  public:
    /** Blocks between two branch-index checkpoints. */
    static constexpr size_t kCheckpointBlocks = 64;

    /** Blocks in fetch order (including zero-branch alignment blocks). */
    size_t blocks() const { return shapeId_.size(); }

    /** Total conditional branches across all blocks. */
    size_t branches() const { return branchSlot_.size(); }

    /** Distinct block shapes (the size of the shape table). */
    size_t shapes() const { return shapes_.size(); }

    /** Instructions the underlying trace represents. */
    uint64_t instructions() const { return instructions_; }

    /** Name of the trace this stream was decoded from. */
    const std::string &name() const { return name_; }

    /**
     * The Table 2 statistics of the trace this stream was built from,
     * equal to its Trace::stats(), in one pass over the blocks. A
     * branch PC is its shape's address + slot * kInstrBytes; every
     * taken CTI ends a block, so the dynamic CTI count is the blocks
     * ended taken plus the not-taken conditional branches.
     */
    TraceStats stats() const;

    /** The shape of block @p b. */
    const BlockShape &
    blockShape(size_t b) const
    {
        return shapes_[shapeId_[b]];
    }

    /** Address of the first instruction of block @p b. */
    uint64_t blockAddr(size_t b) const { return blockShape(b).address; }

    /** Instructions in block @p b (1..8). */
    unsigned blockInstrs(size_t b) const { return blockShape(b).instrs; }

    /** One past the last instruction of block @p b. */
    uint64_t
    blockEndPc(size_t b) const
    {
        return blockAddr(b) + uint64_t{blockInstrs(b)} * kInstrBytes;
    }

    /** True when block @p b was ended by a taken CTI (vs. alignment). */
    bool blockEndsTaken(size_t b) const { return blockShape(b).endsTaken; }

    /** Conditional branches in block @p b (0..8). */
    unsigned numBranches(size_t b) const { return blockShape(b).numBranches; }

    /**
     * Index of block @p b's first branch in the flat branch array;
     * valid for b in [0, blocks()], with branchBegin(blocks()) ==
     * branches(). Block b owns branches [branchBegin(b),
     * branchBegin(b) + numBranches(b)). One checkpoint plus at most
     * kCheckpointBlocks - 1 adds: walk a range with a running index
     * rather than calling this per block.
     */
    uint32_t
    branchBegin(size_t b) const
    {
        size_t i = b & ~(kCheckpointBlocks - 1);
        uint32_t j = checkpoint_[i / kCheckpointBlocks];
        for (; i < b; ++i)
            j += numBranches(i);
        return j;
    }

    /** Packed (slot << 1 | taken) byte of flat branch @p j. */
    uint8_t branchRaw(size_t j) const { return branchSlot_[j]; }

    /** In-block instruction slot (0..7) of flat branch @p j. */
    unsigned branchSlot(size_t j) const { return branchSlot_[j] >> 1; }

    /** Outcome of flat branch @p j. */
    bool branchTaken(size_t j) const { return (branchSlot_[j] & 1) != 0; }

    /** PC of branch @p k (0-based) inside block @p b. */
    uint64_t
    branchPc(size_t b, unsigned k) const
    {
        assert(k < numBranches(b));
        return blockAddr(b)
            + uint64_t{branchSlot(branchBegin(b) + k)} * kInstrBytes;
    }

    /** Outcome of branch @p k inside block @p b. */
    bool
    branchTakenIn(size_t b, unsigned k) const
    {
        assert(k < numBranches(b));
        return branchTaken(branchBegin(b) + k);
    }

    /**
     * Member-wise, which is the same as comparing the block sequences:
     * the builder and the reader both number shapes in order of first
     * appearance, so equal sequences have equal tables and ids.
     */
    bool operator==(const BlockStream &) const = default;

  private:
    friend class BlockStreamBuilder;
    friend BlockStream readBlockStream(std::string_view bytes);
    friend void writeBlockStream(std::ostream &out,
                                 const BlockStream &stream);

    /**
     * Appends a block of shape @p id whose branches end at flat index
     * @p branch_end, checkpointing every kCheckpointBlocks blocks.
     */
    void
    appendBlock(uint32_t id, uint32_t branch_end)
    {
        shapeId_.push_back(id);
        if (shapeId_.size() % kCheckpointBlocks == 0)
            checkpoint_.push_back(branch_end);
    }

    std::string name_;
    uint64_t instructions_ = 0;
    std::vector<BlockShape> shapes_;   //!< distinct shapes, first-seen order
    std::vector<uint32_t> shapeId_;    //!< per block: index into shapes_
    std::vector<uint32_t> checkpoint_ = {0}; //!< branchBegin(64 k)
    std::vector<uint8_t> branchSlot_;  //!< per branch: slot<<1 | taken
};

/**
 * Builds a BlockStream from a trace's branch records, fed in order.
 * FetchBlockBuilder (the paper's section 2 fetch-block rule) cuts the
 * blocks; the builder interns each one's shape and flattens its
 * branches as it is emitted, and counts the trace's instructions in the
 * same pass. Deterministic: equal record sequences build equal streams.
 */
class BlockStreamBuilder
{
  public:
    /**
     * Upper bound on blocks per branch that the up-front reservation
     * covers. The suite streams hold 1.05 (gcc) to 2.41 (go) blocks per
     * branch; reserving for this many means no production synthesis
     * reallocates its id array. Capacity the stream never touches costs
     * address space, not resident memory.
     */
    static constexpr uint64_t kBlocksPerBranchReserve = 3;

    /**
     * Starts the stream @p name, whose first record follows @p start_pc.
     * @p expected_branches, when known, sizes the arrays up front,
     * sparing the copies and page faults of growing them record by
     * record.
     */
    BlockStreamBuilder(std::string name, uint64_t start_pc,
                       uint64_t expected_branches = 0);

    /**
     * Consumes one branch record. Throws TraceIoError once the stream
     * would hold more than 2^32 - 1 branches (branch indices are 32-bit).
     */
    void
    feed(const BranchRecord &rec)
    {
        stream_.instructions_ += (rec.pc - flowPc_) / kInstrBytes + 1;
        flowPc_ = rec.nextPc();
        blocks_.feed(rec, [this](const FetchBlock &b) { append(b); });
    }

    /** Closes the final partial block and hands over the stream. */
    BlockStream finish();

  private:
    void
    append(const FetchBlock &block)
    {
        for (unsigned i = 0; i < block.numBranches; ++i) {
            const BlockBranch &br = block.branches[i];
            const uint64_t slot = (br.pc - block.address) / kInstrBytes;
            assert(slot < kFetchBlockInstrs);
            stream_.branchSlot_.push_back(static_cast<uint8_t>(
                (slot << 1) | (br.taken ? 1 : 0)));
        }
        if (stream_.branchSlot_.size()
            > std::numeric_limits<uint32_t>::max())
            tooManyBranches();
        const BlockShape shape{block.address,
                               static_cast<uint8_t>(block.numInstrs()),
                               block.endsTaken, block.numBranches};
        stream_.appendBlock(
            index_.intern(stream_.shapes_, shape),
            static_cast<uint32_t>(stream_.branchSlot_.size()));
    }

    [[noreturn]] static void tooManyBranches();

    BlockStream stream_;
    BlockShapeIndex index_;
    FetchBlockBuilder blocks_;
    uint64_t flowPc_;
};

/**
 * BlockStreamBuilder run over @p trace's records: the stream of a Trace
 * already in memory. Deterministic: equal traces decode to equal streams.
 */
BlockStream decodeBlockStream(const Trace &trace);

/**
 * Serializes @p stream to a stream / file. Throws TraceIoError on I/O
 * failure. The format is versioned (see block_stream.cc); readers of a
 * different version reject the file.
 */
void writeBlockStream(std::ostream &out, const BlockStream &stream);
void writeBlockStreamFile(const std::string &path,
                          const BlockStream &stream);

/**
 * Parses a serialized stream held in @p bytes. Throws TraceIoError on
 * malformed or truncated input, or on a shape table that is not the
 * builder's (a duplicate, unused or out-of-order shape); header counts
 * are untrusted, so the up-front allocation is bounded by the size of
 * @p bytes.
 */
BlockStream readBlockStream(std::string_view bytes);

/** Reads the rest of @p in into one buffer, then parses it as above. */
BlockStream readBlockStream(std::istream &in);

/** Reads the whole file with one call, then parses it as above. */
BlockStream readBlockStreamFile(const std::string &path);

} // namespace ev8

#endif // EV8_SIM_BLOCK_STREAM_HH
