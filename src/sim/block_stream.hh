/**
 * @file
 * Pre-decoded fetch-block streams: the cache-linear form of a trace.
 *
 * Reconstructing fetch blocks from the raw branch records
 * (FetchBlockBuilder) is pure per-trace work, yet the experiment grids
 * re-ran it for every (benchmark x configuration) cell -- ~11 times per
 * benchmark for a figure regeneration. A BlockStream is the result of
 * running the builder exactly once, flattened into structure-of-arrays
 * storage the simulation kernel can stream through linearly:
 *
 *  - per block: the block address, an info byte packing the instruction
 *    count (1..8) and the ends-taken flag, and a prefix index into the
 *    branch array;
 *  - per conditional branch: one byte packing the in-block instruction
 *    slot (0..7) and the outcome bit. The branch PC is reconstructed as
 *    blockAddr + slot * kInstrBytes, so a million-branch trace costs
 *    ~1 byte per branch instead of a 17-byte BranchRecord re-decoded
 *    per cell.
 *
 * The block sequence is exactly what FetchBlockBuilder::feed/flush
 * emits for the trace, including zero-branch alignment blocks, so a
 * simulation over the stream is bit-for-bit equivalent to one over the
 * trace. BlockStreamBuilder is the one way to build the data from
 * branch records: it takes them one at a time, so TraceCache feeds it
 * straight from trace synthesis and never holds the Trace, and
 * decodeBlockStream() is the same builder run over a Trace already in
 * memory. The binary serialization (readBlockStream/writeBlockStream)
 * exists so TraceCache can persist built streams; a reader parses the
 * whole file from one in-memory buffer.
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

namespace ev8
{

class Trace; // trace/trace.hh

/** The flattened fetch-block form of one trace. */
class BlockStream
{
  public:
    /** Blocks in fetch order (including zero-branch alignment blocks). */
    size_t blocks() const { return addr_.size(); }

    /** Total conditional branches across all blocks. */
    size_t branches() const { return branchSlot_.size(); }

    /** Instructions the underlying trace represents. */
    uint64_t instructions() const { return instructions_; }

    /** Name of the trace this stream was decoded from. */
    const std::string &name() const { return name_; }

    /** Address of the first instruction of block @p b. */
    uint64_t blockAddr(size_t b) const { return addr_[b]; }

    /** Instructions in block @p b (1..8). */
    unsigned blockInstrs(size_t b) const { return info_[b] >> 1; }

    /** One past the last instruction of block @p b. */
    uint64_t
    blockEndPc(size_t b) const
    {
        return addr_[b] + uint64_t{blockInstrs(b)} * kInstrBytes;
    }

    /** True when block @p b was ended by a taken CTI (vs. alignment). */
    bool blockEndsTaken(size_t b) const { return (info_[b] & 1) != 0; }

    /**
     * Index of block @p b's first branch in the flat branch array;
     * valid for b in [0, blocks()], with branchBegin(blocks()) ==
     * branches(). Block b owns branches [branchBegin(b),
     * branchBegin(b + 1)).
     */
    uint32_t branchBegin(size_t b) const { return branchBegin_[b]; }

    /** Conditional branches in block @p b (0..8). */
    unsigned
    numBranches(size_t b) const
    {
        return branchBegin_[b + 1] - branchBegin_[b];
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
        return addr_[b]
            + uint64_t{branchSlot(branchBegin_[b] + k)} * kInstrBytes;
    }

    /** Outcome of branch @p k inside block @p b. */
    bool
    branchTakenIn(size_t b, unsigned k) const
    {
        assert(k < numBranches(b));
        return branchTaken(branchBegin_[b] + k);
    }

    bool operator==(const BlockStream &) const = default;

  private:
    friend class BlockStreamBuilder;
    friend BlockStream readBlockStream(std::string_view bytes);

    std::string name_;
    uint64_t instructions_ = 0;
    std::vector<uint64_t> addr_;        //!< per block: address
    std::vector<uint8_t> info_;         //!< per block: instrs<<1 | taken
    std::vector<uint32_t> branchBegin_; //!< per block + 1: prefix index
    std::vector<uint8_t> branchSlot_;   //!< per branch: slot<<1 | taken
};

/**
 * Builds a BlockStream from a trace's branch records, fed in order.
 * FetchBlockBuilder (the paper's section 2 fetch-block rule) cuts the
 * blocks; the builder flattens each one as it is emitted and counts
 * the trace's instructions in the same pass. Deterministic: equal
 * record sequences build equal streams.
 */
class BlockStreamBuilder
{
  public:
    /**
     * Starts the stream @p name, whose first record follows @p start_pc.
     * @p expected_branches, when known, sizes the arrays up front (a
     * stream has about as many blocks as branches), sparing the
     * copies and page faults of growing them record by record.
     */
    BlockStreamBuilder(std::string name, uint64_t start_pc,
                       uint64_t expected_branches = 0);

    /**
     * Consumes one branch record. Throws TraceIoError once the stream
     * would hold more than 2^32 - 1 branches (the prefix array is 32-bit).
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
        stream_.addr_.push_back(block.address);
        stream_.info_.push_back(static_cast<uint8_t>(
            (block.numInstrs() << 1) | (block.endsTaken ? 1 : 0)));
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
        stream_.branchBegin_.push_back(
            static_cast<uint32_t>(stream_.branchSlot_.size()));
    }

    [[noreturn]] static void tooManyBranches();

    BlockStream stream_;
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
 * malformed or truncated input; header counts are untrusted, so the
 * up-front allocation is bounded by the size of @p bytes.
 */
BlockStream readBlockStream(std::string_view bytes);

/** Reads the rest of @p in into one buffer, then parses it as above. */
BlockStream readBlockStream(std::istream &in);

/** Reads the whole file with one call, then parses it as above. */
BlockStream readBlockStreamFile(const std::string &path);

} // namespace ev8

#endif // EV8_SIM_BLOCK_STREAM_HH
