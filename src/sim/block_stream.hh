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
 * trace. decodeBlockStream() is the only constructor of the data; the
 * binary serialization (readBlockStream/writeBlockStream) exists so
 * TraceCache can persist decoded streams next to cached traces.
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
#include <string>
#include <vector>

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
    friend BlockStream decodeBlockStream(const Trace &trace);
    friend BlockStream readBlockStream(std::istream &in);

    std::string name_;
    uint64_t instructions_ = 0;
    std::vector<uint64_t> addr_;        //!< per block: address
    std::vector<uint8_t> info_;         //!< per block: instrs<<1 | taken
    std::vector<uint32_t> branchBegin_; //!< per block + 1: prefix index
    std::vector<uint8_t> branchSlot_;   //!< per branch: slot<<1 | taken
};

/**
 * Runs FetchBlockBuilder over @p trace once and flattens the emitted
 * block sequence. Deterministic: equal traces decode to equal streams.
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

/** Parses a serialized stream. Throws TraceIoError on malformed input. */
BlockStream readBlockStream(std::istream &in);
BlockStream readBlockStreamFile(const std::string &path);

} // namespace ev8

#endif // EV8_SIM_BLOCK_STREAM_HH
