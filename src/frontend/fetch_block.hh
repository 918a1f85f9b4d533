/**
 * @file
 * Fetch-block reconstruction from a branch trace.
 *
 * Section 2 of the paper: "An instruction fetch block consists of all
 * consecutive valid instructions fetched from the I-cache: an
 * instruction fetch block ends either at the end of an aligned
 * 8-instruction block or on a taken control flow instruction. Not taken
 * conditional branches do not end a fetch block." Up to 8 conditional
 * branches may therefore live in one fetch block, and the EV8 predictor
 * predicts all of them with a single table access.
 */

#ifndef EV8_FRONTEND_FETCH_BLOCK_HH
#define EV8_FRONTEND_FETCH_BLOCK_HH

#include <array>
#include <cassert>
#include <cstdint>

#include "trace/branch_record.hh"

namespace ev8
{

/** Instructions per aligned fetch row (and max per fetch block). */
constexpr unsigned kFetchBlockInstrs = 8;

/** Byte span of an aligned fetch row. */
constexpr uint64_t kFetchBlockBytes = kFetchBlockInstrs * kInstrBytes;

/** A conditional branch inside a fetch block. */
struct BlockBranch
{
    uint64_t pc = 0;     //!< address of the conditional branch
    bool taken = false;  //!< its actual outcome
};

/**
 * One dynamic fetch block: up to 8 sequential instructions, with the
 * conditional branches it contains recorded in fetch order.
 */
struct FetchBlock
{
    uint64_t address = 0;      //!< address of the first instruction
    uint64_t endPc = 0;        //!< one past the last instruction
    bool endsTaken = false;    //!< ended by a taken CTI (vs. alignment)
    uint64_t takenTarget = 0;  //!< target of the ending CTI if endsTaken
    uint8_t numBranches = 0;   //!< conditional branches in the block
    std::array<BlockBranch, kFetchBlockInstrs> branches{};

    /** Instructions in the block (1..8). */
    unsigned
    numInstrs() const
    {
        return static_cast<unsigned>((endPc - address) / kInstrBytes);
    }

    /** Address of the fetch block following this one in fetch order. */
    uint64_t nextAddress() const { return endsTaken ? takenTarget : endPc; }

    /** The last conditional branch of the block (numBranches > 0). */
    const BlockBranch &
    lastBranch() const
    {
        assert(numBranches > 0);
        return branches[numBranches - 1u];
    }

    void
    addBranch(uint64_t pc, bool taken)
    {
        assert(numBranches < kFetchBlockInstrs);
        branches[numBranches++] = BlockBranch{pc, taken};
    }
};

/**
 * Incremental fetch-block builder. Feed it the trace's branch records in
 * order; it emits completed FetchBlocks through a caller-supplied sink
 * (any callable taking const FetchBlock &). Streaming keeps memory flat
 * regardless of trace length.
 */
class FetchBlockBuilder
{
  public:
    /** Starts (or restarts) block construction at @p start_pc. */
    void begin(uint64_t start_pc);

    /**
     * Consumes one branch record. All sequential instructions between
     * the previous record and this one are accounted for; each
     * alignment-closed block is emitted through @p sink, and if the
     * record is a taken CTI the block it terminates is emitted too.
     */
    template <typename Sink>
    void
    feed(const BranchRecord &rec, Sink &&sink)
    {
        assert(rec.pc >= blockStart && "records must run forward");

        // Close alignment-bounded blocks that end before this CTI.
        while (rowEnd(blockStart) <= rec.pc) {
            emitAligned(rowEnd(blockStart), sink);
        }

        if (rec.isConditional())
            current.addBranch(rec.pc, rec.taken);

        if (rec.taken) {
            // A taken CTI ends the fetch block at this instruction.
            current.address = blockStart;
            current.endPc = rec.pc + kInstrBytes;
            current.endsTaken = true;
            current.takenTarget = rec.target;
            sink(static_cast<const FetchBlock &>(current));
            resetAt(rec.target);
        } else if (rec.pc + kInstrBytes == rowEnd(blockStart)) {
            // Not-taken branch on the last slot of the aligned row: the
            // row boundary closes the block.
            emitAligned(rowEnd(blockStart), sink);
        }
    }

    /**
     * Emits the final partial block, if any instructions are pending.
     * Only meaningful at end of trace; the partial block is closed as if
     * by the alignment boundary.
     */
    template <typename Sink>
    void
    flush(Sink &&sink)
    {
        if (current.numBranches > 0) {
            current.address = blockStart;
            current.endPc = rowEnd(blockStart);
            current.endsTaken = false;
            current.takenTarget = 0;
            sink(static_cast<const FetchBlock &>(current));
        }
        resetAt(rowEnd(blockStart));
    }

    /** Address the next block will start at. */
    uint64_t currentBlockStart() const { return blockStart; }

  private:
    /** End address of the aligned 8-instruction row containing @p pc. */
    static uint64_t
    rowEnd(uint64_t pc)
    {
        return (pc & ~(kFetchBlockBytes - 1)) + kFetchBlockBytes;
    }

    template <typename Sink>
    void
    emitAligned(uint64_t end, Sink &&sink)
    {
        current.address = blockStart;
        current.endPc = end;
        current.endsTaken = false;
        current.takenTarget = 0;
        sink(static_cast<const FetchBlock &>(current));
        resetAt(end);
    }

    /**
     * Every emit path sets address/endPc/endsTaken/takenTarget before
     * the sink sees the block, and only branches[0, numBranches) is
     * meaningful, so clearing the count is a full reset.
     */
    void
    resetAt(uint64_t pc)
    {
        blockStart = pc;
        current.numBranches = 0;
    }

    uint64_t blockStart = 0;
    FetchBlock current{};
};

} // namespace ev8

#endif // EV8_FRONTEND_FETCH_BLOCK_HH
