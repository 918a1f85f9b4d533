#include "frontend/pipeline.hh"

namespace ev8
{

FrontEndPipeline::FrontEndPipeline(unsigned line_log2_entries,
                                   unsigned line_redirect_penalty,
                                   unsigned branch_penalty)
    : linePred(line_log2_entries),
      lineRedirectPenalty(line_redirect_penalty),
      branchPenalty(branch_penalty)
{
}

void
FrontEndPipeline::onBlock(uint64_t address, unsigned instrs,
                          bool branch_mispredicted)
{
    ++stats_.blocks;
    stats_.instructions += instrs;

    // Two fetch blocks per cycle: charge one cycle every other block.
    if (slotParity == 0)
        ++stats_.cycles;
    slotParity ^= 1;

    // Line-prediction check: did the line predictor steer fetch from the
    // previous block to this one?
    if (havePrev) {
        if (linePred.predict(prevAddr) != address) {
            ++stats_.lineMispredicts;
            stats_.cycles += lineRedirectPenalty;
            slotParity = 0; // redirect restarts the fetch pair
        }
        linePred.train(prevAddr, address);
    }
    havePrev = true;
    prevAddr = address;

    if (branch_mispredicted) {
        ++stats_.branchMispredicts;
        stats_.cycles += branchPenalty;
        slotParity = 0;
    }
}

void
FrontEndPipeline::clear()
{
    linePred.clear();
    stats_ = FrontEndStats{};
    havePrev = false;
    prevAddr = 0;
    slotParity = 0;
}

} // namespace ev8
