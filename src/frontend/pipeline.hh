/**
 * @file
 * Coarse timing model of the EV8 instruction-fetch front end (Section 2).
 *
 * The EV8 fetches up to two 8-instruction blocks per cycle. A fast but
 * inaccurate line predictor produces next-block addresses within the
 * cycle; the 2-cycle PC address generator (which contains the
 * conditional branch predictor) verifies them, redirecting fetch with a
 * 2-cycle bubble on disagreement. Conditional branch mispredictions cost
 * at least 14 cycles (branch resolution happens at cycle 14 or later).
 *
 * This model is used by the front-end example and the banking bench to
 * translate predictor accuracy into fetch-bandwidth terms; it is not a
 * cycle-accurate EV8 (none exists publicly).
 */

#ifndef EV8_FRONTEND_PIPELINE_HH
#define EV8_FRONTEND_PIPELINE_HH

#include <cstdint>

#include "frontend/fetch_block.hh"
#include "frontend/line_predictor.hh"

namespace ev8
{

/** Aggregate results of a front-end simulation. */
struct FrontEndStats
{
    uint64_t blocks = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t lineMispredicts = 0;
    uint64_t branchMispredicts = 0;

    /** Fetch throughput in instructions per cycle. */
    double
    fetchIpc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions)
                               / static_cast<double>(cycles);
    }

    /** Fraction of blocks whose successor the line predictor got right. */
    double
    lineAccuracy() const
    {
        return blocks == 0 ? 0.0
                           : 1.0 - static_cast<double>(lineMispredicts)
                               / static_cast<double>(blocks);
    }
};

/**
 * Walks a fetch-block stream, charging cycles for fetch slots, line
 * mispredictions, and conditional-branch mispredictions.
 */
class FrontEndPipeline
{
  public:
    /**
     * @param line_log2_entries line predictor size
     * @param line_redirect_penalty bubble when PC-address-generation
     *        overrides the line prediction (2-cycle pipeline, Fig. 1)
     * @param branch_penalty minimum branch misprediction penalty
     */
    explicit FrontEndPipeline(unsigned line_log2_entries = 12,
                              unsigned line_redirect_penalty = 2,
                              unsigned branch_penalty = 14);

    /**
     * Accounts for one fetched block. @p branch_mispredicted says
     * whether the conditional branch predictor mispredicted any branch
     * in this block (the caller runs the predictor).
     */
    void
    onBlock(const FetchBlock &block, bool branch_mispredicted)
    {
        onBlock(block.address, block.numInstrs(), branch_mispredicted);
    }

    /**
     * The same, for a block given by its start @p address and its
     * @p instrs instructions (a BlockStream walk holds no FetchBlock).
     */
    void onBlock(uint64_t address, unsigned instrs,
                 bool branch_mispredicted);

    const FrontEndStats &stats() const { return stats_; }
    const LinePredictor &linePredictor() const { return linePred; }

    void clear();

  private:
    LinePredictor linePred;
    unsigned lineRedirectPenalty;
    unsigned branchPenalty;
    FrontEndStats stats_;

    bool havePrev = false;
    uint64_t prevAddr = 0;
    uint64_t slotParity = 0; //!< two blocks share a cycle
};

} // namespace ev8

#endif // EV8_FRONTEND_PIPELINE_HH
