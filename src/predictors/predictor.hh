/**
 * @file
 * The common conditional-branch-predictor interface.
 *
 * Every prediction scheme in the repository -- the baselines of Fig. 5,
 * the generic 2Bc-gskew, and the constrained EV8 predictor -- implements
 * this interface and is driven by the trace simulator in
 * src/sim/simulator.hh with the paper's immediate-update methodology
 * (Section 8.1.1).
 */

#ifndef EV8_PREDICTORS_PREDICTOR_HH
#define EV8_PREDICTORS_PREDICTOR_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/history.hh"

namespace ev8
{

class MetricRegistry; // obs/metrics.hh; only implementations need it

/**
 * Component votes of a predictor's most recent predict() call, for the
 * misprediction event trace. Schemes without vote structure (bimodal,
 * gshare, perceptron, ...) leave valid false; the 2Bc-gskew family fills
 * the per-table fields.
 */
struct VoteSnapshot
{
    bool valid = false;
    bool bim = false;
    bool g0 = false;
    bool g1 = false;
    bool meta = false;     //!< chooser selected the e-gskew majority
    bool majority = false; //!< the e-gskew majority vote
};

/**
 * Everything a predictor may look at when predicting one conditional
 * branch. The simulator fills it in; which fields a scheme consumes is
 * the scheme's business (a bimodal reads only pc; the EV8 predictor
 * reads blockAddr, hist.indexHist and the path fields).
 */
struct BranchSnapshot
{
    uint64_t pc = 0;        //!< address of the conditional branch
    uint64_t blockAddr = 0; //!< address of its fetch block
    HistoryView hist;       //!< history registers at lookup time
    uint8_t bank = 0;       //!< EV8 bank number assigned to the block
};

/**
 * Abstract conditional branch predictor.
 *
 * Contract: the simulator calls predict() and then update() for the
 * same dynamic branch, in order, with no interleaving (immediate
 * update). Implementations may therefore cache lookup state from the
 * last predict() call and reuse it in update().
 */
class ConditionalBranchPredictor
{
  public:
    virtual ~ConditionalBranchPredictor() = default;

    /** Predicts the direction of the branch described by @p snap. */
    virtual bool predict(const BranchSnapshot &snap) = 0;

    /**
     * Trains on the resolved outcome. @p predicted_taken is the value
     * predict() returned for this branch (some update policies depend
     * on whether the overall prediction was correct).
     */
    virtual void update(const BranchSnapshot &snap, bool taken,
                        bool predicted_taken) = 0;

    /**
     * Predicts and trains in one step, returning the prediction: the
     * entry point of the production walk. Schemes that would otherwise
     * recompute or re-cache lookup state (indices, votes) between
     * predict() and update() override it with a fused step that makes
     * identical transitions. The oracle's lane adapter keeps this
     * default, so the oracle reaches every scheme by the split calls.
     */
    virtual bool
    predictAndUpdate(const BranchSnapshot &snap, bool taken)
    {
        const bool predicted = predict(snap);
        update(snap, taken, predicted);
        return predicted;
    }

    /** Total memorization cost in bits, as the paper accounts it. */
    virtual uint64_t storageBits() const = 0;

    /** Scheme name with its configuration, e.g. "gshare-1M". */
    virtual std::string name() const = 0;

    /**
     * Votes of the most recent predict() call, for event tracing.
     * Base implementation: no vote structure to expose.
     */
    virtual VoteSnapshot
    lastVotes() const
    {
        return {};
    }

    /**
     * Publishes the scheme's internal tallies (per-bank conflicts,
     * agreement rates, array accesses, ...) into @p registry under
     * metric names starting with @p prefix (e.g. "pred.2Bc-gskew-512K").
     * Counters accumulate across calls, so a suite run publishing once
     * per benchmark yields suite-wide totals. Base: publishes nothing.
     */
    virtual void
    publishMetrics(MetricRegistry &registry, const std::string &prefix) const
    {
        (void)registry;
        (void)prefix;
    }

    /**
     * Turns per-branch internal bookkeeping (vote tallies, array-access
     * counters) on or off. Off by default so uninstrumented simulations
     * pay nothing; the harness enables it before runs that will call
     * publishMetrics(). Implementations with per-component state
     * override to forward the flag.
     */
    virtual void
    enableStats(bool on)
    {
        statsEnabled_ = on;
    }

    bool statsEnabled() const { return statsEnabled_; }

  private:
    bool statsEnabled_ = false;
};

using PredictorPtr = std::unique_ptr<ConditionalBranchPredictor>;

/** Formats a bit count the way the paper does ("352 Kbits"). */
std::string formatKbits(uint64_t bits);

} // namespace ev8

#endif // EV8_PREDICTORS_PREDICTOR_HH
