/**
 * @file
 * McFarling's gshare predictor [14]: a single table of 2-bit counters
 * indexed by (global history XOR branch address). The paper's large
 * "aliased" reference point (Fig. 5 uses a 1M-entry / 2 Mbit gshare).
 *
 * Histories longer than the index width are XOR-folded onto it, which
 * is how the paper explores history lengths wider than log2(size).
 */

#ifndef EV8_PREDICTORS_GSHARE_HH
#define EV8_PREDICTORS_GSHARE_HH

#include <vector>

#include "common/simd.hh"
#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class GsharePredictor final : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_entries table holds 2^log2_entries 2-bit counters
     * @param history_length global history bits consumed (may exceed
     *        log2_entries; the excess is XOR-folded)
     */
    GsharePredictor(unsigned log2_entries, unsigned history_length);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    unsigned historyLength() const { return histLen; }

    /**
     * Two-phase entry points for FusedGroup's scalar stepper: the pure
     * index computation (so N lanes' folds can be computed
     * back-to-back) and the combined counter read + train step (one
     * table-word access instead of the separate predict()/update()
     * pair, which each recompute the index).
     */
    size_t laneIndex(const BranchSnapshot &snap) const
    {
        return index(snap);
    }
    bool applyAt(size_t idx, bool taken)
    {
        return table.readAndUpdate(idx, taken);
    }

    /**
     * Group stepper for the fused kernel: advances every gshare lane
     * of a fused job through one branch. The vector path computes all
     * lanes' history folds, table indices, counter reads and masked
     * bitplane counter updates four lanes at a time; EV8_SIMD=0 falls
     * back to the per-lane two-phase step. Table transitions and
     * mispredict tallies are bit-identical either way.
     */
    class FusedGroup
    {
      public:
        FusedGroup(GsharePredictor *const *preds, size_t nlanes);
        FusedGroup(const FusedGroup &) = delete;
        FusedGroup &operator=(const FusedGroup &) = delete;

        /** Advances every lane over one branch; tallies into misp[l]. */
        void step(const BranchSnapshot &snap, bool taken, uint64_t *misp);

      private:
        template <class Vec>
        void stepVec(const BranchSnapshot &snap, bool taken,
                     uint64_t *misp);
        void stepVecScalar(const BranchSnapshot &snap, bool taken,
                           uint64_t *misp);
        void stepVecAvx2(const BranchSnapshot &snap, bool taken,
                         uint64_t *misp);

        simd::Backend backend_ = simd::Backend::Off;
        std::vector<GsharePredictor *> lanes_;
        size_t paddedLanes_ = 0;
        //! Per lane (padded; padding aliases lane 0, never written):
        //! index width, index mask, history mask, packed-word base.
        std::vector<uint64_t> n_, idxMask_, histMask_, wordBase_;
    };

  private:
    size_t index(const BranchSnapshot &snap) const;

    unsigned log2Entries;
    unsigned histLen;
    TwoBitCounterTable table;
};

} // namespace ev8

#endif // EV8_PREDICTORS_GSHARE_HH
