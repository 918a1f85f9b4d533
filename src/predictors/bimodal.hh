/**
 * @file
 * Smith's bimodal predictor [21]: a table of 2-bit counters indexed by
 * branch address. The baseline component of every hybrid in the paper.
 */

#ifndef EV8_PREDICTORS_BIMODAL_HH
#define EV8_PREDICTORS_BIMODAL_HH

#include <vector>

#include "common/simd.hh"
#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class BimodalPredictor final : public ConditionalBranchPredictor
{
  public:
    /** @param log2_entries table holds 2^log2_entries 2-bit counters. */
    explicit BimodalPredictor(unsigned log2_entries);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;

    /** Scalar-stepper entry points; see GsharePredictor::laneIndex(). */
    size_t laneIndex(const BranchSnapshot &snap) const
    {
        return index(snap.pc);
    }
    bool applyAt(size_t idx, bool taken)
    {
        return table.readAndUpdate(idx, taken);
    }

    /** Group stepper; see GsharePredictor::FusedGroup. */
    class FusedGroup
    {
      public:
        FusedGroup(BimodalPredictor *const *preds, size_t nlanes);
        FusedGroup(const FusedGroup &) = delete;
        FusedGroup &operator=(const FusedGroup &) = delete;

        /** Advances every lane over one branch; tallies into misp[l]. */
        void step(const BranchSnapshot &snap, bool taken, uint64_t *misp);

      private:
        template <class Vec>
        void stepVec(const BranchSnapshot &snap, bool taken,
                     uint64_t *misp);
        void stepVecAvx2(const BranchSnapshot &snap, bool taken,
                         uint64_t *misp);

        simd::Backend backend_ = simd::Backend::Off;
        std::vector<BimodalPredictor *> lanes_;
        size_t paddedLanes_ = 0;
        std::vector<uint64_t> idxMask_, wordBase_;
    };

  private:
    size_t index(uint64_t pc) const;

    unsigned log2Entries;
    TwoBitCounterTable table;
};

} // namespace ev8

#endif // EV8_PREDICTORS_BIMODAL_HH
