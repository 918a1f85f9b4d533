/**
 * @file
 * The enhanced skewed branch predictor e-gskew of Michaud, Seznec &
 * Uhlig [15]: three banks of 2-bit counters -- a bimodal bank indexed by
 * address only, plus two banks indexed by distinct skewing functions of
 * (address, history) -- combined by majority vote, trained with partial
 * update. The single-scheme building block of 2Bc-gskew (Section 4.1).
 */

#ifndef EV8_PREDICTORS_EGSKEW_HH
#define EV8_PREDICTORS_EGSKEW_HH

#include <array>

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class EgskewPredictor final : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_entries entries per bank (three equal banks)
     * @param history_length global history bits in the skewed indices
     * @param partial_update partial (true, the "enhanced" policy) or
     *        total update (false), for the update-policy ablation
     */
    EgskewPredictor(unsigned log2_entries, unsigned history_length,
                    bool partial_update = true);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;

    /**
     * Fused predict-and-train step for the multi-lane kernel: one
     * computeIndices() pass serves both the majority vote and the
     * update policy (the split predict()/update() pair recomputes the
     * three skewed indices and re-reads the banks in update()). Table
     * transitions are identical to predict() followed by update().
     */
    bool predictAndUpdate(const BranchSnapshot &snap, bool taken) override;

    uint64_t storageBits() const override;
    std::string name() const override;
    VoteSnapshot lastVotes() const override;
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const override;

  private:
    void computeIndices(const BranchSnapshot &snap);

    /** Trains on the outcome using the already-computed idx/vote. */
    void applyUpdate(bool taken, bool predicted_taken);

    unsigned log2Entries;
    unsigned histLen;
    bool partialUpdate;
    std::array<TwoBitCounterTable, 3> banks;

    // Lookup state cached between predict() and update().
    std::array<size_t, 3> idx{};
    std::array<bool, 3> vote{};

    // Per-bank vote tallies (bank0 = bimodal, 1/2 = skewed).
    struct BankTally
    {
        uint64_t lookups = 0;
        uint64_t conflicts = 0; //!< vote against the resolved outcome
        uint64_t agree = 0;     //!< vote matching the majority decision
    };
    std::array<BankTally, 3> tallies{};
    uint64_t unanimous = 0;
};

} // namespace ev8

#endif // EV8_PREDICTORS_EGSKEW_HH
