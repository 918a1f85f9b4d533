/**
 * @file
 * GAs: Yeh & Patt's global two-level adaptive predictor [27]. A single
 * global history register selects among per-address-set pattern tables:
 * the index concatenates low PC bits with the history. One of the
 * "aliased" global-history schemes the de-aliased predictors improved
 * upon (Section 4 background).
 */

#ifndef EV8_PREDICTORS_GAS_HH
#define EV8_PREDICTORS_GAS_HH

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class GasPredictor : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_entries total table size; the index is the
     *        concatenation {pc bits, history bits}
     * @param history_length history bits in the index (must be
     *        <= log2_entries; the remainder is PC bits)
     */
    GasPredictor(unsigned log2_entries, unsigned history_length);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    size_t index(const BranchSnapshot &snap) const;

    unsigned log2Entries;
    unsigned histLen;
    TwoBitCounterTable table;
};

} // namespace ev8

#endif // EV8_PREDICTORS_GAS_HH
