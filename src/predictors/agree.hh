/**
 * @file
 * The agree predictor of Sprangle et al. [22]: converts destructive
 * aliasing into (mostly) constructive aliasing by predicting whether a
 * branch *agrees* with a per-branch bias bit, rather than its direction.
 * Branches aliasing onto the same agree counter usually both agree with
 * their biases, so they reinforce instead of fighting.
 *
 * The bias bit is established on a branch's first dynamic execution
 * (the hardware attaches it to the BTB/I-cache line; we model a
 * direct-mapped bias table).
 */

#ifndef EV8_PREDICTORS_AGREE_HH
#define EV8_PREDICTORS_AGREE_HH

#include <vector>

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class AgreePredictor : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_entries agree-table entries (2-bit counters)
     * @param history_length global history bits (gshare-style index)
     * @param log2_bias_entries bias-bit table entries
     */
    AgreePredictor(unsigned log2_entries, unsigned history_length,
                   unsigned log2_bias_entries);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    size_t agreeIndex(const BranchSnapshot &snap) const;
    size_t biasIndex(uint64_t pc) const;

    unsigned log2Entries;
    unsigned histLen;
    unsigned log2BiasEntries;
    TwoBitCounterTable agreeTable;
    std::vector<int8_t> bias; //!< -1 unset, 0 NT-biased, 1 T-biased
};

} // namespace ev8

#endif // EV8_PREDICTORS_AGREE_HH
