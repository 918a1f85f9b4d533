/**
 * @file
 * Backup-predictor hierarchy -- the paper's Section 9 proposal: keep
 * the fast global-history predictor as the primary, and add a backup
 * predictor with a *different information vector* (e.g. a perceptron)
 * that targets the branches the primary gets wrong, arbitrated by a
 * chooser. (Timing-wise the backup would deliver later; accuracy-wise,
 * this class measures what the combination buys.)
 */

#ifndef EV8_PREDICTORS_HIERARCHY_HH
#define EV8_PREDICTORS_HIERARCHY_HH

#include <string>

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class HierarchyPredictor : public ConditionalBranchPredictor
{
  public:
    /**
     * @param primary the fast first-level predictor (owns)
     * @param backup the slower backup predictor (owns)
     * @param log2_chooser chooser table entries (PC-indexed 2-bit:
     *        taken = trust the backup)
     */
    HierarchyPredictor(PredictorPtr primary, PredictorPtr backup,
                       unsigned log2_chooser, std::string label);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

    /** Fraction of predictions the chooser gave to the backup. */
    double backupUseRate() const;

  private:
    size_t chooserIndex(uint64_t pc) const;

    PredictorPtr primary;
    PredictorPtr backup;
    unsigned log2Chooser;
    TwoBitCounterTable chooser;
    std::string label;

    bool lastPrimary = false;
    bool lastBackup = false;
    uint64_t lookups = 0;
    uint64_t backupUsed = 0;
};

} // namespace ev8

#endif // EV8_PREDICTORS_HIERARCHY_HH
