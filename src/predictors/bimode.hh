/**
 * @file
 * The bi-mode predictor of Lee, Chen & Mudge [13]: a PC-indexed choice
 * table steers each branch to one of two gshare-indexed direction
 * tables, one serving mostly-taken and one mostly-not-taken branch
 * substreams. Segregating by bias removes most destructive aliasing.
 *
 * Fig. 5 of the paper uses two 128K-entry direction tables with a
 * 16K-entry choice table (544 Kbits); it notes that for large
 * predictors a choice table smaller than the direction tables is the
 * cost-effective configuration, so the sizes are independent here.
 */

#ifndef EV8_PREDICTORS_BIMODE_HH
#define EV8_PREDICTORS_BIMODE_HH

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class BimodePredictor final : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_direction entries in each of the two direction tables
     * @param log2_choice entries in the PC-indexed choice table
     * @param history_length history bits in the direction index
     */
    BimodePredictor(unsigned log2_direction, unsigned log2_choice,
                    unsigned history_length);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;

    /**
     * Fused predict-and-train step for the multi-lane kernel: one
     * choice read and one direction index serve both halves, and the
     * selected direction counter is read and stepped in a single packed
     * word access. Identical transitions to predict(); update().
     */
    bool predictAndUpdate(const BranchSnapshot &snap, bool taken) override;

    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    size_t directionIndex(const BranchSnapshot &snap) const;
    size_t choiceIndex(uint64_t pc) const;

    unsigned log2Direction;
    unsigned log2Choice;
    unsigned histLen;
    TwoBitCounterTable takenTable;    //!< direction table, taken mode
    TwoBitCounterTable notTakenTable; //!< direction table, not-taken mode
    TwoBitCounterTable choice;
};

} // namespace ev8

#endif // EV8_PREDICTORS_BIMODE_HH
