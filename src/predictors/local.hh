/**
 * @file
 * Local-history prediction and the 21264-style tournament hybrid.
 *
 * Section 3 of the paper explains why the EV8 had to abandon the
 * previous-generation (Alpha 21264 [7]) local/global hybrid: predicting
 * 16 branches per cycle would need a 16-ported local history table, and
 * speculative local-history repair across >256 in-flight instructions
 * is intractable. We implement both schemes anyway -- they are the
 * paper's motivating counterpoint, and the global-vs-local example uses
 * them to reproduce the argument quantitatively.
 */

#ifndef EV8_PREDICTORS_LOCAL_HH
#define EV8_PREDICTORS_LOCAL_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

/**
 * Two-level local predictor (PAg): a PC-indexed table of per-branch
 * history registers selecting counters in a shared pattern table.
 */
class LocalPredictor : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_bht branch history table entries
     * @param local_bits bits of local history per entry
     * @param log2_pht pattern table entries (counters)
     */
    LocalPredictor(unsigned log2_bht, unsigned local_bits,
                   unsigned log2_pht);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    size_t bhtIndex(uint64_t pc) const;
    size_t phtIndex(uint64_t pc, uint16_t local) const;

    unsigned log2Bht;
    unsigned localBits;
    unsigned log2Pht;
    std::vector<uint16_t> bht;
    TwoBitCounterTable pht;
};

/**
 * The Alpha 21264 tournament predictor [7]: a local component (1K x
 * 10-bit histories into a 1K-counter PHT), a global component (4K
 * counters under a 12-bit global history), and a global-history-indexed
 * chooser.
 */
class TournamentPredictor : public ConditionalBranchPredictor
{
  public:
    /** Defaults reproduce the 21264 sizing (~29 Kbits). */
    TournamentPredictor(unsigned log2_local_bht = 10,
                        unsigned local_bits = 10,
                        unsigned log2_local_pht = 10,
                        unsigned log2_global = 12,
                        unsigned log2_choice = 12);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    LocalPredictor local;
    TwoBitCounterTable global;
    TwoBitCounterTable choice;
    unsigned log2Global;
    unsigned log2Choice;

    bool lastLocalPred = false;
    bool lastGlobalPred = false;
};

} // namespace ev8

#endif // EV8_PREDICTORS_LOCAL_HH
