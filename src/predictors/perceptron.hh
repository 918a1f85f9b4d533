/**
 * @file
 * The perceptron predictor of Jimenez & Lin [11].
 *
 * Section 9 of the paper singles out the perceptron as a promising
 * "backup predictor" direction for branches that defeat table-based
 * global-history schemes; we implement it as the repository's
 * future-work extension and compare it in bench_ext_perceptron.
 *
 * One weight vector per PC-indexed entry; prediction is the sign of
 * w0 + sum(w_i * x_i) with x_i = +/-1 history bits; training adjusts
 * weights on a misprediction or when the margin is below the threshold.
 */

#ifndef EV8_PREDICTORS_PERCEPTRON_HH
#define EV8_PREDICTORS_PERCEPTRON_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"

namespace ev8
{

class PerceptronPredictor : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_entries number of weight vectors
     * @param history_length inputs per perceptron (plus a bias weight)
     * @param weight_bits signed weight width (8 in [11])
     */
    PerceptronPredictor(unsigned log2_entries, unsigned history_length,
                        unsigned weight_bits = 8);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;
    uint64_t storageBits() const override;
    std::string name() const override;

    int threshold() const { return theta; }

  private:
    size_t entryIndex(uint64_t pc) const;
    int dot(size_t entry, uint64_t hist) const;

    unsigned log2Entries;
    unsigned histLen;
    unsigned weightBits;
    int theta;      //!< training threshold, 1.93 * h + 14 per [11]
    int weightMax;  //!< saturation bound
    std::vector<int16_t> weights; //!< (histLen + 1) weights per entry

    int lastDot = 0; //!< cached between predict() and update()
};

} // namespace ev8

#endif // EV8_PREDICTORS_PERCEPTRON_HH
