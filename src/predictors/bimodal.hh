/**
 * @file
 * Smith's bimodal predictor [21]: a table of 2-bit counters indexed by
 * branch address. The baseline component of every hybrid in the paper.
 *
 * Bimodal is gshare with no history bits: the index reduces to
 * (pc >> 2) & mask, so the class is a GsharePredictor with history
 * length 0 under its own name, and fused walks step it with gshare's
 * group stepper.
 */

#ifndef EV8_PREDICTORS_BIMODAL_HH
#define EV8_PREDICTORS_BIMODAL_HH

#include <string>

#include "predictors/gshare.hh"

namespace ev8
{

class BimodalPredictor final : public GsharePredictor
{
  public:
    /** @param log2_entries table holds 2^log2_entries 2-bit counters. */
    explicit BimodalPredictor(unsigned log2_entries)
        : GsharePredictor(log2_entries, 0)
    {
    }

    std::string
    name() const override
    {
        return "bimodal-" + std::to_string(size_t{1} << log2Size());
    }
};

} // namespace ev8

#endif // EV8_PREDICTORS_BIMODAL_HH
