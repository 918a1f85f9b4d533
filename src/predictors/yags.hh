/**
 * @file
 * The YAGS predictor of Eden & Mudge [4]: a PC-indexed bimodal choice
 * table backed by two small *partially tagged* direction caches that
 * store only the exceptions to the bias. When the choice table says
 * taken, the not-taken cache is searched (and vice versa); a tag hit
 * overrides the bias.
 *
 * Fig. 5 of the paper evaluates 288 Kbit and 576 Kbit YAGS
 * configurations with 6-bit tags, and notes the implementation obstacle
 * that kept it out of the EV8: reading and checking 16 tags in 1.5
 * cycles.
 */

#ifndef EV8_PREDICTORS_YAGS_HH
#define EV8_PREDICTORS_YAGS_HH

#include <cstdint>
#include <vector>

#include "predictors/predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{

class YagsPredictor final : public ConditionalBranchPredictor
{
  public:
    /**
     * @param log2_choice entries in the bimodal choice table
     * @param log2_cache entries in each direction cache
     * @param history_length history bits in the cache index
     * @param tag_bits partial tag width (the paper uses 6)
     */
    YagsPredictor(unsigned log2_choice, unsigned log2_cache,
                  unsigned history_length, unsigned tag_bits = 6);

    bool predict(const BranchSnapshot &snap) override;
    void update(const BranchSnapshot &snap, bool taken,
                bool predicted_taken) override;

    /**
     * Fused predict-and-train step for the multi-lane kernel: the
     * choice-table read, cache index and tag probe serve both the
     * prediction and the training decision, instead of being recomputed
     * by a predict(); update() pair. Identical transitions.
     */
    bool predictAndUpdate(const BranchSnapshot &snap, bool taken) override;

    uint64_t storageBits() const override;
    std::string name() const override;

  private:
    struct CacheEntry
    {
        uint16_t tag = 0;
        uint8_t counter = 1; //!< 2-bit direction counter
        bool valid = false;
    };

    using Cache = std::vector<CacheEntry>;

    size_t cacheIndex(const BranchSnapshot &snap) const;
    uint16_t tagOf(uint64_t pc) const;

    unsigned log2Choice;
    unsigned log2Cache;
    unsigned histLen;
    unsigned tagBits;
    TwoBitCounterTable choice;
    Cache takenCache;    //!< exceptions to a not-taken bias
    Cache notTakenCache; //!< exceptions to a taken bias
};

} // namespace ev8

#endif // EV8_PREDICTORS_YAGS_HH
