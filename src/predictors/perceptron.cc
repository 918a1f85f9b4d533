#include "predictors/perceptron.hh"

#include <algorithm>

#include "common/bits.hh"

namespace ev8
{

PerceptronPredictor::PerceptronPredictor(unsigned log2_entries,
                                         unsigned history_length,
                                         unsigned weight_bits)
    : log2Entries(log2_entries), histLen(history_length),
      weightBits(weight_bits),
      theta(static_cast<int>(1.93 * history_length + 14)),
      weightMax((1 << (weight_bits - 1)) - 1),
      weights((size_t{1} << log2_entries) * (history_length + 1), 0)
{
}

size_t
PerceptronPredictor::entryIndex(uint64_t pc) const
{
    const uint64_t line = pc >> 2;
    return static_cast<size_t>((line ^ (line >> log2Entries))
                               & mask(log2Entries));
}

int
PerceptronPredictor::dot(size_t entry, uint64_t hist) const
{
    const int16_t *w = &weights[entry * (histLen + 1)];
    int sum = w[0]; // bias weight
    for (unsigned i = 0; i < histLen; ++i)
        sum += bit(hist, i) ? w[i + 1] : -w[i + 1];
    return sum;
}

bool
PerceptronPredictor::predict(const BranchSnapshot &snap)
{
    lastDot = dot(entryIndex(snap.pc), snap.hist.indexHist);
    return lastDot >= 0;
}

void
PerceptronPredictor::update(const BranchSnapshot &snap, bool taken,
                            bool predicted_taken)
{
    if (predicted_taken == taken && std::abs(lastDot) > theta)
        return; // confident and correct: no training

    int16_t *w = &weights[entryIndex(snap.pc) * (histLen + 1)];
    const int t = taken ? 1 : -1;
    auto adjust = [this](int16_t &weight, int delta) {
        weight = static_cast<int16_t>(std::clamp(weight + delta,
                                                 -weightMax - 1,
                                                 weightMax));
    };
    adjust(w[0], t);
    for (unsigned i = 0; i < histLen; ++i) {
        const int x = bit(snap.hist.indexHist, i) ? 1 : -1;
        adjust(w[i + 1], t * x);
    }
}

uint64_t
PerceptronPredictor::storageBits() const
{
    return (uint64_t{1} << log2Entries) * (histLen + 1) * weightBits;
}

std::string
PerceptronPredictor::name() const
{
    return "perceptron-" + std::to_string(size_t{1} << log2Entries) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
