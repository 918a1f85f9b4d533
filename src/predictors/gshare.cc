#include "predictors/gshare.hh"

#include <cassert>

#include "common/bits.hh"

namespace ev8
{

GsharePredictor::GsharePredictor(unsigned log2_entries,
                                 unsigned history_length)
    : log2Entries(log2_entries), histLen(history_length),
      table(size_t{1} << log2_entries)
{
}

size_t
GsharePredictor::index(const BranchSnapshot &snap) const
{
    const uint64_t h = snap.hist.indexHist & mask(histLen);
    const uint64_t folded = histLen == 0 ? 0 : xorFold(h, log2Entries);
    return static_cast<size_t>(((snap.pc >> 2) ^ folded)
                               & mask(log2Entries));
}

bool
GsharePredictor::predict(const BranchSnapshot &snap)
{
    return table.taken(index(snap));
}

void
GsharePredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    table.update(index(snap), taken);
}

GsharePredictor::FusedGroup::FusedGroup(GsharePredictor *const *preds,
                                        size_t nlanes)
{
    lanes_.assign(preds, preds + nlanes);
    backend_ = simd::groupBackend(nlanes);
    if (backend_ == simd::Backend::Off)
        return;
    constexpr size_t kW = simd::kVectorLanes;
    paddedLanes_ = (nlanes + kW - 1) & ~(kW - 1);
    n_.resize(paddedLanes_);
    idxMask_.resize(paddedLanes_);
    histMask_.resize(paddedLanes_);
    wordBase_.resize(paddedLanes_);
    for (size_t l = 0; l < paddedLanes_; ++l) {
        const GsharePredictor &p = *lanes_[l < nlanes ? l : 0];
        // The bounds index()'s xorFold() requires.
        assert(p.log2Entries >= 1 && p.log2Entries < 64);
        n_[l] = p.log2Entries;
        idxMask_[l] = mask(p.log2Entries);
        histMask_[l] = p.histLen == 0 ? 0 : mask(p.histLen);
        wordBase_[l] =
            reinterpret_cast<uintptr_t>(p.table.wordsData());
    }
}

void
GsharePredictor::FusedGroup::step(const BranchSnapshot &snap, bool taken,
                                  uint64_t *misp)
{
#ifdef EV8_HAVE_AVX2
    if (backend_ == simd::Backend::Avx2)
        return stepVecAvx2(snap, taken, misp);
#endif
    // The per-lane two-phase step.
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const size_t idx = lanes_[l]->laneIndex(snap);
        misp[l] += lanes_[l]->applyAt(idx, taken) != taken;
    }
}

uint64_t
GsharePredictor::storageBits() const
{
    return table.storageBits();
}

std::string
GsharePredictor::name() const
{
    return "gshare-" + std::to_string(size_t{1} << log2Entries) + "-h"
        + std::to_string(histLen);
}

} // namespace ev8
