#include "predictors/bimodal.hh"

#include "common/bits.hh"

namespace ev8
{

BimodalPredictor::BimodalPredictor(unsigned log2_entries)
    : log2Entries(log2_entries), table(size_t{1} << log2_entries)
{
}

size_t
BimodalPredictor::index(uint64_t pc) const
{
    return static_cast<size_t>((pc >> 2) & mask(log2Entries));
}

bool
BimodalPredictor::predict(const BranchSnapshot &snap)
{
    return table.taken(index(snap.pc));
}

void
BimodalPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    table.update(index(snap.pc), taken);
}

BimodalPredictor::FusedGroup::FusedGroup(BimodalPredictor *const *preds,
                                         size_t nlanes)
{
    lanes_.assign(preds, preds + nlanes);
    backend_ = simd::groupBackend(nlanes);
    if (backend_ == simd::Backend::Off)
        return;
    constexpr size_t kW = simd::kVectorLanes;
    paddedLanes_ = (nlanes + kW - 1) & ~(kW - 1);
    idxMask_.resize(paddedLanes_);
    wordBase_.resize(paddedLanes_);
    for (size_t l = 0; l < paddedLanes_; ++l) {
        const BimodalPredictor &p = *lanes_[l < nlanes ? l : 0];
        idxMask_[l] = mask(p.log2Entries);
        wordBase_[l] =
            reinterpret_cast<uintptr_t>(p.table.wordsData());
    }
}

void
BimodalPredictor::FusedGroup::step(const BranchSnapshot &snap, bool taken,
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
BimodalPredictor::storageBits() const
{
    return table.storageBits();
}

std::string
BimodalPredictor::name() const
{
    return "bimodal-" + std::to_string(size_t{1} << log2Entries);
}

void
BimodalPredictor::reset()
{
    table.reset();
}

} // namespace ev8
