/**
 * @file
 * The vector fused-group kernels, templated over a simd.hh vector
 * type. This header is the single definition of the vector semantics;
 * it is included only by the -mavx2 translation unit fused_vec_avx2.cc,
 * so intrinsic code never leaks into plainly-compiled TUs.
 *
 * Every kernel is arithmetic-identical to its scalar sibling by
 * construction -- same folds, same H/H' chains, same counter
 * transitions -- so artifacts stay byte-identical across EV8_SIMD.
 * The layout of the work differs:
 *
 *  - 2Bc-gskew: only the deduplicated history slot terms run here,
 *    four slots at a time (the fold loop runs until every slot's
 *    remainder is zero; finished slots contribute zero XORs, and the
 *    per-table H' chains apply under per-slot all-ones masks). The
 *    address terms come from the group's per-pc table on either
 *    backend. Each lane then composes its indices and takes one
 *    tabulated policy step (gskewStep() over kGskewPolicy), scalar,
 *    on either backend: the policy is a table load, not vector
 *    arithmetic.
 *
 *  - gshare, bimodal lanes included (a bimodal lane is a gshare lane
 *    whose history mask is 0, so its fold loop contributes nothing):
 *    index, counter read and the saturating 2-bit update all happen
 *    in-register four lanes at a time; the update is
 *    TwoBitCounterTable::maskedSatIncWord/maskedSatDecWord masked
 *    bitplane arithmetic on the gathered words, written back one word
 *    per real lane (lanes own disjoint tables, so whole-word
 *    write-back cannot clobber a sibling).
 *
 * Reading all lanes' counters before any lane updates (and likewise
 * computing before writing inside one vector) is equivalent to the
 * scalar interleaving because fused lanes are distinct predictor
 * instances: no two lanes share a table.
 */

#ifndef EV8_PREDICTORS_FUSED_VEC_HH
#define EV8_PREDICTORS_FUSED_VEC_HH

#include "common/simd.hh"
#include "predictors/gshare.hh"
#include "predictors/twobcgskew.hh"

namespace ev8
{

template <class Vec>
void
TwoBcGskewPredictor::FusedGroup::histVec(const BranchSnapshot &snap)
{
    constexpr size_t kW = Vec::kLanes;
    const Vec one(1);

    // History slot terms through the inverse chain H'^table.
    const Vec histv(snap.hist.indexHist);
    for (size_t s = 0; s < paddedHist_; s += kW) {
        const Vec n = Vec::load(&hN_[s]);
        const Vec nm1 = Vec::load(&hNm1_[s]);
        const Vec nm2 = Vec::load(&hNm2_[s]);
        const Vec m = Vec::load(&hMask_[s]);
        Vec v = histv & Vec::load(&hLenMask_[s]);
        Vec x = Vec::zero();
        while (!v.allZero()) {
            x = x ^ (v & m);
            v = Vec::srlv(v, n);
        }
        for (size_t c = 0; c < hChain_.size(); ++c) {
            const Vec act = Vec::load(&hChain_[c][s]);
            if (act.allZero())
                break;
            const Vec top = Vec::srlv(x, nm1) & one;
            const Vec vtop = Vec::srlv(x, nm2) & one;
            const Vec xn = ((x << 1) & m) | (top ^ vtop);
            x = Vec::blend(act, xn, x);
        }
        x.store(&hVal_[s]);
    }
}

template <class Vec>
void
GsharePredictor::FusedGroup::stepVec(const BranchSnapshot &snap,
                                     bool taken, uint64_t *misp)
{
    constexpr size_t kW = Vec::kLanes;
    const Vec one(1);
    const Vec pcv(snap.pc >> 2);
    const Vec histv(snap.hist.indexHist);
    for (size_t l = 0; l < paddedLanes_; l += kW) {
        const Vec n = Vec::load(&n_[l]);
        const Vec m = Vec::load(&idxMask_[l]);
        Vec v = histv & Vec::load(&histMask_[l]);
        Vec f = Vec::zero();
        while (!v.allZero()) {
            f = f ^ (v & m);
            v = Vec::srlv(v, n);
        }
        const Vec idx = (pcv ^ f) & m;
        const Vec waddr =
            Vec::add(Vec::load(&wordBase_[l]), (idx >> 5) << 3);
        const Vec w = Vec::gather(waddr);
        const Vec s = (idx & Vec(31)) << 1;
        const Vec counter = Vec::srlv(w, s); // low 2 bits
        const Vec sel = Vec::sllv(one, s);
        const Vec wNew =
            taken ? TwoBitCounterTable::maskedSatIncWord(w, sel)
                  : TwoBitCounterTable::maskedSatDecWord(w, sel);
        uint64_t wArr[kW], aArr[kW], cArr[kW];
        wNew.store(wArr);
        waddr.store(aArr);
        counter.store(cArr);
        const size_t real =
            lanes_.size() - l < kW ? lanes_.size() - l : kW;
        for (size_t k = 0; k < real; ++k) {
            *reinterpret_cast<uint64_t *>(
                static_cast<uintptr_t>(aArr[k])) = wArr[k];
            misp[l + k] +=
                (((cArr[k] >> 1) & 1) != 0) != taken;
        }
    }
}

} // namespace ev8

#endif // EV8_PREDICTORS_FUSED_VEC_HH
