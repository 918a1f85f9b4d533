/**
 * @file
 * The vector fused-group steppers, templated over a simd.hh vector
 * type. This header is the single definition of the vector semantics;
 * it is included only by the -mavx2 translation unit fused_vec_avx2.cc,
 * so intrinsic code never leaks into plainly-compiled TUs.
 *
 * Every stepper is arithmetic-identical to its scalar sibling by
 * construction -- same folds, same H/H' chains, same counter
 * transitions -- so artifacts stay byte-identical across EV8_SIMD.
 * The layout of the work differs:
 *
 *  - 2Bc-gskew: phase A computes the deduplicated address/history
 *    slot terms four slots at a time (the fold loop runs until every
 *    lane's remainder is zero; finished lanes contribute zero XORs,
 *    and the per-table H/H' chains apply under per-slot all-ones
 *    masks). Phase B composes each lane's four indices from the slot
 *    values. Phase C gathers the prediction- and hysteresis-bitplane
 *    words four lanes at a time, votes with pure boolean lane math
 *    (majority = (b&g0)|(b&g1)|(g0&g1), overall = bim ^ (meta &
 *    (majority ^ bim))), evaluates the whole partial-update decision
 *    tree as 0/1 lane arithmetic -- no data-dependent branches -- and
 *    retires the counter transitions as masked bitplane XORs written
 *    back one whole word per (bank, real lane). Of the scalar step's
 *    per-lane `p.last` stores only the votes of a mispredicting lane
 *    remain, so lastVotes() serves the walk's mispredict events.
 *
 *  - gshare/bimodal: index, counter read and the saturating 2-bit
 *    update all happen in-register four lanes at a time; the update
 *    is TwoBitCounterTable::maskedSatIncWord/maskedSatDecWord masked
 *    bitplane arithmetic on the gathered words, written back one
 *    word per real lane (lanes own disjoint tables, so whole-word
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
#include "predictors/bimodal.hh"
#include "predictors/gshare.hh"
#include "predictors/twobcgskew.hh"

namespace ev8
{

template <class Vec>
void
TwoBcGskewPredictor::FusedGroup::stepVec(const BranchSnapshot &snap,
                                         bool taken, uint64_t *misp)
{
    constexpr size_t kW = Vec::kLanes;

    if (anyPathInfo_
        && (snap.hist.pathZ != pathZ_ || snap.hist.pathY != pathY_
            || snap.hist.pathX != pathX_)) {
        pathZ_ = snap.hist.pathZ;
        pathY_ = snap.hist.pathY;
        pathX_ = snap.hist.pathX;
        bimFold_ = bimPathFold(snap.hist);
        gskewFold_ = gskewPathFold(snap.hist);
    }

    const Vec one(1);

    // Phase A: address-side slot terms, four slots per iteration.
    const Vec pcv(snap.pc);
    const Vec bimFold(bimFold_);
    const Vec gskewFold(gskewFold_);
    for (size_t s = 0; s < paddedAddr_; s += kW) {
        const Vec n = Vec::load(&aN_[s]);
        const Vec nm1 = Vec::load(&aNm1_[s]);
        const Vec m = Vec::load(&aMask_[s]);
        const Vec fold = (bimFold & Vec::load(&aSelBim_[s]))
                         | (gskewFold & Vec::load(&aSelGskew_[s]));
        Vec v = (pcv ^ fold) >> 2;
        Vec x = Vec::zero();
        while (!v.allZero()) {
            x = x ^ (v & m);
            v = Vec::srlv(v, n);
        }
        for (size_t c = 0; c < aChain_.size(); ++c) {
            const Vec act = Vec::load(&aChain_[c][s]);
            if (act.allZero())
                break; // chain masks shrink with the round number
            const Vec fb = (x ^ Vec::srlv(x, nm1)) & one;
            const Vec xn = (x >> 1) | Vec::sllv(fb, nm1);
            x = Vec::blend(act, xn, x);
        }
        x.store(&aVal_[s]);
    }

    // History-side slot terms through the inverse chain H'^table.
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

    // Phase B: per-lane indices, counter reads and votes. The index
    // composition runs scalar -- two L1-hot slot loads and an XOR per
    // (lane, table) beat a hardware gather of the same values -- and
    // the table-word reads, the truly scattered memory accesses, run
    // as gathers four lanes at a time.
    for (size_t l = 0; l < paddedLanes_; ++l) {
        const std::array<uint16_t, kNumTables> &as = laneAddr_[l];
        const std::array<uint16_t, kNumTables> &hs = laneHist_[l];
        idxS_[BIM][l] = aVal_[as[BIM]] ^ hVal_[hs[BIM]];
        idxS_[G0][l] = aVal_[as[G0]] ^ hVal_[hs[G0]];
        idxS_[G1][l] = aVal_[as[G1]] ^ hVal_[hs[G1]];
        idxS_[META][l] = aVal_[as[META]] ^ hVal_[hs[META]];
    }
    // Phase C: counter reads, votes and the update policy, four lanes
    // at a time. The whole partial-update decision tree of
    // gskewPartialUpdate() -- including the retrain-the-chooser-then-
    // recheck sequence -- is evaluated as 0/1 boolean lane math, and
    // the 2-bit split-counter transitions land as masked bitplane
    // arithmetic: with d = pred ^ target and e = hyst ^ pred,
    // update() is pred' = p^(d&e), hyst' = p^(d&~e), and
    // strengthen() is the d = 0 instance (hyst' = p). Write-back is
    // one whole word per (bank, real lane); lanes are distinct
    // predictor instances and banks distinct arrays, so no two
    // write-backs of a step can touch the same word.
    const Vec six3(63);
    const Vec tb(taken ? 1 : 0);
    for (size_t l = 0; l < paddedLanes_; l += kW) {
        Vec bit[kNumTables], pw[kNumTables], pa[kNumTables];
        Vec ppos[kNumTables], hbit[kNumTables], hw[kNumTables];
        Vec ha[kNumTables], hpos[kNumTables];
        for (unsigned t = 0; t < kNumTables; ++t) {
            const Vec idx = Vec::load(&idxS_[t][l]);
            pa[t] = Vec::add(Vec::load(&lanePredBase_[t][l]),
                             (idx >> 6) << 3);
            pw[t] = Vec::gather(pa[t]);
            ppos[t] = idx & six3;
            bit[t] = Vec::srlv(pw[t], ppos[t]) & one;
            const Vec hidx = idx & Vec::load(&laneHystMask_[t][l]);
            ha[t] = Vec::add(Vec::load(&laneHystBase_[t][l]),
                             (hidx >> 6) << 3);
            hw[t] = Vec::gather(ha[t]);
            hpos[t] = hidx & six3;
            hbit[t] = Vec::srlv(hw[t], hpos[t]) & one;
        }
        const Vec b = bit[BIM], g0v = bit[G0], g1v = bit[G1];
        const Vec m = bit[META];
        const Vec maj = (b & g0v) | (b & g1v) | (g0v & g1v);
        const Vec ovr = b ^ (m & (maj ^ b));
        (ovr | (b << 1) | (g0v << 2) | (g1v << 3) | (m << 4) | (maj << 5))
            .store(&voteS_[l]);

        // The policy flags, all 0/1 per lane: S = strengthen, U =
        // full update, tgt = the update direction. META retrains
        // toward "the majority was right"; the component banks toward
        // the outcome.
        const Vec c = one ^ (ovr ^ tb);     // prediction was correct
        const Vec ic = c ^ one;
        const Vec notAll = (b ^ g0v) | (g0v ^ g1v);
        const Vec diff = maj ^ b;
        const Vec bEq = one ^ (b ^ tb);
        const Vec g0Eq = one ^ (g0v ^ tb);
        const Vec g1Eq = one ^ (g1v ^ tb);
        // Correct: strengthen META when the components disagreed, and
        // the participating banks' correct votes (BIM when the
        // bimodal prediction was used). All gated off when the three
        // voters were unanimous (Rationale 1).
        const Vec sMetaC = c & diff;
        const Vec cAct = c & notAll;
        const Vec sBimC = cAct & ((one ^ m) | (m & bEq));
        const Vec sG0C = cAct & m & g0Eq;
        const Vec sG1C = cAct & m & g1Eq;
        // Incorrect with the components split: retrain the chooser
        // first (Rationale 2), recompute its post-update prediction
        // bit in-register, and recheck. Only if the overall
        // prediction is still wrong do the banks all retrain.
        const Vec metaUpd = ic & diff;
        const Vec vMeta = one ^ (maj ^ tb);
        const Vec dM = m ^ vMeta;
        const Vec eM = hbit[META] ^ m;
        const Vec newMeta = m ^ (metaUpd & dM & eM);
        const Vec newOvr = b ^ (newMeta & diff);
        const Vec fx = metaUpd & (one ^ (newOvr ^ tb));
        const Vec sBimI = fx & ((one ^ newMeta) | (newMeta & bEq));
        const Vec sG0I = fx & newMeta & g0Eq;
        const Vec sG1I = fx & newMeta & g1Eq;
        const Vec updAll = ic & (one ^ fx);
        // Blend with the reference total-update policy per lane:
        // every component bank retrains, META only when the
        // components disagreed.
        const Vec pm = Vec::load(&lanePartial_[l]);
        const Vec tm = one ^ pm;
        Vec S[kNumTables], U[kNumTables], tgt[kNumTables];
        S[BIM] = pm & (sBimC | sBimI);
        S[G0] = pm & (sG0C | sG0I);
        S[G1] = pm & (sG1C | sG1I);
        S[META] = pm & sMetaC;
        U[BIM] = (pm & updAll) | tm;
        U[G0] = U[BIM];
        U[G1] = U[BIM];
        U[META] = (pm & metaUpd) | (tm & diff);
        tgt[BIM] = tb;
        tgt[G0] = tb;
        tgt[G1] = tb;
        tgt[META] = vMeta;

        // Metrics-observed walks bank the per-walk vote statistics as
        // lane-wise sums of the 0/1 predicates already in registers;
        // the group destructor turns the sums into GskewVoteStats.
        if (anyStats_) {
            const auto acc = [&](std::vector<uint64_t> &a, const Vec &v) {
                Vec::add(Vec::load(&a[l]), v).store(&a[l]);
            };
            acc(accConf_[BIM], b ^ tb);
            acc(accConf_[G0], g0v ^ tb);
            acc(accConf_[G1], g1v ^ tb);
            acc(accAgree_[BIM], one ^ (b ^ ovr));
            acc(accAgree_[G0], one ^ (g0v ^ ovr));
            acc(accAgree_[G1], one ^ (g1v ^ ovr));
            acc(accUnan_, one ^ notAll);
            acc(accMetaSel_, m);
            acc(accMisp_, ovr ^ tb);
        }

        uint64_t pwA[kNumTables][kW], paA[kNumTables][kW];
        uint64_t hwA[kNumTables][kW], haA[kNumTables][kW];
        for (unsigned t = 0; t < kNumTables; ++t) {
            const Vec d = bit[t] ^ tgt[t];
            const Vec e = hbit[t] ^ bit[t];
            const Vec act = S[t] | U[t];
            const Vec hTgt = bit[t] ^ (U[t] & d & (one ^ e));
            const Vec hFlip = act & (hbit[t] ^ hTgt);
            const Vec pFlip = U[t] & d & e;
            (hw[t] ^ Vec::sllv(hFlip, hpos[t])).store(hwA[t]);
            (pw[t] ^ Vec::sllv(pFlip, ppos[t])).store(pwA[t]);
            pa[t].store(paA[t]);
            ha[t].store(haA[t]);
        }
        const size_t real =
            lanes_.size() - l < kW ? lanes_.size() - l : kW;
        for (size_t k = 0; k < real; ++k) {
            for (unsigned t = 0; t < kNumTables; ++t) {
                *reinterpret_cast<uint64_t *>(
                    static_cast<uintptr_t>(paA[t][k])) = pwA[t][k];
                *reinterpret_cast<uint64_t *>(
                    static_cast<uintptr_t>(haA[t][k])) = hwA[t][k];
            }
            const uint64_t v = voteS_[l + k];
            const bool wrong = (v & 1) != taken;
            misp[l + k] += wrong;
            if (wrong) {
                // The votes predict() would have cached: what
                // lastVotes() reports for this lane's mispredict event.
                GskewLookup &look = lanes_[l + k]->last;
                look.overall = !taken;
                look.bimPred = (v >> 1) & 1;
                look.g0Pred = (v >> 2) & 1;
                look.g1Pred = (v >> 3) & 1;
                look.metaPred = (v >> 4) & 1;
                look.majority = (v >> 5) & 1;
            }
        }
    }

    if (anyStats_)
        ++accSteps_;

    // Debug-build bookkeeping for update()'s immediate-update contract
    // assert. Unlike the scalar stepper only a mispredicting lane's
    // votes land in p.last (above): the walk reads them back for its
    // mispredict events and for nothing else.
#ifndef NDEBUG
    for (size_t l = 0; l < lanes_.size(); ++l) {
        lanes_[l]->lastPc = snap.pc;
        lanes_[l]->lastIndexHist = snap.hist.indexHist;
    }
#endif
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

template <class Vec>
void
BimodalPredictor::FusedGroup::stepVec(const BranchSnapshot &snap,
                                      bool taken, uint64_t *misp)
{
    constexpr size_t kW = Vec::kLanes;
    const Vec one(1);
    const Vec pcv(snap.pc >> 2);
    for (size_t l = 0; l < paddedLanes_; l += kW) {
        const Vec idx = pcv & Vec::load(&idxMask_[l]);
        const Vec waddr =
            Vec::add(Vec::load(&wordBase_[l]), (idx >> 5) << 3);
        const Vec w = Vec::gather(waddr);
        const Vec s = (idx & Vec(31)) << 1;
        const Vec counter = Vec::srlv(w, s);
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
