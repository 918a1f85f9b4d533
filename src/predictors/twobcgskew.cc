#include "predictors/twobcgskew.hh"

#include <cassert>

#include "common/bits.hh"
#include "predictors/skew.hh"

namespace ev8
{

TwoBcGskewConfig
TwoBcGskewConfig::symmetric(unsigned log2_entries, unsigned h_bim,
                            unsigned h_g0, unsigned h_meta, unsigned h_g1,
                            const std::string &label)
{
    TwoBcGskewConfig cfg;
    cfg.tables[BIM] = {log2_entries, log2_entries, h_bim};
    cfg.tables[G0] = {log2_entries, log2_entries, h_g0};
    cfg.tables[G1] = {log2_entries, log2_entries, h_g1};
    cfg.tables[META] = {log2_entries, log2_entries, h_meta};
    cfg.label = label;
    return cfg;
}

TwoBcGskewConfig
TwoBcGskewConfig::ev8Size()
{
    TwoBcGskewConfig cfg;
    cfg.tables[BIM] = {14, 14, 4};   // 16K / 16K, history 4
    cfg.tables[G0] = {16, 15, 13};   // 64K / 32K, history 13
    cfg.tables[G1] = {16, 16, 21};   // 64K / 64K, history 21
    cfg.tables[META] = {16, 15, 15}; // 64K / 32K, history 15
    cfg.usePathInfo = true;          // the EV8 information vector
    cfg.label = "2Bc-gskew-EV8size";
    return cfg;
}

uint64_t
TwoBcGskewConfig::storageBits() const
{
    uint64_t bits = 0;
    for (const auto &t : tables)
        bits += (uint64_t{1} << t.log2Pred) + (uint64_t{1} << t.log2Hyst);
    return bits;
}

TwoBcGskewPredictor::TwoBcGskewPredictor(const TwoBcGskewConfig &config)
    : cfg(config)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        banksStorage[t] =
            SplitCounterArray(size_t{1} << cfg.tables[t].log2Pred,
                              size_t{1} << cfg.tables[t].log2Hyst);
    }
}

uint64_t
TwoBcGskewPredictor::bimPathFold(const HistoryView &hist)
{
    // Mirror the EV8's light touch of path on BIM: only the previous
    // block's (z6, z5) bits (Section 7.4).
    return ((hist.pathZ >> 5) & 0x3) << 5;
}

uint64_t
TwoBcGskewPredictor::gskewPathFold(const HistoryView &hist)
{
    // Fold the addresses of the three previous fetch blocks into the
    // hashed information vector (Section 5.2).
    const uint64_t pathword = ((hist.pathZ >> 2) & 0xfff)
        ^ rotl((hist.pathY >> 2) & 0xfff, 4, 24)
        ^ rotl((hist.pathX >> 2) & 0xfff, 8, 24);
    return pathword << 2;
}

size_t
TwoBcGskewPredictor::foldedIndex(TableId table, const BranchSnapshot &snap,
                                 uint64_t fold) const
{
    const TableGeometry &geo = cfg.tables[table];
    const uint64_t addr = snap.pc ^ fold;
    if (table == BIM && geo.histLen == 0)
        return static_cast<size_t>(addressIndex(addr, geo.log2Pred));
    // Distinct skewing functions per table (the family of [17]); the
    // table id selects the bijection pair.
    return static_cast<size_t>(skewIndex(table, addr,
                                         snap.hist.indexHist, geo.histLen,
                                         geo.log2Pred));
}

size_t
TwoBcGskewPredictor::tableIndex(TableId table,
                                const BranchSnapshot &snap) const
{
    uint64_t fold = 0;
    if (cfg.usePathInfo)
        fold = table == BIM ? bimPathFold(snap.hist)
                            : gskewPathFold(snap.hist);
    return foldedIndex(table, snap, fold);
}

GskewLookup
TwoBcGskewPredictor::lookup(const BranchSnapshot &snap)
{
    uint64_t bim_fold = 0, gskew_fold = 0;
    if (cfg.usePathInfo) {
        if (snap.hist.pathZ != cachedPathZ
            || snap.hist.pathY != cachedPathY
            || snap.hist.pathX != cachedPathX) {
            cachedPathZ = snap.hist.pathZ;
            cachedPathY = snap.hist.pathY;
            cachedPathX = snap.hist.pathX;
            cachedBimFold = bimPathFold(snap.hist);
            cachedGskewFold = gskewPathFold(snap.hist);
        }
        bim_fold = cachedBimFold;
        gskew_fold = cachedGskewFold;
    }

    GskewLookup look;
    look.idx[BIM] = foldedIndex(BIM, snap, bim_fold);
    look.idx[G0] = foldedIndex(G0, snap, gskew_fold);
    look.idx[G1] = foldedIndex(G1, snap, gskew_fold);
    look.idx[META] = foldedIndex(META, snap, gskew_fold);
    const ConstBankFacade facade{banksStorage};
    computeGskewVotes(facade, look);
    return look;
}

bool
TwoBcGskewPredictor::predict(const BranchSnapshot &snap)
{
    last = lookup(snap);
    lastKey_ = gskewVoteKey(last);
#ifndef NDEBUG
    lastPc = snap.pc;
    lastIndexHist = snap.hist.indexHist;
#endif
    return last.overall;
}

void
TwoBcGskewPredictor::update(const BranchSnapshot &snap, bool taken, bool)
{
    // Immediate-update contract: `last` was filled by predict() on this
    // same branch. Comparing the stored lookup inputs is O(1), unlike
    // the full index recompute this assert used to pay for.
    assert(snap.pc == lastPc && snap.hist.indexHist == lastIndexHist);
    (void)snap;
    if (statsEnabled())
        stats.note(last, taken);
    BankFacade facade{banksStorage};
    if (cfg.partialUpdate)
        gskewPartialUpdate(facade, last, taken);
    else
        gskewTotalUpdate(facade, last, taken);
}

TwoBcGskewPredictor::FusedGroup::FusedGroup(
    TwoBcGskewPredictor *const *preds, size_t nlanes)
{
    lanes_.resize(nlanes);
    statsOn_.resize(nlanes);
    for (size_t l = 0; l < nlanes; ++l) {
        TwoBcGskewPredictor &p = *preds[l];
        Lane &lane = lanes_[l];
        lane.pred = &p;
        lane.outcomeKey = gskewOutcomeKey(false, p.cfg.partialUpdate);
        for (unsigned t = 0; t < kNumTables; ++t) {
            SplitCounterArray &bank = p.banksStorage[t];
            lane.predWords[t] = bank.predWords();
            lane.hystWords[t] = bank.hystWords();
            lane.hystMask[t] = bank.hystSize() - 1;
        }
        statsOn_[l] = p.statsEnabled() ? 1 : 0;
        anyStats_ |= statsOn_[l] != 0;
        anyPathInfo_ |= p.cfg.usePathInfo;
        for (unsigned t = 0; t < kNumTables; ++t) {
            const TableGeometry &geo = p.cfg.tables[t];
            // The same bounds skewIndex()/addressIndex() require.
            assert(geo.log2Pred >= 1 && geo.log2Pred < 64);
            assert(geo.log2Pred >= 2 || (t == BIM && geo.histLen == 0));
            assert(geo.histLen <= 63);
            assert(geo.log2Pred <= 32); // address terms are uint32_t
            const uint8_t fold_kind = !p.cfg.usePathInfo ? 0
                                      : t == BIM         ? 1
                                                         : 2;
            lane.addr[t] = addrSlot(static_cast<uint8_t>(t), fold_kind,
                                    static_cast<uint8_t>(geo.log2Pred));
            lane.hist[t] = histSlot(static_cast<uint8_t>(t),
                                    static_cast<uint8_t>(geo.log2Pred),
                                    static_cast<uint8_t>(geo.histLen));
        }
    }
    if (anyStats_)
        keyHist_.assign(nlanes, GskewKeyHistogram{});
    aVal_.assign(addrSlots_.size(), 0);
    hVal_.assign(histSlots_.size(), 0);
    foldTerm_.assign(addrSlots_.size(), 0);
    if (anyPathInfo_) {
        foldLut_.resize(addrSlots_.size()); // zero: slots without a fold
        for (size_t i = 0; i < addrSlots_.size(); ++i) {
            const AddrSlot &s = addrSlots_[i];
            for (unsigned k = 0; s.foldKind != 0 && k < kFoldNibbles; ++k) {
                for (uint64_t v = 0; v < 16; ++v) {
                    foldLut_[i][k][v] = static_cast<uint32_t>(
                        addressTerm(s.table, s.n, v << (2 + 4 * k)));
                }
            }
        }
    }
    addrTag_.resize(kAddrRows);
    for (size_t r = 0; r < kAddrRows; ++r)
        addrTag_[r] = uint64_t{r ^ 1} << 2; // addrRow() is r ^ 1
    addrPcTerm_.assign(kAddrRows * addrSlots_.size(), 0);
    // The vector path packs history slots, not lanes, and one lane has
    // four: unlike gshare's lane-packing group, a one-lane group takes
    // it too.
    backend_ = simd::activeBackend();
    if (backend_ != simd::Backend::Off)
        buildVectorState();
}

void
TwoBcGskewPredictor::FusedGroup::buildVectorState()
{
    constexpr size_t kW = simd::kVectorLanes;
    const uint64_t ones = ~uint64_t{0};

    // Padding slots get n = 63 so their fold loop terminates in one
    // round, and zero masks so they contribute nothing. A len == 0
    // slot keeps its zero history mask, so the uniform vector
    // arithmetic reproduces the scalar "constant 0" skip; its n may be
    // 1 (BIM), making n - 2 wrap, but its chain masks are zero and
    // srlv() zeroes counts >= 64, so the wrapped shift is computed and
    // discarded, never observed.
    paddedHist_ = (histSlots_.size() + kW - 1) & ~(kW - 1);
    hN_.assign(paddedHist_, 63);
    hNm1_.assign(paddedHist_, 62);
    hNm2_.assign(paddedHist_, 61);
    hMask_.assign(paddedHist_, 0);
    hLenMask_.assign(paddedHist_, 0);
    hVal_.assign(paddedHist_, 0);
    for (auto &c : hChain_)
        c.assign(paddedHist_, 0);
    for (size_t i = 0; i < histSlots_.size(); ++i) {
        const HistSlot &s = histSlots_[i];
        hN_[i] = s.n;
        hNm1_[i] = s.n - 1u;
        hNm2_[i] = s.n >= 2 ? s.n - 2u : 64;
        hMask_[i] = mask(s.n);
        hLenMask_[i] = s.len == 0 ? 0 : mask(s.len);
        for (unsigned c = 0; c < hChain_.size(); ++c)
            hChain_[c][i] = s.table > c ? ones : 0;
    }
}

TwoBcGskewPredictor::FusedGroup::~FusedGroup()
{
    for (size_t l = 0; l < keyHist_.size(); ++l) {
        if (statsOn_[l])
            foldGskewVotes(keyHist_[l], lanes_[l].pred->stats);
    }
}

void
TwoBcGskewPredictor::FusedGroup::step(const BranchSnapshot &snap,
                                      bool taken, uint64_t *misp)
{
    if (anyPathInfo_
        && (snap.hist.pathZ != pathZ_ || snap.hist.pathY != pathY_
            || snap.hist.pathX != pathX_)) {
        pathZ_ = snap.hist.pathZ;
        pathY_ = snap.hist.pathY;
        pathX_ = snap.hist.pathX;
        const uint64_t fold[3] = {0, bimPathFold(snap.hist) >> 2,
                                  gskewPathFold(snap.hist) >> 2};
        for (size_t i = 0; i < addrSlots_.size(); ++i) {
            const uint64_t v = fold[addrSlots_[i].foldKind];
            assert(v >> (4 * kFoldNibbles) == 0);
            uint32_t x = 0;
            for (unsigned k = 0; k < kFoldNibbles; ++k)
                x ^= foldLut_[i][k][(v >> (4 * k)) & 15];
            foldTerm_[i] = x;
        }
    }
    const uint32_t *addr_terms = addrTerms(snap);
#ifdef EV8_HAVE_AVX2
    if (backend_ == simd::Backend::Avx2)
        histVecAvx2(snap);
    else
#endif
        histScalar(snap);
    if (anyStats_)
        stepLanes<true>(addr_terms, snap, taken, misp);
    else
        stepLanes<false>(addr_terms, snap, taken, misp);
}

uint16_t
TwoBcGskewPredictor::FusedGroup::addrSlot(uint8_t table, uint8_t fold_kind,
                                          uint8_t n)
{
    for (size_t i = 0; i < addrSlots_.size(); ++i) {
        const AddrSlot &s = addrSlots_[i];
        if (s.table == table && s.foldKind == fold_kind && s.n == n)
            return static_cast<uint16_t>(i);
    }
    addrSlots_.push_back({table, fold_kind, n});
    return static_cast<uint16_t>(addrSlots_.size() - 1);
}

uint16_t
TwoBcGskewPredictor::FusedGroup::histSlot(uint8_t table, uint8_t n,
                                          uint8_t len)
{
    for (size_t i = 0; i < histSlots_.size(); ++i) {
        const HistSlot &s = histSlots_[i];
        if (s.table == table && s.n == n && s.len == len)
            return static_cast<uint16_t>(i);
    }
    histSlots_.push_back({table, n, len});
    return static_cast<uint16_t>(histSlots_.size() - 1);
}

uint64_t
TwoBcGskewPredictor::FusedGroup::addressTerm(unsigned table, unsigned n,
                                             uint64_t addr)
{
    return skewHPow(xorFold(addr >> 2, n), table, n);
}

const uint32_t *
TwoBcGskewPredictor::FusedGroup::addrTerms(const BranchSnapshot &snap)
{
    const size_t nslots = addrSlots_.size();
    const size_t row = addrRow(snap.pc);
    uint32_t *pc_term = &addrPcTerm_[row * nslots];
    if (addrTag_[row] != snap.pc) {
        addrTag_[row] = snap.pc;
        for (size_t i = 0; i < nslots; ++i) {
            pc_term[i] = static_cast<uint32_t>(addressTerm(
                addrSlots_[i].table, addrSlots_[i].n, snap.pc));
        }
    }
    if (!anyPathInfo_)
        return pc_term;
    for (size_t i = 0; i < nslots; ++i)
        aVal_[i] = pc_term[i] ^ foldTerm_[i];
    return aVal_.data();
}

void
TwoBcGskewPredictor::FusedGroup::histScalar(const BranchSnapshot &snap)
{
    // One term per distinct (table, width, length): the masked history
    // folded to n bits through the inverse chain H'^table. In a history
    // sweep these stay per-length, while the address terms collapse to
    // one per table.
    for (size_t i = 0; i < histSlots_.size(); ++i) {
        const HistSlot &s = histSlots_[i];
        if (s.len == 0)
            continue; // the address-only degenerate slot: constant 0
        const unsigned n = s.n;
        const uint64_t m = mask(n);
        uint64_t v = snap.hist.indexHist & mask(s.len);
        uint64_t x = 0;
        while (v) {
            x ^= v & m;
            v >>= n;
        }
        for (unsigned c = 0; c < s.table; ++c) {
            const uint64_t top = (x >> (n - 1)) & 1;
            const uint64_t vtop = (x >> (n - 2)) & 1;
            x = ((x << 1) & m) | (top ^ vtop);
        }
        hVal_[i] = x;
    }
}

template <bool kStats>
void
TwoBcGskewPredictor::FusedGroup::stepLanes(const uint32_t *addr_terms,
                                           const BranchSnapshot &snap,
                                           bool taken, uint64_t *misp)
{
    const size_t n = lanes_.size();
    const unsigned taken_key = gskewOutcomeKey(taken, false);
    for (size_t l = 0; l < n; ++l) {
        const Lane &lane = lanes_[l];
        GskewStepBits bits;
        for (unsigned t = 0; t < kNumTables; ++t) {
            const uint64_t idx =
                addr_terms[lane.addr[t]] ^ hVal_[lane.hist[t]];
            const uint64_t hi = idx & lane.hystMask[t];
            bits.word[t] = lane.predWords[t] + (idx >> 6);
            bits.shift[t] = static_cast<uint8_t>(idx & 63);
            bits.word[4 + t] = lane.hystWords[t] + (hi >> 6);
            bits.shift[4 + t] = static_cast<uint8_t>(hi & 63);
        }
        const GskewStep s = gskewStep(bits, lane.outcomeKey | taken_key);
        TwoBcGskewPredictor &p = *lane.pred;
        p.lastKey_ = s.key;
        if constexpr (kStats)
            ++keyHist_[l][s.key];
        misp[l] += s.t.overall() != taken;
#ifndef NDEBUG
        p.lastPc = snap.pc;
        p.lastIndexHist = snap.hist.indexHist;
#else
        (void)snap;
#endif
    }
}

uint64_t
TwoBcGskewPredictor::storageBits() const
{
    return cfg.storageBits();
}

std::string
TwoBcGskewPredictor::name() const
{
    if (!cfg.label.empty())
        return cfg.label;
    return "2Bc-gskew";
}

VoteSnapshot
TwoBcGskewPredictor::lastVotes() const
{
    return gskewKeyVotes(lastKey_);
}

void
TwoBcGskewPredictor::publishMetrics(MetricRegistry &registry,
                                    const std::string &prefix) const
{
    publishGskewVoteStats(registry, prefix, stats);
}

} // namespace ev8
