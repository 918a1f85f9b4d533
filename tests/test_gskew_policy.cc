/**
 * @file
 * White-box tests of the shared 2Bc-gskew combination and partial-update
 * policy (Section 4.2), run against a mock bank recorder so every write
 * the policy performs is visible; then the tabulated policy
 * (kGskewPolicy), checked key by key against the templates on real
 * split-counter and EV8 arrays, and the key-histogram statistics
 * against per-step notes and per-access tracking over a suite stream.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/ev8_predictor.hh"
#include "predictors/gskew_policy.hh"
#include "predictors/tables.hh"
#include "predictors/twobcgskew.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic_program.hh"

namespace ev8
{
namespace
{

/** Mock banks: fixed predictions, recorded writes. */
struct MockBanks
{
    struct Write
    {
        enum Kind { Strengthen, Update } kind;
        TableId table;
        size_t idx;
        bool value; // for Update

        bool operator==(const Write &) const = default;
    };

    bool preds[kNumTables] = {};
    mutable std::vector<Write> writes;

    bool taken(TableId t, size_t) const { return preds[t]; }

    void
    strengthen(TableId t, size_t idx)
    {
        writes.push_back({Write::Strengthen, t, idx, false});
    }

    void
    update(TableId t, size_t idx, bool v)
    {
        writes.push_back({Write::Update, t, idx, v});
        if (t == META)
            preds[META] = v; // meta may flip; the policy re-reads it
    }

    bool wrote(TableId t) const
    {
        for (const auto &w : writes)
            if (w.table == t)
                return true;
        return false;
    }
};

GskewLookup
lookupFor(const MockBanks &banks)
{
    GskewLookup look;
    look.idx = {0, 1, 2, 3};
    computeGskewVotes(banks, look);
    return look;
}

TEST(GskewVotes, MajorityAndSelection)
{
    MockBanks banks;
    banks.preds[BIM] = true;
    banks.preds[G0] = true;
    banks.preds[G1] = false;
    banks.preds[META] = true; // majority selected
    const GskewLookup look = lookupFor(banks);
    EXPECT_TRUE(look.majority);
    EXPECT_TRUE(look.overall);

    banks.preds[META] = false; // bimodal selected
    const GskewLookup look2 = lookupFor(banks);
    EXPECT_TRUE(look2.overall); // BIM says taken

    banks.preds[BIM] = false;
    const GskewLookup look3 = lookupFor(banks);
    EXPECT_FALSE(look3.majority) << "1 of 3 votes taken";
    EXPECT_FALSE(look3.overall);
}

TEST(PartialUpdate, Rationale1_NoWriteWhenAllAgreeAndCorrect)
{
    MockBanks banks;
    banks.preds[BIM] = banks.preds[G0] = banks.preds[G1] = true;
    banks.preds[META] = true;
    const GskewLookup look = lookupFor(banks);
    gskewPartialUpdate(banks, look, /*taken=*/true);
    EXPECT_TRUE(banks.writes.empty())
        << "all-agreeing correct prediction must not touch any counter";
}

TEST(PartialUpdate, CorrectViaBimodal_StrengthensOnlyBim)
{
    MockBanks banks;
    banks.preds[BIM] = true;             // correct
    banks.preds[G0] = banks.preds[G1] = false;
    banks.preds[META] = false;           // bimodal selected
    const GskewLookup look = lookupFor(banks);
    // majority = false, bim = true -> predictions differ -> Meta
    // strengthened; BIM (the used, correct one) strengthened.
    gskewPartialUpdate(banks, look, true);
    ASSERT_EQ(banks.writes.size(), 2u);
    EXPECT_EQ(banks.writes[0].table, META);
    EXPECT_EQ(banks.writes[0].kind, MockBanks::Write::Strengthen);
    EXPECT_EQ(banks.writes[1].table, BIM);
    EXPECT_EQ(banks.writes[1].kind, MockBanks::Write::Strengthen);
}

TEST(PartialUpdate, CorrectViaMajority_StrengthensCorrectVotersOnly)
{
    MockBanks banks;
    banks.preds[BIM] = false; // wrong voter
    banks.preds[G0] = true;
    banks.preds[G1] = true;
    banks.preds[META] = true; // majority selected
    const GskewLookup look = lookupFor(banks);
    gskewPartialUpdate(banks, look, true);
    // Meta strengthened (predictions differed) + G0 + G1; never BIM.
    EXPECT_TRUE(banks.wrote(META));
    EXPECT_TRUE(banks.wrote(G0));
    EXPECT_TRUE(banks.wrote(G1));
    EXPECT_FALSE(banks.wrote(BIM))
        << "a wrong voter must not be strengthened";
    for (const auto &w : banks.writes)
        EXPECT_EQ(w.kind, MockBanks::Write::Strengthen);
}

TEST(PartialUpdate, CorrectSameComponents_NoMetaStrengthen)
{
    MockBanks banks;
    banks.preds[BIM] = true;
    banks.preds[G0] = true;
    banks.preds[G1] = false; // disagreement inside the vote
    banks.preds[META] = true;
    const GskewLookup look = lookupFor(banks);
    // bim == majority == taken: Meta gave no distinguishing choice.
    gskewPartialUpdate(banks, look, true);
    EXPECT_FALSE(banks.wrote(META));
    EXPECT_TRUE(banks.wrote(BIM));
    EXPECT_TRUE(banks.wrote(G0));
    EXPECT_FALSE(banks.wrote(G1));
}

TEST(PartialUpdate, Rationale2_ChooserFlipRescuesPrediction)
{
    MockBanks banks;
    banks.preds[BIM] = false;       // bimodal wrong... actually correct:
    banks.preds[G0] = true;         // outcome will be false
    banks.preds[G1] = true;
    banks.preds[META] = true;       // majority (taken) selected -> wrong
    GskewLookup look = lookupFor(banks);
    ASSERT_TRUE(look.overall);
    gskewPartialUpdate(banks, look, /*taken=*/false);

    // First write: Meta full update toward "bimodal was right" (false).
    ASSERT_FALSE(banks.writes.empty());
    EXPECT_EQ(banks.writes[0].table, META);
    EXPECT_EQ(banks.writes[0].kind, MockBanks::Write::Update);
    EXPECT_FALSE(banks.writes[0].value);

    // The mock flips meta immediately, so the recomputed prediction is
    // BIM = false = correct: only BIM gets strengthened, G0/G1 (wrong)
    // are left alone -- no stealing (Rationale 2).
    EXPECT_TRUE(banks.wrote(BIM));
    EXPECT_FALSE(banks.wrote(G0));
    EXPECT_FALSE(banks.wrote(G1));
    EXPECT_EQ(banks.writes[1].kind, MockBanks::Write::Strengthen);
}

TEST(PartialUpdate, MispredictBothComponentsWrong_UpdatesAllBanks)
{
    MockBanks banks;
    banks.preds[BIM] = true;
    banks.preds[G0] = true;
    banks.preds[G1] = true;
    banks.preds[META] = false;
    const GskewLookup look = lookupFor(banks);
    gskewPartialUpdate(banks, look, /*taken=*/false);
    // Predictions agree (both taken) -> no chooser signal; all three
    // prediction banks retrain toward not-taken.
    EXPECT_FALSE(banks.wrote(META));
    int updates = 0;
    for (const auto &w : banks.writes) {
        EXPECT_EQ(w.kind, MockBanks::Write::Update);
        EXPECT_FALSE(w.value);
        ++updates;
    }
    EXPECT_EQ(updates, 3);
}

TEST(PartialUpdate, ChooserUpdateInsufficient_UpdatesAllBanks)
{
    // Meta update that does NOT flip the selection: banks must retrain.
    struct StickyBanks : MockBanks
    {
        void
        update(TableId t, size_t idx, bool v)
        {
            writes.push_back({Write::Update, t, idx, v});
            // meta stays strong: selection unchanged
        }
    } banks;
    banks.preds[BIM] = false;
    banks.preds[G0] = true;
    banks.preds[G1] = true;
    banks.preds[META] = true; // majority selected, strongly
    const GskewLookup look = lookupFor(banks);
    gskewPartialUpdate(banks, look, /*taken=*/false);
    // Meta updated first, then all three banks.
    EXPECT_TRUE(banks.wrote(META));
    EXPECT_TRUE(banks.wrote(BIM));
    EXPECT_TRUE(banks.wrote(G0));
    EXPECT_TRUE(banks.wrote(G1));
}

TEST(TotalUpdate, AlwaysWritesAllPredictionBanks)
{
    MockBanks banks;
    banks.preds[BIM] = banks.preds[G0] = banks.preds[G1] = true;
    banks.preds[META] = true;
    const GskewLookup look = lookupFor(banks);
    gskewTotalUpdate(banks, look, true);
    EXPECT_TRUE(banks.wrote(BIM));
    EXPECT_TRUE(banks.wrote(G0));
    EXPECT_TRUE(banks.wrote(G1));
    EXPECT_FALSE(banks.wrote(META)) << "agreeing components: no signal";
}

TEST(TotalUpdate, TrainsChooserWhenComponentsDiffer)
{
    MockBanks banks;
    banks.preds[BIM] = false;
    banks.preds[G0] = true;
    banks.preds[G1] = true;
    banks.preds[META] = false;
    const GskewLookup look = lookupFor(banks);
    gskewTotalUpdate(banks, look, true);
    EXPECT_TRUE(banks.wrote(META));
}

// ---- The tabulated policy ------------------------------------------

/** The Banks interface over four SplitCounterArrays. */
struct SplitBanks
{
    std::array<SplitCounterArray, kNumTables> &arrays;

    bool taken(TableId t, size_t idx) const { return arrays[t].taken(idx); }
    void strengthen(TableId t, size_t idx) { arrays[t].strengthen(idx); }
    void update(TableId t, size_t idx, bool v) { arrays[t].update(idx, v); }
};

/** Runs the templates for one step, as predict(); update() do. */
template <class Banks>
GskewLookup
runTemplates(Banks banks, const std::array<size_t, kNumTables> &idx,
             bool taken, bool partial)
{
    GskewLookup look;
    look.idx = idx;
    computeGskewVotes(banks, look);
    if (partial)
        gskewPartialUpdate(banks, look, taken);
    else
        gskewTotalUpdate(banks, look, taken);
    return look;
}

/** The state bits (key bits 0-7) of entries idx on split arrays. */
unsigned
splitState(const std::array<SplitCounterArray, kNumTables> &arrays,
           const std::array<size_t, kNumTables> &idx)
{
    unsigned state = 0;
    for (unsigned t = 0; t < kNumTables; ++t) {
        state |= (unsigned{arrays[t].rawPred(idx[t])} << t)
            | (unsigned{arrays[t].rawHyst(idx[t])} << (4 + t));
    }
    return state;
}

/** The eight bits of entries idx on split arrays, for gskewStep(). */
GskewStepBits<uint64_t>
splitBits(std::array<SplitCounterArray, kNumTables> &arrays,
          const std::array<size_t, kNumTables> &idx)
{
    GskewStepBits<uint64_t> bits;
    for (unsigned t = 0; t < kNumTables; ++t) {
        const size_t hi = arrays[t].hystIndex(idx[t]);
        bits.word[t] = arrays[t].predWords() + idx[t] / 64;
        bits.shift[t] = static_cast<uint8_t>(idx[t] % 64);
        bits.word[4 + t] = arrays[t].hystWords() + hi / 64;
        bits.shift[4 + t] = static_cast<uint8_t>(hi % 64);
    }
    return bits;
}

std::array<SplitCounterArray, kNumTables>
splitArrays(size_t pred, size_t hyst)
{
    std::array<SplitCounterArray, kNumTables> arrays;
    for (auto &a : arrays)
        a = SplitCounterArray(pred, hyst);
    return arrays;
}

/**
 * Every key, on SplitCounterArrays with full-size and half-size
 * hysteresis: the table's flips and votes are what the
 * templates do, and gskewStep() leaves the same bits behind.
 */
TEST(GskewPolicyTable, MatchesTemplatesOnSplitCounterArraysPerKey)
{
    // Entry 100's hysteresis lives at 100 & 63 = 36 in the half-size
    // arrays, sharing it with entry 36 (Section 4.4).
    const std::array<size_t, kNumTables> idx = {100, 100, 100, 100};
    for (const size_t hyst : {size_t{128}, size_t{64}}) {
        for (unsigned key = 0; key < kGskewKeys; ++key) {
            const bool taken = (key >> 8) & 1, partial = (key >> 9) & 1;
            auto ref = splitArrays(128, hyst);
            auto tab = splitArrays(128, hyst);
            for (unsigned t = 0; t < kNumTables; ++t) {
                ref[t].setRaw(idx[t], (key >> t) & 1, (key >> (4 + t)) & 1);
                tab[t].setRaw(idx[t], (key >> t) & 1, (key >> (4 + t)) & 1);
            }
            const GskewLookup look =
                runTemplates(SplitBanks{ref}, idx, taken, partial);
            const GskewTransition &e = kGskewPolicy.step[key];
            EXPECT_EQ(splitState(ref, idx), (key ^ e.flips) & 0xff)
                << "key " << key << " hyst " << hyst;
            EXPECT_EQ(e.overall(), look.overall) << "key " << key;
            EXPECT_EQ(((e.votes >> 1) & 1) != 0, look.majority)
                << "key " << key;
            EXPECT_EQ(gskewVoteKey(look), key & 0xf) << "key " << key;

            GskewStepBits<uint64_t> bits = splitBits(tab, idx);
            const GskewStep s =
                gskewStep(bits, gskewOutcomeKey(taken, partial));
            EXPECT_EQ(splitState(tab, idx), splitState(ref, idx))
                << "key " << key << " hyst " << hyst;
            EXPECT_EQ(s.t.overall(), look.overall) << "key " << key;
            EXPECT_EQ(s.key, key) << "key " << key;
        }
    }
}

/**
 * Long random step sequences over small arrays whose entries share
 * packed words and (half-size) hysteresis entries: gskewStep() and the
 * templates never drift apart.
 */
TEST(GskewPolicyTable, StepMatchesTemplatesOverSharedWords)
{
    uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next = [&rng] {
        rng ^= rng >> 12;
        rng ^= rng << 25;
        rng ^= rng >> 27;
        return rng * 0x2545f4914f6cdd1dULL;
    };
    for (const bool partial : {true, false}) {
        auto ref = splitArrays(256, 64);
        auto tab = splitArrays(256, 64);
        for (int step = 0; step < 20000; ++step) {
            std::array<size_t, kNumTables> idx;
            for (auto &i : idx)
                i = next() % 256;
            const bool taken = (next() & 3) != 0;
            const GskewLookup look =
                runTemplates(SplitBanks{ref}, idx, taken, partial);
            GskewStepBits<uint64_t> bits = splitBits(tab, idx);
            const GskewStep s =
                gskewStep(bits, gskewOutcomeKey(taken, partial));
            ASSERT_EQ(s.t.overall(), look.overall) << "step " << step;
        }
        for (unsigned t = 0; t < kNumTables; ++t) {
            for (size_t i = 0; i < 256; ++i) {
                ASSERT_EQ(tab[t].rawPred(i), ref[t].rawPred(i));
                ASSERT_EQ(tab[t].rawHyst(i), ref[t].rawHyst(i));
            }
        }
    }
}

/**
 * Every key, on the EV8 physical arrays through the predict()/update()
 * oracle's accessors (SplitBitBanks over Ev8PhysicalStorage) with
 * tracking on: the table's flips, its per-table access counts and its
 * prediction-read counts (the wordline tallies) are the tracked ones,
 * and gskewStep() on stepBits() leaves the same bits.
 */
TEST(GskewPolicyTable, MatchesEv8ArraysAndAccessCountsPerKey)
{
    // G0's and Meta's entries have the column MSB (bit 14 of a flat
    // index) set, so their hysteresis bit is the shared one.
    const std::array<size_t, kNumTables> idx = {0x123, 0x4000 | 0x2a1,
                                                0x7fff, 0x4000 | 0x155};
    for (unsigned key = 0; key < kGskewKeys; ++key) {
        const bool taken = (key >> 8) & 1, partial = (key >> 9) & 1;
        Ev8PhysicalStorage ref, tab;
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            for (Ev8PhysicalStorage *a : {&ref, &tab}) {
                a->writePred(id, idx[t], (key >> t) & 1);
                a->writeHyst(id, idx[t], (key >> (4 + t)) & 1);
            }
        }
        ref.setTracking(true);
        const GskewLookup look = runTemplates(
            SplitBitBanks<Ev8PhysicalStorage>{ref}, idx, taken, partial);
        ref.setTracking(false);

        GskewStepBits<uint8_t> bits = tab.stepBits(idx);
        const GskewStep s = gskewStep(bits, gskewOutcomeKey(taken, partial));
        EXPECT_EQ(s.t.overall(), look.overall) << "key " << key;

        const GskewTransition &e = kGskewPolicy.step[key];
        const std::array<GskewAccessStats, kNumTables> access =
            gskewKeyAccess(key);
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            const bool pred = ref.readPred(id, idx[t]);
            const bool hyst = ref.readHyst(id, idx[t]);
            EXPECT_EQ(pred, (((key ^ e.flips) >> t) & 1) != 0)
                << "key " << key << " table " << t;
            EXPECT_EQ(hyst, (((key ^ e.flips) >> (4 + t)) & 1) != 0)
                << "key " << key << " table " << t;
            EXPECT_EQ(tab.readPred(id, idx[t]), pred);
            EXPECT_EQ(tab.readHyst(id, idx[t]), hyst);

            const GskewAccessStats &want = access[t];
            const Ev8PhysicalStorage::AccessStats &got =
                ref.accessStats(id);
            EXPECT_EQ(got.predReads, want.predReads) << "key " << key;
            EXPECT_EQ(got.predWrites, want.predWrites) << "key " << key;
            EXPECT_EQ(got.hystReads, want.hystReads) << "key " << key;
            EXPECT_EQ(got.hystWrites, want.hystWrites) << "key " << key;
            EXPECT_EQ(got.predReads, e.predReadsOf(t)) << "key " << key;
            EXPECT_EQ(ref.wordlineReads(id)[ev8IndexWordline(idx[t])],
                      e.predReadsOf(t))
                << "key " << key;
        }
    }
}

// ---- Statistics from key histograms --------------------------------

void
expectSameVotes(const GskewVoteStats &a, const GskewVoteStats &b,
                const std::string &what)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        EXPECT_EQ(a.bank[t].lookups, b.bank[t].lookups) << what << t;
        EXPECT_EQ(a.bank[t].conflicts, b.bank[t].conflicts) << what << t;
        EXPECT_EQ(a.bank[t].agree, b.bank[t].agree) << what << t;
    }
    EXPECT_EQ(a.updates, b.updates) << what;
    EXPECT_EQ(a.unanimous, b.unanimous) << what;
    EXPECT_EQ(a.metaSelectsGskew, b.metaSelectsGskew) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
}

/**
 * Snapshots of a suite stream's conditional branches: pc and outcome
 * from the gcc trace, a global history, fake block and path fields.
 */
std::vector<std::pair<BranchSnapshot, bool>>
suiteSnapshots(size_t branches)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, branches);
    std::vector<std::pair<BranchSnapshot, bool>> out;
    uint64_t ghist = 0, z = 0, y = 0, x = 0;
    for (const BranchRecord &r : trace.records()) {
        if (!r.isConditional())
            continue;
        BranchSnapshot snap;
        snap.pc = r.pc;
        snap.blockAddr = r.pc & ~uint64_t{0x1f};
        snap.bank = static_cast<uint8_t>((r.pc >> 5) & 3);
        snap.hist.ghist = ghist;
        snap.hist.indexHist = ghist;
        snap.hist.pathZ = z;
        snap.hist.pathY = y;
        snap.hist.pathX = x;
        out.push_back({snap, r.taken});
        ghist = (ghist << 1) | r.taken;
        if (r.taken) {
            x = y;
            y = z;
            z = r.pc;
        }
    }
    return out;
}

/** Small tables (aliasing), mixed hysteresis sharing, path and policy. */
TwoBcGskewConfig
laneConfig(size_t lane, bool partial)
{
    TwoBcGskewConfig cfg = TwoBcGskewConfig::symmetric(
        static_cast<unsigned>(9 + lane % 3), 0, 7 + unsigned(lane), 9,
        13 + unsigned(lane), "lane");
    if (lane % 2 == 1) {
        cfg.tables[G0].log2Hyst -= 1;
        cfg.tables[META].log2Hyst -= 1;
    }
    cfg.usePathInfo = lane == 2;
    cfg.partialUpdate = partial;
    return cfg;
}

/**
 * The fused group's histogram-folded GskewVoteStats equal per-step
 * note() in the predict()/update() oracle, at 1, 2, 3 and 5 lanes,
 * under partial and total update, with stats off for a warm-up range
 * (its own group, as the walk builds one per range); so do the
 * predictions and the final tables.
 */
TEST(GskewKeyHistogram, FusedGroupFoldMatchesPerStepNotes)
{
    const auto snaps = suiteSnapshots(60000);
    const size_t warmup = snaps.size() / 3;
    for (const bool partial : {true, false}) {
        for (const size_t nlanes : {1, 2, 3, 5}) {
            std::vector<std::unique_ptr<TwoBcGskewPredictor>> fused, ref;
            std::vector<TwoBcGskewPredictor *> lanes;
            for (size_t l = 0; l < nlanes; ++l) {
                fused.push_back(std::make_unique<TwoBcGskewPredictor>(
                    laneConfig(l, partial)));
                ref.push_back(std::make_unique<TwoBcGskewPredictor>(
                    laneConfig(l, partial)));
                lanes.push_back(fused.back().get());
            }
            std::vector<uint64_t> misp(nlanes, 0), ref_misp(nlanes, 0);
            for (const bool stats : {false, true}) {
                for (size_t l = 0; l < nlanes; ++l) {
                    fused[l]->enableStats(stats);
                    ref[l]->enableStats(stats);
                }
                const size_t begin = stats ? warmup : 0;
                const size_t end = stats ? snaps.size() : warmup;
                TwoBcGskewPredictor::FusedGroup group(lanes.data(), nlanes);
                for (size_t i = begin; i < end; ++i) {
                    const auto &[snap, taken] = snaps[i];
                    group.step(snap, taken, misp.data());
                    for (size_t l = 0; l < nlanes; ++l) {
                        const bool p = ref[l]->predict(snap);
                        ref[l]->update(snap, taken, p);
                        ref_misp[l] += p != taken;
                    }
                }
            }
            for (size_t l = 0; l < nlanes; ++l) {
                const std::string what = "lanes " + std::to_string(nlanes)
                    + " lane " + std::to_string(l)
                    + (partial ? " partial " : " total ");
                EXPECT_EQ(misp[l], ref_misp[l]) << what;
                expectSameVotes(fused[l]->voteStats(), ref[l]->voteStats(),
                                what);
                EXPECT_EQ(fused[l]->voteStats().updates,
                          snaps.size() - warmup)
                    << what;
                for (unsigned t = 0; t < kNumTables; ++t) {
                    const auto id = static_cast<TableId>(t);
                    const SplitCounterArray &a = fused[l]->bank(id);
                    const SplitCounterArray &b = ref[l]->bank(id);
                    for (size_t i = 0; i < a.predSize(); ++i) {
                        ASSERT_EQ(a.rawPred(i), b.rawPred(i)) << what;
                        ASSERT_EQ(a.rawHyst(i), b.rawHyst(i)) << what;
                    }
                }
            }
        }
    }
}

/**
 * EV8's histogram-folded vote stats, access stats and per-step
 * wordline reads equal the oracle's per-update notes and per-access
 * tracking, under both policies and both wordline modes, with stats
 * off for a warm-up range.
 */
TEST(GskewKeyHistogram, Ev8FoldMatchesPerAccessTracking)
{
    const auto snaps = suiteSnapshots(60000);
    const size_t warmup = snaps.size() / 3;
    for (const bool partial : {true, false}) {
        for (const WordlineMode mode :
             {WordlineMode::Ev8, WordlineMode::AddressOnly}) {
            Ev8Config cfg;
            cfg.partialUpdate = partial;
            cfg.wordline = mode;
            Ev8Predictor fused(cfg), ref(cfg);
            for (size_t i = 0; i < snaps.size(); ++i) {
                if (i == 0 || i == warmup) {
                    fused.enableStats(i == warmup);
                    ref.enableStats(i == warmup);
                }
                const auto &[snap, taken] = snaps[i];
                const bool p = ref.predict(snap);
                ref.update(snap, taken, p);
                ASSERT_EQ(fused.predictAndUpdate(snap, taken), p)
                    << "branch " << i;
                const VoteSnapshot a = fused.lastVotes(),
                                   b = ref.lastVotes();
                ASSERT_EQ(a.bim, b.bim);
                ASSERT_EQ(a.g0, b.g0);
                ASSERT_EQ(a.g1, b.g1);
                ASSERT_EQ(a.meta, b.meta);
                ASSERT_EQ(a.majority, b.majority);
            }
            const std::string what = partial ? "partial" : "total";
            expectSameVotes(fused.voteStats(), ref.voteStats(), what);
            const auto fa = fused.accessStats(), ra = ref.accessStats();
            for (unsigned t = 0; t < kNumTables; ++t) {
                const auto id = static_cast<TableId>(t);
                EXPECT_EQ(fa[t].predReads, ra[t].predReads) << what << t;
                EXPECT_EQ(fa[t].predWrites, ra[t].predWrites) << what << t;
                EXPECT_EQ(fa[t].hystReads, ra[t].hystReads) << what << t;
                EXPECT_EQ(fa[t].hystWrites, ra[t].hystWrites) << what << t;
                EXPECT_GT(fa[t].predReads, 0u) << what << t;
                EXPECT_EQ(fused.storage().wordlineReads(id),
                          ref.storage().wordlineReads(id))
                    << what << t;
            }
        }
    }
}

} // namespace
} // namespace ev8
