/**
 * @file
 * Tests for the hardware-constrained EV8 predictor: equivalence of the
 * physical model against a logical mirror, block-wide prediction, and
 * behavioural checks.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/ev8_predictor.hh"
#include "predictors/tables.hh"

namespace ev8
{
namespace
{

BranchSnapshot
randomSnapshot(Rng &rng, uint64_t hist_mask = mask(21))
{
    BranchSnapshot s;
    s.blockAddr = (0x120000000ULL + (rng.below(1 << 18) << 2))
        & ~uint64_t{0}; // arbitrary text addresses
    s.pc = s.blockAddr + rng.below(8) * 4;
    s.hist.indexHist = rng.next() & hist_mask;
    s.hist.pathZ = 0x120000000ULL + (rng.below(1 << 18) << 2);
    s.bank = uint8_t(rng.below(4));
    return s;
}

TEST(Ev8Predictor, StorageIs352Kbits)
{
    Ev8Predictor p;
    EXPECT_EQ(p.storageBits(), 352u * 1024);
}

/**
 * Logical mirror: the same §4.2 policy over SplitCounterArrays indexed
 * with the same flat EV8 indices. If the physical banked model and this
 * logical model ever disagree on a prediction, the physical mapping is
 * wrong.
 */
class LogicalMirror
{
  public:
    LogicalMirror()
    {
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            banks[t] = SplitCounterArray(
                size_t{1} << ev8IndexBits(id),
                (size_t{1} << ev8IndexBits(id))
                    / (ev8PredColumns(id) / ev8HystColumns(id)));
        }
    }

    struct Facade
    {
        std::array<SplitCounterArray, kNumTables> &arrays;
        bool taken(TableId t, size_t i) const { return arrays[t].taken(i); }
        void strengthen(TableId t, size_t i) { arrays[t].strengthen(i); }
        void update(TableId t, size_t i, bool v) { arrays[t].update(i, v); }
    };

    bool
    step(const Ev8Predictor &ref, const BranchSnapshot &snap, bool taken)
    {
        GskewLookup look;
        for (unsigned t = 0; t < kNumTables; ++t)
            look.idx[t] = ref.tableIndex(static_cast<TableId>(t), snap);
        Facade facade{banks};
        computeGskewVotes(facade, look);
        gskewPartialUpdate(facade, look, taken);
        return look.overall;
    }

  private:
    std::array<SplitCounterArray, kNumTables> banks;
};

TEST(Ev8Predictor, PhysicalModelMatchesLogicalMirror)
{
    Ev8Predictor physical;
    LogicalMirror logical;
    Rng rng(42);
    for (int i = 0; i < 30000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng);
        const bool taken = rng.chance(0.4);
        const bool phys_pred = physical.predict(s);
        physical.update(s, taken, phys_pred);
        const bool logical_pred = logical.step(physical, s, taken);
        ASSERT_EQ(phys_pred, logical_pred) << "diverged at branch " << i;
    }
}

TEST(Ev8Predictor, HysteresisSharingIsVisibleInMapping)
{
    // Two G0 prediction indices differing only in the index MSB (the
    // top column bit) share a hysteresis entry: verify through the
    // logical-mirror geometry used above.
    LogicalMirror mirror;
    SplitCounterArray g0(size_t{1} << 16, size_t{1} << 15);
    EXPECT_EQ(g0.hystIndex(0x0abc), g0.hystIndex(0x8abc));
}

TEST(Ev8Predictor, PredictBlockAgreesWithPerBranchPredictions)
{
    Ev8Predictor p;
    Rng rng(7);
    // Train a little first so predictions are non-trivial.
    for (int i = 0; i < 20000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng);
        p.update(s, rng.chance(0.5), p.predict(s));
    }
    for (int i = 0; i < 2000; ++i) {
        const BranchSnapshot base = randomSnapshot(rng);
        Ev8IndexInput in;
        in.blockAddr = base.blockAddr;
        in.hist = base.hist.indexHist;
        in.zAddr = base.hist.pathZ;
        in.bank = base.bank;
        const Ev8BlockPrediction block = p.predictBlock(in);
        for (unsigned slot = 0; slot < 8; ++slot) {
            BranchSnapshot s = base;
            s.pc = base.blockAddr + slot * 4;
            const unsigned offset = unsigned(s.pc >> 2) & 7;
            ASSERT_EQ(block.takenAtOffset[offset], p.predict(s))
                << "slot " << slot;
        }
    }
}

TEST(Ev8Predictor, LearnsBiasedBranches)
{
    Ev8Predictor p;
    int wrong = 0;
    for (int i = 0; i < 400; ++i) {
        BranchSnapshot s;
        s.blockAddr = 0x120000040ULL;
        s.pc = s.blockAddr + 8;
        s.hist.indexHist = 0x155555; // steady context
        s.bank = 1;
        const bool pred = p.predict(s);
        p.update(s, true, pred);
        wrong += !pred;
    }
    EXPECT_LT(wrong, 5);
}

TEST(Ev8Predictor, LearnsHistoryCorrelation)
{
    Ev8Predictor p;
    Rng rng(11);
    uint64_t lghist = 0;
    int wrong_late = 0;
    const int n = 6000;
    for (int i = 0; i < n; ++i) {
        const bool context = rng.chance(0.5);
        lghist = ((lghist << 1) | (context ? 1 : 0)) & mask(21);
        BranchSnapshot s;
        s.blockAddr = 0x120000100ULL;
        s.pc = s.blockAddr + 4;
        s.hist.indexHist = lghist;
        s.bank = unsigned(i) & 3;
        const bool pred = p.predict(s);
        p.update(s, context, pred);
        if (i > n / 2)
            wrong_late += pred != context;
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.08);
}

TEST(Ev8Predictor, WordlineModeChangesBehaviour)
{
    Ev8Config addr_cfg;
    addr_cfg.wordline = WordlineMode::AddressOnly;
    Ev8Predictor ev8_mode;
    Ev8Predictor addr_mode(addr_cfg);
    BranchSnapshot a;
    a.blockAddr = 0x120000000ULL;
    a.pc = a.blockAddr;
    a.hist.indexHist = 0x5;
    // With history in the wordline, different histories may select
    // different wordlines; with address-only they cannot.
    BranchSnapshot b = a;
    b.hist.indexHist = 0xa;
    EXPECT_NE(ev8_mode.tableIndex(BIM, a), ev8_mode.tableIndex(BIM, b));
    EXPECT_EQ(addr_mode.tableIndex(BIM, a), addr_mode.tableIndex(BIM, b));
}

TEST(Ev8Predictor, TotalUpdateConfigObservablyDifferent)
{
    Ev8Config total_cfg;
    total_cfg.partialUpdate = false;
    Ev8Predictor partial;
    Ev8Predictor total(total_cfg);
    Rng rng(13);
    int diffs = 0;
    for (int i = 0; i < 20000; ++i) {
        const BranchSnapshot s = randomSnapshot(rng, mask(12));
        const bool taken = rng.chance(0.3);
        const bool a = partial.predict(s);
        partial.update(s, taken, a);
        const bool b = total.predict(s);
        total.update(s, taken, b);
        diffs += a != b;
    }
    EXPECT_GT(diffs, 0);
}

TEST(Ev8Predictor, NameAndConfig)
{
    Ev8Predictor p;
    EXPECT_EQ(p.name(), "EV8");
    EXPECT_TRUE(p.config().partialUpdate);
    EXPECT_EQ(p.config().wordline, WordlineMode::Ev8);
}

} // namespace
} // namespace ev8
