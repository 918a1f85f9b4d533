/**
 * @file
 * Tests for the generic (unconstrained) 2Bc-gskew predictor and its
 * configuration presets.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predictors/twobcgskew.hh"

namespace ev8
{
namespace
{

BranchSnapshot
snap(uint64_t pc, uint64_t hist, uint64_t path_z = 0)
{
    BranchSnapshot s;
    s.pc = pc;
    s.blockAddr = pc & ~uint64_t{31};
    s.hist.indexHist = hist;
    s.hist.pathZ = path_z;
    s.hist.pathY = path_z >> 8;
    s.hist.pathX = path_z >> 16;
    return s;
}

TEST(TwoBcGskewConfig, Ev8SizeMatchesTable1)
{
    const auto cfg = TwoBcGskewConfig::ev8Size();
    // Table 1 of the paper: prediction/hysteresis entries and history
    // lengths per component.
    EXPECT_EQ(cfg.tables[BIM].log2Pred, 14u);  // 16K
    EXPECT_EQ(cfg.tables[BIM].log2Hyst, 14u);  // 16K
    EXPECT_EQ(cfg.tables[BIM].histLen, 4u);
    EXPECT_EQ(cfg.tables[G0].log2Pred, 16u);   // 64K
    EXPECT_EQ(cfg.tables[G0].log2Hyst, 15u);   // 32K
    EXPECT_EQ(cfg.tables[G0].histLen, 13u);
    EXPECT_EQ(cfg.tables[G1].log2Pred, 16u);   // 64K
    EXPECT_EQ(cfg.tables[G1].log2Hyst, 16u);   // 64K
    EXPECT_EQ(cfg.tables[G1].histLen, 21u);
    EXPECT_EQ(cfg.tables[META].log2Pred, 16u); // 64K
    EXPECT_EQ(cfg.tables[META].log2Hyst, 15u); // 32K
    EXPECT_EQ(cfg.tables[META].histLen, 15u);
    // 208 Kbits prediction + 144 Kbits hysteresis = 352 Kbits.
    EXPECT_EQ(cfg.storageBits(), 352u * 1024);
}

TEST(TwoBcGskewConfig, SymmetricBudgets)
{
    // 4 * 64K 2-bit entries = 512 Kbits (the Fig. 5/8 base config).
    EXPECT_EQ(TwoBcGskewConfig::symmetric(16, 0, 17, 20, 27, "x")
                  .storageBits(),
              512u * 1024);
    EXPECT_EQ(TwoBcGskewConfig::symmetric(15, 0, 13, 16, 23, "x")
                  .storageBits(),
              256u * 1024);
}

TEST(TwoBcGskew, IndicesStayInTableRange)
{
    TwoBcGskewPredictor p(TwoBcGskewConfig::ev8Size());
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto s = snap(rng.next(), rng.next(), rng.next());
        EXPECT_LT(p.tableIndex(BIM, s), size_t{1} << 14);
        EXPECT_LT(p.tableIndex(G0, s), size_t{1} << 16);
        EXPECT_LT(p.tableIndex(G1, s), size_t{1} << 16);
        EXPECT_LT(p.tableIndex(META, s), size_t{1} << 16);
    }
}

TEST(TwoBcGskew, BimIgnoresHistoryWhenLengthZero)
{
    TwoBcGskewPredictor p(
        TwoBcGskewConfig::symmetric(12, 0, 9, 11, 14, "t"));
    EXPECT_EQ(p.tableIndex(BIM, snap(0x1000, 0x00)),
              p.tableIndex(BIM, snap(0x1000, 0xff)));
    EXPECT_NE(p.tableIndex(G0, snap(0x1000, 0x00)),
              p.tableIndex(G0, snap(0x1000, 0xff)));
}

TEST(TwoBcGskew, PathInfoChangesIndicesOnlyWhenEnabled)
{
    auto cfg = TwoBcGskewConfig::symmetric(12, 4, 9, 11, 14, "t");
    cfg.usePathInfo = false;
    TwoBcGskewPredictor without(cfg);
    cfg.usePathInfo = true;
    TwoBcGskewPredictor with(cfg);

    const auto a = snap(0x1000, 0x5a, /*path_z=*/0x111100);
    const auto b = snap(0x1000, 0x5a, /*path_z=*/0x999900);
    EXPECT_EQ(without.tableIndex(G1, a), without.tableIndex(G1, b));
    EXPECT_NE(with.tableIndex(G1, a), with.tableIndex(G1, b));
}

TEST(TwoBcGskew, LearnsBiasedBranchViaBim)
{
    TwoBcGskewPredictor p(
        TwoBcGskewConfig::symmetric(12, 0, 9, 11, 14, "t"));
    Rng rng(3);
    int wrong = 0;
    uint64_t hist = 0;
    for (int i = 0; i < 300; ++i) {
        const auto s = snap(0x2000, hist);
        const bool pred = p.predict(s);
        p.update(s, true, pred);
        wrong += !pred;
        hist = (hist << 1) | 1;
    }
    EXPECT_LT(wrong, 6);
}

TEST(TwoBcGskew, MetaSwitchesToGskewForCorrelatedBranch)
{
    // A branch whose outcome is history-dependent: the bimodal can at
    // best be 50% right, the majority vote learns it; meta must migrate.
    TwoBcGskewPredictor p(
        TwoBcGskewConfig::symmetric(12, 0, 9, 11, 14, "t"));
    Rng rng(4);
    uint64_t hist = 0;
    int wrong_late = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        const bool driver = rng.chance(0.5);
        // driver branch
        auto d = snap(0x4000, hist);
        p.update(d, driver, p.predict(d));
        hist = (hist << 1) | (driver ? 1 : 0);
        // correlated branch copies the driver outcome
        auto s = snap(0x5000, hist);
        const bool pred = p.predict(s);
        p.update(s, driver, pred);
        if (i > n / 2)
            wrong_late += pred != driver;
        hist = (hist << 1) | (driver ? 1 : 0);
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.10);
}

TEST(TwoBcGskew, PartialBeatsTotalUpdateUnderAliasing)
{
    // The Section 4.2 claim: partial update yields better accuracy via
    // better space utilization. Reproduce with a small predictor under
    // heavy aliasing pressure.
    auto cfg = TwoBcGskewConfig::symmetric(8, 0, 7, 8, 10, "t");
    cfg.partialUpdate = true;
    TwoBcGskewPredictor partial(cfg);
    cfg.partialUpdate = false;
    TwoBcGskewPredictor total(cfg);

    Rng rng(5);
    uint64_t hist = 0;
    int wrong_partial = 0, wrong_total = 0;
    // Many strongly biased static branches fighting over 256 entries.
    for (int i = 0; i < 60000; ++i) {
        const uint64_t pc = 0x1000 + (rng.below(1024) << 2);
        const bool taken = (pc >> 2) % 3 == 0; // per-branch constant
        auto s = snap(pc, hist);
        const bool pp = partial.predict(s);
        partial.update(s, taken, pp);
        const bool tp = total.predict(s);
        total.update(s, taken, tp);
        wrong_partial += pp != taken;
        wrong_total += tp != taken;
        hist = (hist << 1) | (taken ? 1 : 0);
    }
    EXPECT_LT(wrong_partial, wrong_total);
}

TEST(TwoBcGskew, HalfSizeHysteresisSharesEntries)
{
    // G0's hysteresis is half the prediction array: indices differing
    // only in the prediction-index MSB share a hysteresis entry.
    auto cfg = TwoBcGskewConfig::ev8Size();
    TwoBcGskewPredictor p(cfg);
    const auto &g0 = p.bank(G0);
    EXPECT_EQ(g0.predSize(), size_t{1} << 16);
    EXPECT_EQ(g0.hystSize(), size_t{1} << 15);
    EXPECT_EQ(g0.hystIndex(0x8123), g0.hystIndex(0x0123));
    const auto &g1 = p.bank(G1);
    EXPECT_NE(g1.hystIndex(0x8123), g1.hystIndex(0x0123));
}

TEST(TwoBcGskew, NameUsesLabel)
{
    EXPECT_EQ(TwoBcGskewPredictor(TwoBcGskewConfig::ev8Size()).name(),
              "2Bc-gskew-EV8size");
}

} // namespace
} // namespace ev8
