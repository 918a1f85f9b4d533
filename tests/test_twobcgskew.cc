/**
 * @file
 * Tests for the generic (unconstrained) 2Bc-gskew predictor and its
 * configuration presets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/bits.hh"
#include "common/random.hh"
#include "predictors/twobcgskew.hh"
#include "serve/grids.hh"

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

/** Every (table, uses path fold, index width) the registry grids'
 *  2Bc-gskew rows configure. */
std::set<std::tuple<unsigned, bool, unsigned>>
registryAddressSlots()
{
    std::set<std::tuple<unsigned, bool, unsigned>> slots;
    for (const std::string &id : knownGrids()) {
        const GridSpec *grid = findGrid(id);
        for (const GridRow &row : buildGridRows(*grid, baseConfig(*grid))) {
            const PredictorPtr p = row.factory();
            const auto *g =
                dynamic_cast<const TwoBcGskewPredictor *>(p.get());
            if (g == nullptr)
                continue;
            for (unsigned t = 0; t < kNumTables; ++t) {
                slots.insert({t, g->config().usePathInfo,
                              g->config().tables[t].log2Pred});
            }
        }
    }
    return slots;
}

/**
 * The fused group's address terms are linear over GF(2) for every
 * slot the registry grids use -- term(a ^ b) == term(a) ^ term(b) --
 * and they are the address half of the predictor's own index: with no
 * history, tableIndex(pc, path) == term(pc) ^ tableIndex(0, path).
 * This is what lets the group split a path-fold slot into a cached
 * per-pc term and a per-block fold term.
 */
TEST(TwoBcGskewFusedGroup, AddressTermsAreLinearForEveryRegistrySlot)
{
    using Group = TwoBcGskewPredictor::FusedGroup;
    const auto slots = registryAddressSlots();
    ASSERT_FALSE(slots.empty());
    bool saw_path = false;
    Rng rng(0x11ea7);
    for (const auto &[table, path, n] : slots) {
        saw_path |= path;
        TwoBcGskewConfig cfg = TwoBcGskewConfig::symmetric(n, 0, 0, 0, 0,
                                                           "lin");
        cfg.usePathInfo = path;
        const TwoBcGskewPredictor p(cfg);
        const auto id = static_cast<TableId>(table);
        for (int i = 0; i < 2000; ++i) {
            const uint64_t a = rng.next(), b = rng.next();
            ASSERT_EQ(Group::addressTerm(table, n, a ^ b),
                      Group::addressTerm(table, n, a)
                          ^ Group::addressTerm(table, n, b))
                << "table " << table << " n " << n;
            const uint64_t pc = rng.next() & ~uint64_t{3};
            const uint64_t path_z = rng.next() & mask(24);
            ASSERT_EQ(p.tableIndex(id, snap(pc, 0, path_z)),
                      Group::addressTerm(table, n, pc)
                          ^ p.tableIndex(id, snap(0, 0, path_z)))
                << "table " << table << " n " << n << " path " << path;
        }
    }
    EXPECT_TRUE(saw_path) << "the registry has path-fold 2Bc-gskew rows";
}

/**
 * Branches whose pcs share an address-term table row, interleaved with
 * history and path changes: the group refills the row on every pc
 * change and matches the predict()/update() oracle step for step, on a
 * path-fold lane and a plain one.
 */
TEST(TwoBcGskewFusedGroup, CollidingPcsMatchOracleStepForStep)
{
    using Group = TwoBcGskewPredictor::FusedGroup;
    const uint64_t base = 0x4a10;
    const uint64_t stride = Group::kAddrRows << 2;
    const std::vector<uint64_t> pcs = {base, base + stride,
                                       base + 5 * stride};
    for (const uint64_t pc : pcs)
        ASSERT_EQ(Group::addrRow(pc), Group::addrRow(base));

    std::vector<TwoBcGskewConfig> cfgs = {
        TwoBcGskewConfig::symmetric(12, 0, 6, 8, 11, "plain"),
        TwoBcGskewConfig::ev8Size()};
    ASSERT_TRUE(cfgs[1].usePathInfo);
    std::vector<std::unique_ptr<TwoBcGskewPredictor>> fused, ref;
    std::vector<TwoBcGskewPredictor *> lanes;
    for (const auto &cfg : cfgs) {
        fused.push_back(std::make_unique<TwoBcGskewPredictor>(cfg));
        ref.push_back(std::make_unique<TwoBcGskewPredictor>(cfg));
        lanes.push_back(fused.back().get());
    }
    Group group(lanes.data(), lanes.size());
    std::vector<uint64_t> misp(lanes.size(), 0);
    Rng rng(0xc011);
    uint64_t hist = 0, path_z = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t pc = pcs[i % 2 == 0 ? 0 : 1 + rng.below(2)];
        if (rng.below(4) == 0)
            path_z = rng.next() & mask(24);
        const bool taken = ((pc >> 12) ^ hist ^ rng.below(8)) & 1;
        const BranchSnapshot s = snap(pc, hist, path_z);
        group.step(s, taken, misp.data());
        for (size_t l = 0; l < lanes.size(); ++l) {
            const bool p = ref[l]->predict(s);
            ref[l]->update(s, taken, p);
            const VoteSnapshot a = fused[l]->lastVotes();
            const VoteSnapshot b = ref[l]->lastVotes();
            ASSERT_EQ(std::tie(a.bim, a.g0, a.g1, a.meta, a.majority),
                      std::tie(b.bim, b.g0, b.g1, b.meta, b.majority))
                << "step " << i << " lane " << l;
        }
        hist = (hist << 1) | taken;
    }
    for (size_t l = 0; l < lanes.size(); ++l) {
        for (unsigned t = 0; t < kNumTables; ++t) {
            const auto id = static_cast<TableId>(t);
            const SplitCounterArray &a = fused[l]->bank(id);
            const SplitCounterArray &b = ref[l]->bank(id);
            for (size_t i = 0; i < a.predSize(); ++i) {
                ASSERT_EQ(a.rawPred(i), b.rawPred(i)) << "lane " << l;
                ASSERT_EQ(a.rawHyst(i), b.rawHyst(i)) << "lane " << l;
            }
        }
    }
}

} // namespace
} // namespace ev8
