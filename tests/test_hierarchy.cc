/**
 * @file
 * Tests for the Section 9 backup-predictor hierarchy.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predictors/bimodal.hh"
#include "predictors/factory.hh"
#include "predictors/hierarchy.hh"
#include "predictors/perceptron.hh"

namespace ev8
{
namespace
{

BranchSnapshot
snap(uint64_t pc, uint64_t hist)
{
    BranchSnapshot s;
    s.pc = pc;
    s.blockAddr = pc & ~uint64_t{31};
    s.hist.indexHist = hist;
    return s;
}

HierarchyPredictor
makeHierarchy()
{
    return HierarchyPredictor(
        std::make_unique<BimodalPredictor>(10),
        std::make_unique<PerceptronPredictor>(8, 16), 10, "bim+perc");
}

TEST(Hierarchy, StorageSumsComponentsAndChooser)
{
    auto h = makeHierarchy();
    const uint64_t bim = BimodalPredictor(10).storageBits();
    const uint64_t perc = PerceptronPredictor(8, 16).storageBits();
    EXPECT_EQ(h.storageBits(), bim + perc + (1u << 10) * 2);
}

TEST(Hierarchy, NameCombinesOrUsesLabel)
{
    EXPECT_EQ(makeHierarchy().name(), "bim+perc");
    HierarchyPredictor unlabeled(std::make_unique<BimodalPredictor>(4),
                                 std::make_unique<BimodalPredictor>(5),
                                 4, "");
    EXPECT_NE(unlabeled.name().find("bimodal"), std::string::npos);
}

TEST(Hierarchy, ChooserMigratesToTheBetterComponent)
{
    // A branch only the backup (history-based perceptron) can predict:
    // outcome = history bit 2. The bimodal primary is ~50%; the chooser
    // must learn to trust the backup.
    auto h = makeHierarchy();
    Rng rng(3);
    uint64_t hist = 0;
    int wrong_late = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        hist = (hist << 1) | (rng.chance(0.5) ? 1 : 0);
        const bool taken = ((hist >> 2) & 1) != 0;
        auto s = snap(0x1000, hist);
        const bool pred = h.predict(s);
        h.update(s, taken, pred);
        if (i > n / 2)
            wrong_late += pred != taken;
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.10);
    EXPECT_GT(h.backupUseRate(), 0.2);
}

TEST(Hierarchy, KeepsPrimaryForBiasedBranches)
{
    // A constant branch: both components are right, the chooser has no
    // disagreement signal and keeps its (primary-leaning) reset state.
    auto h = makeHierarchy();
    int wrong = 0;
    uint64_t hist = 0;
    for (int i = 0; i < 200; ++i) {
        auto s = snap(0x2000, hist);
        const bool pred = h.predict(s);
        h.update(s, true, pred);
        wrong += !pred;
        hist = (hist << 1) | 1;
    }
    EXPECT_LT(wrong, 10);
}

TEST(Hierarchy, BeatsEitherComponentOnMixedWork)
{
    // Half the branches are PC-biased (primary's home turf), half are
    // history-driven (backup's). The hierarchy should beat both solo
    // runs.
    auto run = [](ConditionalBranchPredictor &p) {
        Rng rng(9);
        uint64_t hist = 0;
        int wrong = 0;
        const int n = 8000;
        for (int i = 0; i < n; ++i) {
            hist = (hist << 1) | (rng.chance(0.5) ? 1 : 0);
            // biased branch
            const uint64_t pc_b = 0x1000 + ((i % 64) << 2);
            const bool taken_b = (pc_b >> 2) % 2 == 0;
            auto sb = snap(pc_b, hist);
            const bool predb = p.predict(sb);
            p.update(sb, taken_b, predb);
            wrong += predb != taken_b;
            // history branch
            const bool taken_h = ((hist >> 3) & 1) != 0;
            auto sh = snap(0x9000, hist);
            const bool predh = p.predict(sh);
            p.update(sh, taken_h, predh);
            wrong += predh != taken_h;
        }
        return wrong;
    };

    BimodalPredictor bim(10);
    PerceptronPredictor perc(8, 16);
    auto hier = makeHierarchy();
    const int bim_wrong = run(bim);
    const int perc_wrong = run(perc);
    const int hier_wrong = run(hier);
    EXPECT_LT(hier_wrong, bim_wrong);
    EXPECT_LE(hier_wrong, perc_wrong * 1.05);
}

} // namespace
} // namespace ev8
