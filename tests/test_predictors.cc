/**
 * @file
 * Tests for the baseline predictors: a parameterized contract suite
 * every scheme must pass, plus scheme-specific unit tests.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/bimode.hh"
#include "predictors/egskew.hh"
#include "predictors/factory.hh"
#include "predictors/gas.hh"
#include "predictors/gshare.hh"
#include "predictors/local.hh"
#include "predictors/perceptron.hh"
#include "predictors/yags.hh"

namespace ev8
{
namespace
{

BranchSnapshot
snap(uint64_t pc, uint64_t hist = 0)
{
    BranchSnapshot s;
    s.pc = pc;
    s.blockAddr = pc & ~uint64_t{31};
    s.hist.ghist = hist;
    s.hist.indexHist = hist;
    return s;
}

/** Drives one (predict, update) round and returns the prediction. */
bool
step(ConditionalBranchPredictor &p, const BranchSnapshot &s, bool taken)
{
    const bool pred = p.predict(s);
    p.update(s, taken, pred);
    return pred;
}

// ---------------------------------------------------------------------
// Contract tests run against every factory spec.
// ---------------------------------------------------------------------

class PredictorContract : public ::testing::TestWithParam<const char *>
{
  protected:
    PredictorPtr make() const { return makePredictor(GetParam()); }
};

TEST_P(PredictorContract, LearnsAlwaysTaken)
{
    // The evolving history means history-indexed schemes touch a fresh
    // (cold) entry on each of the first ~64 lookups, so only the
    // steady-state window counts.
    auto p = make();
    HistoryRegister ghist;
    int wrong_late = 0;
    for (int i = 0; i < 300; ++i) {
        auto s = snap(0x1000, ghist.raw());
        const bool pred = step(*p, s, true);
        if (i >= 200)
            wrong_late += !pred;
        ghist.push(true);
    }
    EXPECT_LT(wrong_late, 5) << p->name();
}

TEST_P(PredictorContract, LearnsAlwaysNotTaken)
{
    auto p = make();
    HistoryRegister ghist;
    int wrong_late = 0;
    for (int i = 0; i < 300; ++i) {
        auto s = snap(0x2040, ghist.raw());
        const bool pred = step(*p, s, false);
        if (i >= 200)
            wrong_late += pred;
        ghist.push(false);
    }
    EXPECT_LT(wrong_late, 5) << p->name();
}

TEST_P(PredictorContract, DeterministicAcrossReset)
{
    // A predictor returns to its cold state only by being rebuilt from
    // its spec, as every cell does: two instances must predict alike.
    std::vector<bool> first;
    for (int round = 0; round < 2; ++round) {
        auto p = make();
        Rng seq(42);
        HistoryRegister ghist;
        for (int i = 0; i < 500; ++i) {
            const uint64_t pc = 0x1000 + (seq.below(64) << 2);
            const bool taken = seq.chance(0.5);
            auto s = snap(pc, ghist.raw());
            const bool pred = step(*p, s, taken);
            if (round == 0)
                first.push_back(pred);
            else
                ASSERT_EQ(pred, first[size_t(i)]) << p->name() << " @" << i;
            ghist.push(taken);
        }
    }
}

TEST_P(PredictorContract, ReportsStorageAndName)
{
    auto p = make();
    EXPECT_GT(p->storageBits(), 0u);
    EXPECT_FALSE(p->name().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, PredictorContract,
    ::testing::Values("bimodal:12", "gshare:12:12", "gshare:12:20",
                      "gas:12:6", "agree:12:10", "egskew:12:14",
                      "bimode:12:10:12", "yags:12:10:12",
                      "2bcgskew:12:0:9:11:14", "perceptron:10:16",
                      "local:10:8:10", "tournament", "ev8size",
                      "fig5-gshare2M", "fig5-yags288",
                      "fig5-2bcgskew256"));

// ---------------------------------------------------------------------
// History-driven learnability: any global-history scheme must learn an
// alternating branch that a bimodal cannot.
// ---------------------------------------------------------------------

class GlobalSchemes : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GlobalSchemes, LearnsAlternation)
{
    auto p = makePredictor(GetParam());
    HistoryRegister ghist;
    int wrong_late = 0;
    for (int i = 0; i < 600; ++i) {
        const bool taken = (i % 2) == 0;
        auto s = snap(0x1000, ghist.raw());
        const bool pred = step(*p, s, taken);
        if (i >= 300)
            wrong_late += pred != taken;
        ghist.push(taken);
    }
    EXPECT_LT(wrong_late, 15) << p->name();
}

TEST_P(GlobalSchemes, LearnsHistoryParityFunction)
{
    auto p = makePredictor(GetParam());
    Rng rng(5);
    HistoryRegister ghist;
    // Warm-up history.
    for (int i = 0; i < 64; ++i)
        ghist.push(rng.chance(0.5));
    int wrong_late = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        // A "driver" branch with random outcome followed by a branch
        // whose outcome copies the driver: classic correlation.
        const bool driver = rng.chance(0.5);
        auto d = snap(0x2000, ghist.raw());
        step(*p, d, driver);
        ghist.push(driver);

        auto s = snap(0x3000, ghist.raw());
        const bool pred = step(*p, s, driver);
        if (i > n / 2)
            wrong_late += pred != driver;
        ghist.push(driver);
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.12) << p->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllGlobal, GlobalSchemes,
    ::testing::Values("gshare:12:12", "gas:12:8", "agree:12:10",
                      "egskew:12:12", "bimode:12:10:12", "yags:12:10:12",
                      "2bcgskew:12:0:9:11:14", "perceptron:10:16",
                      "tournament"));

// ---------------------------------------------------------------------
// Scheme-specific behaviour.
// ---------------------------------------------------------------------

TEST(Bimodal, StorageIsTwoBitsPerEntry)
{
    EXPECT_EQ(BimodalPredictor(14).storageBits(), (1u << 14) * 2);
}

TEST(Bimodal, DistinctBranchesIndependent)
{
    BimodalPredictor p(10);
    for (int i = 0; i < 10; ++i) {
        step(p, snap(0x1000), true);
        step(p, snap(0x1004), false);
    }
    EXPECT_TRUE(p.predict(snap(0x1000)));
    EXPECT_FALSE(p.predict(snap(0x1004)));
}

TEST(Gshare, HistoryDisambiguatesSamePc)
{
    GsharePredictor p(12, 8);
    // Same branch, two history contexts, opposite outcomes.
    for (int i = 0; i < 20; ++i) {
        step(p, snap(0x1000, 0x0f), true);
        step(p, snap(0x1000, 0xf0), false);
    }
    EXPECT_TRUE(p.predict(snap(0x1000, 0x0f)));
    EXPECT_FALSE(p.predict(snap(0x1000, 0xf0)));
}

TEST(Gshare, StorageMatchesFig5Configuration)
{
    // The paper's 1M-entry gshare is 2 Mbits.
    EXPECT_EQ(makeGshare2M()->storageBits(), 2u * 1024 * 1024);
}

TEST(Gas, ConcatenatesPcAndHistory)
{
    GasPredictor p(12, 4);
    for (int i = 0; i < 20; ++i) {
        step(p, snap(0x1000, 0b0011), true);
        step(p, snap(0x1000, 0b1100), false);
    }
    EXPECT_TRUE(p.predict(snap(0x1000, 0b0011)));
    EXPECT_FALSE(p.predict(snap(0x1000, 0b1100)));
}

TEST(Agree, BiasSetOnFirstExecution)
{
    AgreePredictor p(10, 8, 10);
    // First execution taken: bias becomes taken; the agree counter
    // (initialized weakly-disagree = weakly not-taken counter) adapts.
    auto s = snap(0x1000, 0);
    for (int i = 0; i < 10; ++i)
        step(p, s, true);
    EXPECT_TRUE(p.predict(s));
}

TEST(Agree, ConstructiveAliasing)
{
    // Two branches sharing an agree entry but with opposite biases both
    // predict correctly -- the scheme's raison d'etre.
    AgreePredictor p(4, 0, 10); // tiny agree table, no history
    auto a = snap(0x1000), b = snap(0x1400);
    // Same agree index (pc bits fold onto 4 bits; choose aliasing pcs).
    for (int i = 0; i < 20; ++i) {
        step(p, a, true);  // taken-biased
        step(p, b, false); // not-taken-biased
    }
    EXPECT_TRUE(p.predict(a));
    EXPECT_FALSE(p.predict(b));
}

TEST(Egskew, MajorityVoteOverridesOneBank)
{
    EgskewPredictor p(10, 10);
    HistoryRegister h;
    // Train strongly on one context.
    for (int i = 0; i < 50; ++i)
        step(p, snap(0x1000, 0xaa), true);
    EXPECT_TRUE(p.predict(snap(0x1000, 0xaa)));
}

TEST(Egskew, PartialVsTotalUpdateDiffer)
{
    EgskewPredictor partial(8, 8, true);
    EgskewPredictor total(8, 8, false);
    Rng rng(9);
    HistoryRegister gh;
    int diffs = 0;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t pc = 0x1000 + (rng.below(256) << 2);
        const bool taken = rng.chance(0.3);
        auto s = snap(pc, gh.raw());
        const bool a = step(partial, s, taken);
        const bool b = step(total, s, taken);
        diffs += a != b;
        gh.push(taken);
    }
    EXPECT_GT(diffs, 0) << "policies should be observably different";
}

TEST(Bimode, SegregatesBiasedSubstreams)
{
    // Direction tables smaller than the choice table: the two branches
    // alias in the direction tables (same low 10 index bits) but have
    // distinct choice entries -- the bias segregation must keep them
    // from destroying each other.
    BimodePredictor p(10, 12, 8);
    const auto a = snap(0x1000, 0x55);
    const auto b = snap(0x1000 + (1 << 12), 0x55);
    for (int i = 0; i < 50; ++i) {
        step(p, a, true);
        step(p, b, false);
    }
    EXPECT_TRUE(p.predict(a));
    EXPECT_FALSE(p.predict(b));
}

TEST(Yags, ExceptionCacheOverridesBias)
{
    YagsPredictor p(10, 8, 6, 6);
    // Branch biased taken, except in one history context.
    for (int i = 0; i < 30; ++i) {
        step(p, snap(0x1000, 0x00), true);
        step(p, snap(0x1000, 0xff), false); // the exception
    }
    EXPECT_TRUE(p.predict(snap(0x1000, 0x00)));
    EXPECT_FALSE(p.predict(snap(0x1000, 0xff)));
}

TEST(Yags, StorageAccountsTags)
{
    // choice 2^c * 2 bits + 2 caches * 2^k * (2 + tag) bits.
    YagsPredictor p(14, 14, 23, 6);
    EXPECT_EQ(p.storageBits(),
              (1u << 14) * 2 + 2u * (1u << 14) * (2 + 6));
    // That is the paper's 288 Kbit configuration.
    EXPECT_EQ(p.storageBits(), 288u * 1024);
}

TEST(Perceptron, LearnsLinearlySeparableFunction)
{
    PerceptronPredictor p(8, 12);
    Rng rng(11);
    uint64_t hist = 0;
    int wrong_late = 0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        // Outcome = history bit 3 (trivially linearly separable).
        hist = (hist << 1) | (rng.chance(0.5) ? 1 : 0);
        const bool taken = ((hist >> 3) & 1) != 0;
        auto s = snap(0x1000, hist);
        const bool pred = step(p, s, taken);
        if (i > n / 2)
            wrong_late += pred != taken;
    }
    EXPECT_LT(wrong_late / double(n / 2), 0.05);
}

TEST(Perceptron, ThresholdFollowsJimenezFormula)
{
    PerceptronPredictor p(8, 20);
    EXPECT_EQ(p.threshold(), int(1.93 * 20 + 14));
}

TEST(Local, LearnsShortPeriodicPatternWithoutGlobalHistory)
{
    LocalPredictor p(10, 10, 12);
    // Period-3 pattern, invisible to a bimodal, trivial for local
    // history.
    const bool pattern[3] = {true, true, false};
    int wrong_late = 0;
    for (int i = 0; i < 600; ++i) {
        const bool taken = pattern[i % 3];
        auto s = snap(0x1000, 0); // no global history provided
        const bool pred = step(p, s, taken);
        if (i >= 300)
            wrong_late += pred != taken;
    }
    EXPECT_LT(wrong_late, 10);
}

TEST(Tournament, PicksTheBetterComponent)
{
    TournamentPredictor p;
    // Periodic local pattern: the local component wins; the chooser
    // should learn to use it.
    const bool pattern[4] = {true, true, true, false};
    int wrong_late = 0;
    HistoryRegister gh;
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
        const bool taken = pattern[i % 4];
        auto s = snap(0x1000, gh.raw());
        const bool pred = step(p, s, taken);
        if (i >= 1000)
            wrong_late += pred != taken;
        gh.push(taken);
    }
    EXPECT_LT(wrong_late / 1000.0, 0.05);
}

TEST(Factory, RejectsUnknownAndMalformedSpecs)
{
    EXPECT_THROW(makePredictor(""), std::invalid_argument);
    EXPECT_THROW(makePredictor("nosuch:1:2"), std::invalid_argument);
    EXPECT_THROW(makePredictor("gshare"), std::invalid_argument);
    EXPECT_THROW(makePredictor("gshare:12"), std::invalid_argument);
    // Numeric fields parse strictly and in range: log2 sizes in
    // [1, 30], histories in [0, 63], no signs or trailing garbage.
    for (const char *bad : {"bimodal:64", "gshare:70:8", "gshare:16:-1",
                            "gshare:16:8x", "gshare:abc:8", "bimodal:0",
                            "gshare:16:64", "gas:10:11", "egskew:1:4",
                            "2bcgskew", "2bcgskew:1:0:0:0:0",
                            "yags:10:10:10:17",
                            "local:10:17:10", "agree:12:8:31"}) {
        EXPECT_THROW(makePredictor(bad), std::invalid_argument) << bad;
    }
    try {
        makePredictor("gshare:abc:8");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("gshare:abc:8"), std::string::npos) << msg;
        EXPECT_NE(msg.find("log2 entries"), std::string::npos) << msg;
    }
    // The bounds themselves still build.
    EXPECT_EQ(makePredictor("gshare:1:63")->name(), "gshare-2-h63");
    EXPECT_NO_THROW(makePredictor("gas:10:10"));
    EXPECT_NO_THROW(makePredictor("2bcgskew:2:0:63:63:63"));
}

TEST(Factory, KnownSpecListNonEmpty)
{
    EXPECT_GE(knownPredictorSpecs().size(), 10u);
}

TEST(Factory, Fig5ConfigurationsMatchPaperBudgets)
{
    EXPECT_EQ(make2BcGskew256K()->storageBits(), 256u * 1024);
    EXPECT_EQ(make2BcGskew512K()->storageBits(), 512u * 1024);
    EXPECT_EQ(makeGshare2M()->storageBits(), 2u * 1024 * 1024);
    EXPECT_EQ(makeYags288K()->storageBits(), 288u * 1024);
    EXPECT_EQ(makeYags576K()->storageBits(), 576u * 1024);
    EXPECT_EQ(make2BcGskewEv8Size()->storageBits(), 352u * 1024);
    EXPECT_EQ(make2BcGskew4M()->storageBits(), 8u * 1024 * 1024);
    // Bi-mode: 2x128K direction + 16K choice = 544 Kbits.
    EXPECT_EQ(makeBimode544K()->storageBits(), 544u * 1024);
}

} // namespace
} // namespace ev8
