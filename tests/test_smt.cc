/**
 * @file
 * Tests for the SMT simulation layer (Section 3).
 */

#include <gtest/gtest.h>

#include "core/ev8_predictor.hh"
#include "predictors/factory.hh"
#include "sim/smt.hh"
#include "sim/trace_cache.hh"
#include "workloads/suite.hh"

namespace ev8
{
namespace
{

BlockStream
streamOf(const char *name, uint64_t branches)
{
    return synthesizeBlockStream(SyntheticProgram(findBenchmark(name).profile),
                                 name, branches);
}

TEST(Smt, SingleThreadMatchesPlainSimulator)
{
    // One SMT "thread" must be bit-identical to simulateTrace over the
    // trace its stream was built from, on the production walk and
    // under the oracle switch (split predict()/update() calls) alike.
    const Trace t = generateTrace(findBenchmark("perl").profile, 30000);
    const BlockStream stream = decodeBlockStream(t);
    for (const bool oracle : {false, true}) {
        SCOPED_TRACE(oracle ? "oracle" : "production");
        SmtConfig cfg;
        cfg.sim = SimConfig::ev8();
        cfg.sim.forceGenericKernel = oracle;

        Ev8Predictor smt_pred;
        const auto smt = simulateSmt({&stream}, smt_pred, cfg);

        Ev8Predictor plain_pred;
        const SimResult plain = simulateTrace(t, plain_pred, cfg.sim);

        ASSERT_EQ(smt.size(), 1u);
        EXPECT_EQ(smt[0].sim.stats.mispredictions(),
                  plain.stats.mispredictions());
        EXPECT_EQ(smt[0].sim.condBranches, plain.condBranches);
        EXPECT_EQ(smt[0].sim.lghistBits, plain.lghistBits);
        EXPECT_EQ(smt[0].sim.fetchBlocks, plain.fetchBlocks);
        EXPECT_EQ(smt[0].sim.branchesPerBlock, plain.branchesPerBlock);
    }
}

TEST(Smt, TwoThreadStreamsReproduceTheTraceInterleaverPins)
{
    // Per-thread tallies of gcc + go (20000 branches each) over one
    // shared EV8, as the FetchBlockBuilder-over-Trace interleaver
    // produced them before SMT walked BlockStreams.
    struct Pin
    {
        uint64_t misp, lghistBits, blocks, instrs;
    };
    const Pin per_thread[2] = {{1860, 15800, 21032, 103850},
                               {4352, 18389, 47154, 267830}};
    const Pin shared[2] = {{3930, 15800, 21032, 103850},
                           {5340, 18389, 47154, 267830}};

    const BlockStream a = streamOf("gcc", 20000);
    const BlockStream b = streamOf("go", 20000);
    for (const bool per_thread_history : {true, false}) {
        SmtConfig cfg;
        cfg.sim = SimConfig::ev8();
        cfg.perThreadHistory = per_thread_history;
        Ev8Predictor p;
        const auto results = simulateSmt({&a, &b}, p, cfg);
        ASSERT_EQ(results.size(), 2u);
        for (size_t t = 0; t < 2; ++t) {
            const Pin &pin = per_thread_history ? per_thread[t] : shared[t];
            const SimResult &r = results[t].sim;
            EXPECT_EQ(r.stats.mispredictions(), pin.misp) << t;
            EXPECT_EQ(r.condBranches, 20000u) << t;
            EXPECT_EQ(r.lghistBits, pin.lghistBits) << t;
            EXPECT_EQ(r.fetchBlocks, pin.blocks) << t;
            EXPECT_EQ(r.stats.instructions(), pin.instrs) << t;
        }
    }
}

TEST(Smt, EveryThreadRunsToCompletion)
{
    const BlockStream a = streamOf("compress", 20000);
    const BlockStream b = streamOf("vortex", 10000);
    SmtConfig cfg;
    cfg.sim = SimConfig::ev8();
    Ev8Predictor p;
    const auto results = simulateSmt({&a, &b}, p, cfg);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].name, "compress");
    EXPECT_EQ(results[1].name, "vortex");
    EXPECT_EQ(results[0].sim.condBranches, 20000u);
    EXPECT_EQ(results[1].sim.condBranches, 10000u);
}

TEST(Smt, DeterministicAcrossRuns)
{
    const BlockStream a = streamOf("go", 15000);
    const BlockStream b = streamOf("li", 15000);
    SmtConfig cfg;
    cfg.sim = SimConfig::ev8();
    Ev8Predictor p1, p2;
    const auto r1 = simulateSmt({&a, &b}, p1, cfg);
    const auto r2 = simulateSmt({&a, &b}, p2, cfg);
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].sim.stats.mispredictions(),
                  r2[i].sim.stats.mispredictions());
    }
}

TEST(Smt, SharingTablesDegradesGracefully)
{
    // Section 3: independent threads compete for entries; the global
    // scheme must lose some accuracy but not collapse.
    const BlockStream a = streamOf("gcc", 60000);
    const BlockStream b = streamOf("go", 60000);
    SmtConfig cfg;
    cfg.sim = SimConfig::ev8();

    Ev8Predictor alone_pred;
    const double alone =
        simulateStream(a, alone_pred, cfg.sim).stats.mispKI();

    Ev8Predictor shared_pred;
    const auto both = simulateSmt({&a, &b}, shared_pred, cfg);
    const double together = both[0].sim.stats.mispKI();

    EXPECT_GE(together, alone * 0.98) << "sharing cannot help gcc here";
    EXPECT_LT(together, alone * 2.0) << "degradation must be graceful";
}

TEST(Smt, PerThreadHistoryBeatsSharedHistory)
{
    // The paper's core SMT argument: one history register per thread.
    const BlockStream a = streamOf("gcc", 50000);
    const BlockStream b = streamOf("go", 50000);

    SmtConfig per_thread;
    per_thread.sim = SimConfig::ev8();
    per_thread.perThreadHistory = true;

    SmtConfig shared = per_thread;
    shared.perThreadHistory = false;

    Ev8Predictor p1;
    const auto good = simulateSmt({&a, &b}, p1, per_thread);
    Ev8Predictor p2;
    const auto bad = simulateSmt({&a, &b}, p2, shared);

    const double good_avg = (good[0].sim.stats.mispKI()
                             + good[1].sim.stats.mispKI()) / 2;
    const double bad_avg = (bad[0].sim.stats.mispKI()
                            + bad[1].sim.stats.mispKI()) / 2;
    EXPECT_LT(good_avg, bad_avg);
}

TEST(Smt, WorksWithAnyPredictorScheme)
{
    const BlockStream a = streamOf("perl", 10000);
    const BlockStream b = streamOf("li", 10000);
    SmtConfig cfg;
    cfg.sim = SimConfig::ghist();
    auto gshare = makePredictor("gshare:14:12");
    const auto results = simulateSmt({&a, &b}, *gshare, cfg);
    EXPECT_EQ(results[0].sim.condBranches, 10000u);
    EXPECT_EQ(results[1].sim.condBranches, 10000u);
}

} // namespace
} // namespace ev8
