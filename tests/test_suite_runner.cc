/**
 * @file
 * Tests for the suite runner and history-length sweep harness.
 */

#include <gtest/gtest.h>

#include "predictors/factory.hh"
#include "sim/suite_runner.hh"
#include "sim/sweep.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kTinyScale = 3000;

TEST(SuiteRunner, CoversAllBenchmarksInOrder)
{
    SuiteRunner runner(kTinyScale);
    const auto results = runner.run([] { return makePredictor("bimodal:10"); },
                                    SimConfig::ghist());
    ASSERT_EQ(results.size(), 8u);
    EXPECT_EQ(results[0].bench, "compress");
    EXPECT_EQ(results[7].bench, "vortex");
    for (const auto &r : results)
        EXPECT_GT(r.sim.condBranches, 0u);
}

TEST(SuiteRunner, TraceCachingIsStable)
{
    SuiteRunner runner(kTinyScale);
    const BlockStream &first = runner.blockStream(2);
    const BlockStream &second = runner.blockStream(2);
    EXPECT_EQ(&first, &second) << "stream must be built once";
    EXPECT_EQ(first.name(), "go");
    const TraceCache &cache = runner.traceCache();
    EXPECT_EQ(cache.streamRequestCount(), 2u);
    EXPECT_EQ(cache.decodedCount() + cache.streamDiskHitCount(), 1u);
}

TEST(SuiteRunner, RunsAreDeterministic)
{
    SuiteRunner runner(kTinyScale);
    const auto a = runner.run([] { return makePredictor("gshare:12:10"); },
                              SimConfig::ghist());
    const auto b = runner.run([] { return makePredictor("gshare:12:10"); },
                              SimConfig::ghist());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].sim.stats.mispredictions(),
                  b[i].sim.stats.mispredictions());
    }
}

TEST(SuiteRunner, BranchVolumesFollowWeights)
{
    SuiteRunner runner(kTinyScale);
    const auto results = runner.run([] { return makePredictor("bimodal:10"); },
                                    SimConfig::ghist());
    // li carries the largest dynamic weight (Table 2), ijpeg the least.
    uint64_t li = 0, ijpeg = 0;
    for (const auto &r : results) {
        if (r.bench == "li")
            li = r.sim.condBranches;
        if (r.bench == "ijpeg")
            ijpeg = r.sim.condBranches;
    }
    EXPECT_GT(li, ijpeg);
}

TEST(SuiteRunner, AverageMispKi)
{
    std::vector<BenchResult> rows(2);
    rows[0].sim.stats.setInstructions(1000);
    rows[1].sim.stats.setInstructions(1000);
    for (int i = 0; i < 4; ++i)
        rows[0].sim.stats.record(true, false); // 4 misp/KI
    for (int i = 0; i < 2; ++i)
        rows[1].sim.stats.record(true, false); // 2 misp/KI
    EXPECT_DOUBLE_EQ(SuiteRunner::averageMispKI(rows), 3.0);
    EXPECT_DOUBLE_EQ(SuiteRunner::averageMispKI({}), 0.0);
}

TEST(Sweep, EvaluatesAllLengthsAndFindsMinimum)
{
    SuiteRunner runner(kTinyScale);
    const auto points = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return makePredictor("gshare:12:" + std::to_string(len));
        },
        {0, 6, 12}, SimConfig::ghist());
    ASSERT_EQ(points.size(), 3u);
    EXPECT_EQ(points[0].histLen, 0u);
    EXPECT_EQ(points[2].histLen, 12u);
    for (const auto &p : points) {
        EXPECT_GT(p.avgMispKI, 0.0);
        EXPECT_EQ(p.perBench.size(), 8u);
    }
    const SweepPoint &best = bestPoint(points);
    for (const auto &p : points)
        EXPECT_LE(best.avgMispKI, p.avgMispKI);
}

TEST(Sweep, HistoryHelpsOnTheSuite)
{
    // Even at tiny scale, *some* history must beat no history for a
    // gshare of adequate size -- the suite is correlation-rich.
    SuiteRunner runner(20000);
    const auto points = sweepHistoryLengths(
        runner,
        [](unsigned len) {
            return makePredictor("gshare:14:" + std::to_string(len));
        },
        {0, 10}, SimConfig::ghist());
    EXPECT_LT(points[1].avgMispKI, points[0].avgMispKI);
}

} // namespace
} // namespace ev8
