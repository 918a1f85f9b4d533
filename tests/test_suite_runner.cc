/**
 * @file
 * Tests for the suite runner and the history-length sweep rule.
 */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "predictors/factory.hh"
#include "sim/suite_runner.hh"

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

/** A gshare history-length sweep: one row per length, one batch. */
std::vector<std::vector<BenchResult>>
gshareSweep(SuiteRunner &runner, unsigned log2e,
            const std::vector<unsigned> &lengths)
{
    std::vector<GridRow> rows;
    for (unsigned len : lengths) {
        const std::string spec =
            "gshare:" + std::to_string(log2e) + ":" + std::to_string(len);
        rows.push_back({[spec] { return makePredictor(spec); },
                        SimConfig::ghist(), spec});
    }
    GridOutcome outcome = runner.runGrid(rows);
    EXPECT_TRUE(outcome.ok());
    return std::move(outcome.results);
}

TEST(SuiteRunner, BestMeanIndexSkipsFailedPoints)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // The finite minimum wins, wherever it sits.
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{5.0, 3.0, 4.0}), 1u);
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{2.0, 3.0, 4.0}), 0u);
    // Ties keep the first (the shorter history length).
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{4.0, 3.0, 3.0}), 1u);
    // A NaN point (every cell failed) never wins, even where a `<`
    // chain started at it would stall.
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{nan, 5.0, 4.0}), 2u);
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{5.0, nan, 4.0}), 2u);
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{3.0, nan, 4.0}), 0u);
    // Every point failed: the first is returned.
    EXPECT_EQ(SuiteRunner::bestMeanIndex(std::vector{nan, nan, nan}), 0u);
    EXPECT_THROW(SuiteRunner::bestMeanIndex(std::vector<double>{}),
                 std::invalid_argument);
}

TEST(Sweep, EvaluatesAllLengthsAndFindsMinimum)
{
    SuiteRunner runner(kTinyScale);
    const auto results = gshareSweep(runner, 12, {0, 6, 12});
    ASSERT_EQ(results.size(), 3u);
    std::vector<double> means;
    for (const auto &row : results) {
        EXPECT_EQ(row.size(), 8u);
        means.push_back(SuiteRunner::averageMispKI(row));
        EXPECT_GT(means.back(), 0.0);
    }
    const size_t best = SuiteRunner::bestMeanIndex(means);
    for (const double mean : means)
        EXPECT_LE(means[best], mean);
}

TEST(Sweep, HistoryHelpsOnTheSuite)
{
    // Even at tiny scale, *some* history must beat no history for a
    // gshare of adequate size -- the suite is correlation-rich.
    SuiteRunner runner(20000);
    const auto results = gshareSweep(runner, 14, {0, 10});
    EXPECT_LT(SuiteRunner::averageMispKI(results[1]),
              SuiteRunner::averageMispKI(results[0]));
}

} // namespace
} // namespace ev8
