/**
 * @file
 * Tests for the parallel experiment engine: pool sizing, parallelFor
 * coverage and exception propagation, and -- the load-bearing guarantee
 * -- that suite runs, merged metric registries and sampled event
 * streams are byte-identical whatever the worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "sim/cell_executor.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kTinyScale = 3000;

TEST(ExperimentEngine, DefaultJobsHonoursEnvVariable)
{
    {
        ScopedEnv env("EV8_JOBS", "3");
        EXPECT_EQ(ExperimentEngine::defaultJobs(), 3u);
        ExperimentEngine engine; // jobs = 0 resolves through the env
        EXPECT_EQ(engine.jobs(), 3u);
    }
    {
        ScopedEnv env("EV8_JOBS", nullptr);
        EXPECT_GE(ExperimentEngine::defaultJobs(), 1u);
    }
}

TEST(ExperimentEngineDeathTest, DefaultJobsRejectsInvalidEnvVariable)
{
    // A set-but-invalid EV8_JOBS is a hard configuration error: the
    // process exits 2 with a message naming the variable, rather than
    // silently running at some other width.
    for (const char *bad : {"0", "-1", "garbage", "8x"}) {
        ScopedEnv env("EV8_JOBS", bad);
        EXPECT_EXIT(ExperimentEngine::defaultJobs(),
                    ::testing::ExitedWithCode(2), "EV8_JOBS")
            << "EV8_JOBS='" << bad << "'";
    }
}

TEST(ExperimentEngine, ParseJobsAcceptsStrictDecimalCounts)
{
    EXPECT_EQ(ExperimentEngine::parseJobs("1"), 1u);
    EXPECT_EQ(ExperimentEngine::parseJobs("8"), 8u);
    EXPECT_EQ(ExperimentEngine::parseJobs("007"), 7u);
    EXPECT_EQ(ExperimentEngine::parseJobs("4096"), 4096u);
}

TEST(ExperimentEngine, ParseJobsRejectsEverythingElse)
{
    for (const char *bad :
         {"", "0", "-1", "+4", " 4", "4 ", "4x", "x4", "3.5", "0x10",
          "4097", "18446744073709551616", "999999999999999999999"}) {
        EXPECT_THROW(ExperimentEngine::parseJobs(bad),
                     std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(ExperimentEngine, FusedLaneCapParsesAndClamps)
{
    {
        ScopedEnv env("EV8_FUSED_LANES", nullptr);
        EXPECT_EQ(ExperimentEngine::fusedLaneCap(), kMaxFusedLanes);
    }
    {
        ScopedEnv env("EV8_FUSED_LANES", "2");
        EXPECT_EQ(ExperimentEngine::fusedLaneCap(), 2u);
    }
    {
        // Values above the kernel's lane array are clamped, not errors.
        ScopedEnv env("EV8_FUSED_LANES", "4096");
        EXPECT_EQ(ExperimentEngine::fusedLaneCap(), kMaxFusedLanes);
    }
}

TEST(ExperimentEngineDeathTest, FusedLaneCapRejectsInvalidEnvVariable)
{
    ScopedEnv env("EV8_FUSED_LANES", "zero");
    EXPECT_EXIT(ExperimentEngine::fusedLaneCap(),
                ::testing::ExitedWithCode(2), "EV8_FUSED_LANES");
}

TEST(ExperimentEngine, ParallelForRunsEveryIndexExactlyOnce)
{
    ExperimentEngine engine(4);
    constexpr size_t n = 97; // not a multiple of the pool width
    std::vector<std::atomic<int>> hits(n);
    engine.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExperimentEngine, ParallelForIsReusableAcrossBatches)
{
    ExperimentEngine engine(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<size_t> sum{0};
        engine.parallelFor(10, [&](size_t i) {
            sum.fetch_add(i + 1, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 55u) << "round " << round;
    }
}

TEST(ExperimentEngine, ParallelForPropagatesException)
{
    ExperimentEngine engine(4);
    std::atomic<int> completed{0};
    try {
        engine.parallelFor(16, [&](size_t i) {
            if (i == 7)
                throw std::runtime_error("job 7 failed");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
        FAIL() << "expected the job's exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7 failed");
    }
    // The batch still ran to completion: the other 15 jobs finished.
    EXPECT_EQ(completed.load(), 15);

    // And the engine is still usable after a failed batch.
    std::atomic<int> ok{0};
    engine.parallelFor(4, [&](size_t) { ok.fetch_add(1); });
    EXPECT_EQ(ok.load(), 4);
}

TEST(ExperimentEngine, SerialWidthRunsInline)
{
    ExperimentEngine engine(1);
    EXPECT_EQ(engine.jobs(), 1u);
    std::vector<size_t> order;
    engine.parallelFor(5, [&](size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ExperimentEngine, ConcurrentCallersShareOnePoolWithinJobs)
{
    ExperimentEngine engine(2);
    constexpr size_t n = 40;
    std::atomic<int> inFlight{0};
    std::atomic<int> maxInFlight{0};
    // Holds each task briefly so both callers' tasks overlap in the
    // queue, and records the concurrency the pool allowed.
    auto body = [&](std::vector<std::atomic<int>> &hits, size_t i) {
        const int now = inFlight.fetch_add(1) + 1;
        int seen = maxInFlight.load();
        while (now > seen && !maxInFlight.compare_exchange_weak(seen, now))
            ;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        hits[i].fetch_add(1);
        inFlight.fetch_sub(1);
    };

    std::vector<std::atomic<int>> hitsA(n);
    std::vector<std::atomic<int>> hitsB(n);
    bool aThrew = false;
    bool aComplete = false;
    std::string bError;
    bool bComplete = false;
    std::thread a([&] {
        try {
            engine.parallelFor(n, [&](size_t i) { body(hitsA, i); });
        } catch (...) {
            aThrew = true;
        }
        // Returned only after every one of this call's tasks finished.
        aComplete = std::all_of(hitsA.begin(), hitsA.end(),
                                [](const auto &h) { return h == 1; });
    });
    std::thread b([&] {
        try {
            engine.parallelFor(n, [&](size_t i) {
                if (i == 13)
                    throw std::runtime_error("job 13 of call B failed");
                body(hitsB, i);
            });
        } catch (const std::runtime_error &e) {
            bError = e.what();
        }
        bComplete = true;
        for (size_t i = 0; i < n; ++i) {
            if (hitsB[i] != (i == 13 ? 0 : 1))
                bComplete = false;
        }
    });
    a.join();
    b.join();

    // The throw reached only its own caller.
    EXPECT_FALSE(aThrew);
    EXPECT_TRUE(aComplete);
    EXPECT_EQ(bError, "job 13 of call B failed");
    EXPECT_TRUE(bComplete);
    EXPECT_LE(maxInFlight.load(), 2);
}

TEST(ExperimentEngine, OverlappingGroupCallsCountTheirWallOnce)
{
    ExperimentEngine engine(2);
    const std::vector<size_t> cells{0};
    const std::vector<CellRequest> requests(1);
    std::atomic<int> entered{0};
    // Each call's one group waits for the other's, so the two calls
    // overlap for at least the hold that follows.
    auto group = [&](const std::vector<size_t> &) {
        entered.fetch_add(1);
        while (entered.load() < 2)
            std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
    };
    const auto start = std::chrono::steady_clock::now();
    std::thread a([&] { engine.runGroups(cells, requests, group); });
    std::thread b([&] { engine.runGroups(cells, requests, group); });
    a.join();
    b.join();
    const uint64_t outerNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());

    EXPECT_EQ(engine.gridCellCount(), 2u);
    // The shared time counts once: never more than the span that
    // covered both calls, though each call alone held 60 ms.
    EXPECT_GE(engine.gridWallNs(), 60'000'000u);
    EXPECT_LE(engine.gridWallNs(), outerNs);
}

TEST(ExperimentEngine, ParallelForFromAPoolThreadThrows)
{
    ExperimentEngine engine(2);
    std::string error;
    engine.parallelFor(1, [&](size_t) {
        try {
            engine.parallelFor(2, [](size_t) {});
        } catch (const std::logic_error &e) {
            error = e.what();
        }
    });
    EXPECT_NE(error.find("pool threads"), std::string::npos) << error;
}

/** One suite run with full observability, at the given pool width. */
struct ObservedRun
{
    std::vector<BenchResult> results;
    std::string metricsJson;
    std::string eventsJsonl;
};

ObservedRun
observedRun(unsigned jobs)
{
    SuiteRunner runner(kTinyScale, jobs);
    MetricRegistry metrics;
    std::ostringstream events;
    EventTraceSink sink(events, 8);

    SimConfig config = SimConfig::ghist();
    config.metrics = &metrics;
    config.events = &sink;

    ObservedRun run;
    run.results = runner.run(
        [] { return makePredictor("2bcgskew:12:0:13:14:15"); }, config);
    std::ostringstream metrics_json;
    writeRegistryJson(metrics_json, metrics);
    run.metricsJson = metrics_json.str();
    run.eventsJsonl = events.str();
    EXPECT_GT(sink.emitted(), 0u);
    return run;
}

TEST(ExperimentEngine, SuiteRunIsByteIdenticalAcrossPoolWidths)
{
    const ObservedRun serial = observedRun(1);
    const ObservedRun parallel = observedRun(8);

    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(serial.results[i].bench, parallel.results[i].bench);
        EXPECT_EQ(serial.results[i].sim.stats.mispredictions(),
                  parallel.results[i].sim.stats.mispredictions());
        EXPECT_EQ(serial.results[i].sim.stats.instructions(),
                  parallel.results[i].sim.stats.instructions());
    }
    // The merged registry serializes to the same bytes: counters added
    // and gauges overwritten in submission order match the serial run.
    EXPECT_EQ(serial.metricsJson, parallel.metricsJson);
    // The sampled JSONL stream is byte-identical: buffered events
    // replay through the shared sink in submission order, so the global
    // 1-in-N sampling counter sees the identical event sequence.
    EXPECT_EQ(serial.eventsJsonl, parallel.eventsJsonl);
}

TEST(ExperimentEngine, GridRunMatchesRowByRowRuns)
{
    SuiteRunner parallel(kTinyScale, 8);
    std::vector<GridRow> rows;
    for (const char *spec : {"bimodal:10", "gshare:12:10"}) {
        GridRow row;
        row.factory = [spec] { return makePredictor(spec); };
        row.config = SimConfig::ghist();
        rows.push_back(std::move(row));
    }
    const GridOutcome outcome = parallel.runGrid(rows);
    EXPECT_TRUE(outcome.ok());
    const auto &grid = outcome.results;

    SuiteRunner serial(kTinyScale, 1);
    ASSERT_EQ(grid.size(), 2u);
    for (size_t r = 0; r < rows.size(); ++r) {
        const auto expected =
            serial.run(rows[r].factory, SimConfig::ghist());
        ASSERT_EQ(grid[r].size(), expected.size());
        for (size_t b = 0; b < expected.size(); ++b) {
            EXPECT_EQ(grid[r][b].bench, expected[b].bench);
            EXPECT_EQ(grid[r][b].sim.stats.mispredictions(),
                      expected[b].sim.stats.mispredictions());
        }
    }
}

TEST(ExperimentEngine, HistorySweepIsWidthIndependent)
{
    // A history-length sweep is one grid batch of one row per length:
    // every length's suite mean is the same at any worker count.
    auto sweep = [](unsigned jobs) {
        SuiteRunner runner(kTinyScale, jobs);
        std::vector<GridRow> rows;
        for (unsigned len : {0u, 4u, 8u, 12u}) {
            const std::string spec = "gshare:12:" + std::to_string(len);
            rows.push_back({[spec] { return makePredictor(spec); },
                            SimConfig::ghist(), spec});
        }
        std::vector<double> means;
        for (const auto &row : runner.runGrid(rows).results)
            means.push_back(SuiteRunner::averageMispKI(row));
        return means;
    };
    const auto serial = sweep(1);
    const auto parallel = sweep(8);
    ASSERT_EQ(serial.size(), 4u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_DOUBLE_EQ(serial[i], parallel[i]);
}

} // namespace
} // namespace ev8
