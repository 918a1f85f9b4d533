/**
 * @file
 * Tests for fused multi-configuration simulation: the guarantee that a
 * fused walk -- one stream pass driving N predictor lanes -- produces
 * *exactly* what N independent oracle runs (forceGenericKernel, the
 * one-lane virtual walk) produce, for any lane mix and any lane cap
 * (EV8_FUSED_LANES=1: one one-lane walk per cell), exact or
 * phase-sampled, down to the bytes of
 * the merged metric registry and the sampled event stream.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "sim/block_stream.hh"
#include "sim/experiment.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "workloads/suite.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kTinyScale = 3000;

/**
 * A mixed-type lane set: every fused dispatch bucket is exercised. The
 * group-stepped and predictAndUpdate buckets are the untimed,
 * event-free walk's; with timing or events on, every lane takes the
 * observed path's split predict()/update() calls.
 */
std::vector<std::string>
laneSpecs()
{
    return {
        "gshare:12:8",             // FusedGroupStepped, shared walk
        "gshare:12:12",            // second lane of the same group
        "bimodal:10",              // FusedGroupStepped, history-free
        "2bcgskew:12:0:13:14:15",  // FusedGroupStepped
        "egskew:12:10",            // FusedSteppable (predictAndUpdate)
        "yags:10:10:10",           // FusedSteppable
        "bimode:10:10:10",         // FusedSteppable
        "perceptron:10:16",        // generic (virtual) bucket
    };
}

void
expectSameResult(const SimResult &fused, const SimResult &ref,
                 const std::string &label)
{
    EXPECT_EQ(fused.stats.lookups(), ref.stats.lookups()) << label;
    EXPECT_EQ(fused.stats.mispredictions(), ref.stats.mispredictions())
        << label;
    EXPECT_EQ(fused.stats.instructions(), ref.stats.instructions())
        << label;
    EXPECT_EQ(fused.fetchBlocks, ref.fetchBlocks) << label;
    EXPECT_EQ(fused.lghistBits, ref.lghistBits) << label;
    EXPECT_EQ(fused.condBranches, ref.condBranches) << label;
    EXPECT_EQ(fused.branchesPerBlock, ref.branchesPerBlock) << label;
    EXPECT_EQ(fused.sampled, ref.sampled) << label;
}

/** @p config with the oracle forced: the reference for every check. */
SimConfig
oracle(SimConfig config)
{
    config.forceGenericKernel = true;
    return config;
}

class FusedKernelTest : public ::testing::TestWithParam<SimConfig>
{
};

/**
 * The core contract, checked at the simulateStreamFused() level: a
 * heterogeneous lane set over one stream equals lane-by-lane oracle
 * runs, for the paper's history configurations.
 */
TEST_P(FusedKernelTest, MatchesPerLaneSimulation)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    const SimConfig config = GetParam();

    std::vector<PredictorPtr> fused_preds, ref_preds;
    std::vector<FusedLane> lanes;
    for (const std::string &spec : laneSpecs()) {
        fused_preds.push_back(makePredictor(spec));
        ref_preds.push_back(makePredictor(spec));
        lanes.push_back({fused_preds.back().get(), nullptr, nullptr});
    }

    const auto fused = simulateStreamFused(stream, lanes, config);
    ASSERT_EQ(fused.size(), lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        const SimResult ref =
            simulateStream(stream, *ref_preds[i], oracle(config));
        expectSameResult(fused[i], ref, laneSpecs()[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    HistoryModes, FusedKernelTest,
    ::testing::Values(SimConfig::ghist(), SimConfig::ev8()),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        return info.param.history == HistoryMode::Ghist ? "ghist"
                                                        : "ev8";
    });

/**
 * A single cell is the degenerate one-lane walk: simulateStream() and a
 * one-lane simulateStreamFused() must both match the oracle.
 */
TEST(FusedKernel, SingleLaneMatchesSimulateStream)
{
    const Trace trace =
        generateTrace(findBenchmark("go").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);

    auto fused_pred = makePredictor("gshare:12:10");
    auto cell_pred = makePredictor("gshare:12:10");
    auto ref_pred = makePredictor("gshare:12:10");
    const auto fused = simulateStreamFused(
        stream, {{fused_pred.get(), nullptr, nullptr}},
        SimConfig::ghist());
    const SimResult cell =
        simulateStream(stream, *cell_pred, SimConfig::ghist());
    const SimResult ref =
        simulateStream(stream, *ref_pred, oracle(SimConfig::ghist()));
    ASSERT_EQ(fused.size(), 1u);
    expectSameResult(fused[0], ref, "gshare:12:10 fused");
    expectSameResult(cell, ref, "gshare:12:10 simulateStream");
}

/** Per-lane metric sinks match what an oracle run publishes. */
TEST(FusedKernel, PerLaneMetricsMatchPerCellMetrics)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    SimConfig config = SimConfig::ev8();

    std::vector<PredictorPtr> preds;
    std::vector<std::unique_ptr<MetricRegistry>> regs;
    std::vector<FusedLane> lanes;
    for (const std::string &spec : {std::string("2bcgskew:12:0:13:14:15"),
                                    std::string("gshare:12:12")}) {
        preds.push_back(makePredictor(spec));
        regs.push_back(std::make_unique<MetricRegistry>());
        lanes.push_back({preds.back().get(), regs.back().get(), nullptr});
    }
    simulateStreamFused(stream, lanes, config);

    for (size_t i = 0; i < lanes.size(); ++i) {
        auto ref_pred = makePredictor(
            i == 0 ? "2bcgskew:12:0:13:14:15" : "gshare:12:12");
        MetricRegistry ref_reg;
        SimConfig ref_config = oracle(config);
        ref_config.metrics = &ref_reg;
        simulateStream(stream, *ref_pred, ref_config);

        std::ostringstream fused_json, ref_json;
        writeRegistryJson(fused_json, *regs[i]);
        writeRegistryJson(ref_json, ref_reg);
        EXPECT_EQ(fused_json.str(), ref_json.str()) << "lane " << i;
    }
}

/**
 * One full observed grid run: merged metrics JSON, events JSONL and,
 * when sampled, the artifact's per-cell "sampling" rows.
 */
struct ObservedGrid
{
    std::vector<std::vector<BenchResult>> results;
    std::string metricsJson;
    std::string eventsJsonl;
    std::vector<SuiteRunner::SampledCell> sampling;
};

/**
 * A fixed phase-sampling spec small enough for test traces: several
 * phases and windows per benchmark, each with a warmup prefix.
 */
SampleSpec
testSampleSpec()
{
    SampleSpec spec;
    spec.active = true;
    spec.budget = 8192;
    spec.windowBranches = 512;
    spec.warmupBranches = 512;
    spec.seed = 3;
    spec.maxPhases = 8;
    return spec;
}

constexpr uint64_t kSampledScale = 40000;

/**
 * Runs the laneSpecs() grid with a metric registry attached and, when
 * @p withEvents, an event sink too. Events push every lane onto the
 * observed per-lane path, so only an events-off grid reaches the group
 * steppers (and the SIMD backends).
 */
ObservedGrid
observedGrid(unsigned jobs, const SampleSpec *spec = nullptr,
             bool withEvents = true)
{
    SuiteRunner runner(spec ? kSampledScale : kTinyScale, jobs);
    if (spec)
        runner.setSampleSpec(*spec);
    MetricRegistry metrics;
    std::ostringstream events;
    EventTraceSink sink(events, 8);

    std::vector<GridRow> rows;
    for (const std::string &spec : laneSpecs()) {
        GridRow row;
        row.factory = [spec] { return makePredictor(spec); };
        row.config = SimConfig::ghist();
        row.config.metrics = &metrics;
        row.config.events = withEvents ? &sink : nullptr;
        rows.push_back(std::move(row));
    }
    ObservedGrid run;
    run.results = runner.runGrid(rows).results;
    std::ostringstream metrics_json;
    writeRegistryJson(metrics_json, metrics);
    run.metricsJson = metrics_json.str();
    run.eventsJsonl = events.str();
    run.sampling = runner.sampledCells();
    EXPECT_EQ(sink.emitted() > 0, withEvents);
    return run;
}

void
expectSameGrid(const ObservedGrid &a, const ObservedGrid &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (size_t r = 0; r < a.results.size(); ++r) {
        ASSERT_EQ(a.results[r].size(), b.results[r].size());
        for (size_t i = 0; i < a.results[r].size(); ++i) {
            EXPECT_EQ(a.results[r][i].bench, b.results[r][i].bench);
            expectSameResult(a.results[r][i].sim, b.results[r][i].sim,
                             a.results[r][i].bench);
        }
    }
    EXPECT_EQ(a.metricsJson, b.metricsJson);
    EXPECT_EQ(a.eventsJsonl, b.eventsJsonl);
    ASSERT_EQ(a.sampling.size(), b.sampling.size());
    for (size_t i = 0; i < a.sampling.size(); ++i) {
        EXPECT_EQ(a.sampling[i].rowLabel, b.sampling[i].rowLabel);
        EXPECT_EQ(a.sampling[i].bench, b.sampling[i].bench);
        EXPECT_EQ(a.sampling[i].info, b.sampling[i].info)
            << a.sampling[i].bench;
    }
}

/**
 * The engine-level guarantee: fused lane groups and one one-lane walk
 * per cell (EV8_FUSED_LANES=1) produce byte-identical merged registries
 * and event streams, serial and parallel.
 */
TEST(FusedEngine, FusedGridIsByteIdenticalToPerCellGrid)
{
    ObservedGrid fused_j1, fused_j4, percell_j1, percell_j4;
    {
        ScopedEnv env("EV8_FUSED_LANES", nullptr);
        fused_j1 = observedGrid(1);
        fused_j4 = observedGrid(4);
    }
    {
        ScopedEnv env("EV8_FUSED_LANES", "1");
        percell_j1 = observedGrid(1);
        percell_j4 = observedGrid(4);
    }
    expectSameGrid(fused_j1, percell_j1);
    expectSameGrid(fused_j4, percell_j1);
    expectSameGrid(percell_j4, percell_j1);
}

/** And the lane cap is invisible: 1, 2 or 8 lanes per fused job. */
TEST(FusedEngine, LaneWidthDoesNotChangeAnyByte)
{
    ObservedGrid reference;
    {
        ScopedEnv lanes("EV8_FUSED_LANES", nullptr);
        reference = observedGrid(1);
    }
    for (const char *cap : {"1", "2", "8"}) {
        ScopedEnv lanes("EV8_FUSED_LANES", cap);
        ObservedGrid capped = observedGrid(1);
        expectSameGrid(capped, reference);
    }
}

/**
 * The SIMD dispatch contract: sweeping the vector backend (EV8_SIMD),
 * the lane cap and the worker count changes no byte of the grid
 * results, the merged metric registry or the sampled event stream.
 * The reference is the scalar steppers at the default lane width;
 * "avx2" joins the sweep when the build and CPU allow it. The
 * events-off leg is the one that runs the group steppers, hence the
 * vector backends; the events-on leg covers the observed path.
 */
TEST(FusedEngine, SimdBackendLaneCapJobsDoNotChangeAnyByte)
{
    std::vector<const char *> backends{"0", "scalar"};
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        backends.push_back("avx2");
    for (const bool events : {false, true}) {
        ObservedGrid reference;
        {
            ScopedEnv simd_env("EV8_SIMD", "0");
            ScopedEnv lanes("EV8_FUSED_LANES", nullptr);
            reference = observedGrid(1, nullptr, events);
        }
        for (const char *backend : backends) {
            ScopedEnv simd_env("EV8_SIMD", backend);
            for (const char *cap : {"1", "3", "8", "16", "64"}) {
                ScopedEnv lanes("EV8_FUSED_LANES", cap);
                for (const unsigned jobs : {1u, 4u}) {
                    SCOPED_TRACE(std::string("events=")
                                 + (events ? "on" : "off") + " simd="
                                 + backend + " lanes=" + cap + " jobs="
                                 + std::to_string(jobs));
                    expectSameGrid(observedGrid(jobs, nullptr, events),
                                   reference);
                }
            }
        }
    }
}

/** The oracle (EV8_GENERIC_KERNEL=1) reproduces the production grid. */
TEST(FusedEngine, GenericKernelGridMatchesDevirtualizedGrid)
{
    const ObservedGrid devirt = observedGrid(1);
    ScopedEnv generic("EV8_GENERIC_KERNEL", "1");
    const ObservedGrid forced = observedGrid(1);
    expectSameGrid(forced, devirt);
}

/**
 * Exact and sampled runs share one windowed walk, so the sampled grid
 * must hold the same contract: the oracle and the production walk,
 * fused or one lane per cell, serial or parallel, agree on every byte
 * -- including the extrapolated estimates and confidence intervals of
 * the "sampling" rows, compared unmasked.
 */
TEST(FusedEngine, SampledGridIsByteIdenticalAcrossKernelsAndFusion)
{
    const SampleSpec spec = testSampleSpec();
    ObservedGrid reference;
    {
        ScopedEnv generic("EV8_GENERIC_KERNEL", "1");
        ScopedEnv lanes("EV8_FUSED_LANES", "1");
        reference = observedGrid(1, &spec);
    }
    ASSERT_FALSE(reference.sampling.empty());
    for (const auto &cell : reference.sampling) {
        ASSERT_TRUE(cell.info.active);
        EXPECT_LT(cell.info.windowsSimulated, cell.info.windowsTotal)
            << cell.bench;
    }
    for (const char *generic : {"0", "1"}) {
        ScopedEnv generic_env("EV8_GENERIC_KERNEL", generic);
        for (const char *cap : {"1", "64"}) {
            ScopedEnv lanes("EV8_FUSED_LANES", cap);
            for (const unsigned jobs : {1u, 4u}) {
                SCOPED_TRACE(std::string("generic=") + generic
                             + " lanes=" + cap
                             + " jobs=" + std::to_string(jobs));
                expectSameGrid(observedGrid(jobs, &spec), reference);
            }
        }
    }
}

} // namespace
} // namespace ev8
