/**
 * @file
 * Tests for fused multi-configuration simulation: the guarantee that a
 * fused walk -- one stream pass driving N predictor lanes -- produces
 * *exactly* what N independent oracle runs (forceGenericKernel: one
 * lane behind split predict()/update() calls) produce, for any lane mix and any lane cap
 * (EV8_FUSED_LANES=1: one one-lane walk per cell), exact or
 * phase-sampled, down to the bytes of
 * the merged metric registry and the sampled event stream.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "core/ev8_predictor.hh"
#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "predictors/twobcgskew.hh"
#include "sim/block_stream.hh"
#include "sim/experiment.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"
#include "sim/smt.hh"
#include "sim/suite_runner.hh"
#include "workloads/suite.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kTinyScale = 3000;

/** One lane of the test grid: a label and how to build it. */
struct LaneSpec
{
    std::string label;
    PredictorFactory make;
};

/** A lane built by makePredictor(@p spec), labelled by the spec. */
LaneSpec
fromSpec(const std::string &spec)
{
    return {spec, [spec] { return makePredictor(spec); }};
}

/** A symmetric 2Bc-gskew lane with the given update policy and path. */
LaneSpec
gskewLane(const std::string &label, unsigned log2, unsigned h_bim,
          bool partial_update, bool path_info)
{
    return {label, [=] {
                TwoBcGskewConfig cfg = TwoBcGskewConfig::symmetric(
                    log2, h_bim, 13, 14, 15, label);
                cfg.partialUpdate = partial_update;
                cfg.usePathInfo = path_info;
                return std::make_unique<TwoBcGskewPredictor>(cfg);
            }};
}

/** A hardware EV8 lane with the given wordline mode and policy. */
LaneSpec
ev8Lane(const std::string &label, WordlineMode wordline,
        bool partial_update)
{
    return {label, [=] {
                Ev8Config cfg;
                cfg.wordline = wordline;
                cfg.partialUpdate = partial_update;
                cfg.label = label;
                return std::make_unique<Ev8Predictor>(cfg);
            }};
}

/**
 * A mixed-type lane set: every walk bucket is exercised, with or
 * without event sinks (events come from the same steppers). The
 * 2Bc-gskew and gshare buckets have several lanes, so their group
 * steppers take the vector path when EV8_SIMD allows it; the gshare
 * group's four lanes (two of them bimodal, which is gshare with no
 * history) fill one vector, and the 2Bc-gskew group mixes partial and
 * total update, path info on and off, shared hysteresis (ev8size) and
 * a history-indexed BIM, and its five lanes fill one vector and pad a
 * second.
 */
std::vector<LaneSpec>
laneSpecs()
{
    return {
        // FusedGroupStepped: one four-lane gshare group, bimodal lanes
        // included.
        fromSpec("gshare:12:8"),
        fromSpec("gshare:12:12"),
        fromSpec("bimodal:10"),
        fromSpec("bimodal:12"),
        // FusedGroupStepped, one five-lane 2Bc-gskew group.
        fromSpec("2bcgskew:12:0:13:14:15"),
        gskewLane("gskew-total", 12, 0, false, false),
        gskewLane("gskew-total-path", 11, 4, false, true),
        gskewLane("gskew-partial-path", 12, 2, true, true),
        fromSpec("ev8size"),
        // Ev8Predictor's own three-lane bucket (direct predictAndUpdate
        // calls), both wordline index tables and both update policies.
        ev8Lane("ev8", WordlineMode::Ev8, true),
        ev8Lane("ev8-addr-wordline", WordlineMode::AddressOnly, true),
        ev8Lane("ev8-total", WordlineMode::Ev8, false),
        // The generic walk: virtual predictAndUpdate() calls, fused
        // overrides (e-gskew, YAGS, bi-mode) and the default split
        // predict()/update() (perceptron) alike.
        fromSpec("egskew:12:10"),
        fromSpec("yags:10:10:10"),
        fromSpec("bimode:10:10:10"),
        fromSpec("perceptron:10:16"),
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

/** Every field of two per-lane event streams, in order. */
void
expectSameEvents(const std::vector<MispredictEvent> &fused,
                 const std::vector<MispredictEvent> &ref,
                 const std::string &label)
{
    ASSERT_EQ(fused.size(), ref.size()) << label;
    for (size_t k = 0; k < ref.size(); ++k) {
        SCOPED_TRACE(label + " event " + std::to_string(k));
        const MispredictEvent &a = fused[k], &b = ref[k];
        EXPECT_EQ(a.branchSeq, b.branchSeq);
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.blockAddr, b.blockAddr);
        EXPECT_EQ(a.ghist, b.ghist);
        EXPECT_EQ(a.indexHist, b.indexHist);
        EXPECT_EQ(a.bank, b.bank);
        EXPECT_EQ(a.taken, b.taken);
        EXPECT_EQ(a.predicted, b.predicted);
        EXPECT_EQ(a.votesValid, b.votesValid);
        EXPECT_EQ(a.voteBim, b.voteBim);
        EXPECT_EQ(a.voteG0, b.voteG0);
        EXPECT_EQ(a.voteG1, b.voteG1);
        EXPECT_EQ(a.voteMeta, b.voteMeta);
        EXPECT_EQ(a.voteMajority, b.voteMajority);
        if (::testing::Test::HasFailure())
            return; // one mismatching event says enough
    }
}

/**
 * The core contract, checked at the simulateStreamFused() level: a
 * heterogeneous lane set over one stream equals lane-by-lane oracle
 * runs, for the paper's history configurations -- tallies and every
 * field of every lane's mispredict events, votes included, on the
 * scalar steppers and, where the host has it, the AVX2 ones.
 */
TEST_P(FusedKernelTest, MatchesPerLaneSimulation)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    const SimConfig config = GetParam();
    const std::vector<LaneSpec> specs = laneSpecs();

    std::vector<const char *> backends{"0"};
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        backends.push_back("avx2");
    for (const char *backend : backends) {
        ScopedEnv simd_env("EV8_SIMD", backend);
        std::vector<PredictorPtr> fused_preds;
        std::vector<BufferedEventSink> fused_events(specs.size());
        std::vector<FusedLane> lanes;
        for (size_t i = 0; i < specs.size(); ++i) {
            fused_preds.push_back(specs[i].make());
            lanes.push_back(
                {fused_preds.back().get(), nullptr, &fused_events[i]});
        }

        const auto fused = simulateStreamFused(stream, lanes, config);
        ASSERT_EQ(fused.size(), lanes.size());
        for (size_t i = 0; i < lanes.size(); ++i) {
            const std::string label =
                specs[i].label + " simd=" + backend;
            const PredictorPtr ref_pred = specs[i].make();
            BufferedEventSink ref_events;
            SimConfig ref_config = oracle(config);
            ref_config.events = &ref_events;
            const SimResult ref =
                simulateStream(stream, *ref_pred, ref_config);
            expectSameResult(fused[i], ref, label);
            EXPECT_FALSE(ref_events.events().empty()) << label;
            expectSameEvents(fused_events[i].events(), ref_events.events(),
                             label);
        }
    }
}

/**
 * Every history mode runs through the same walk instantiation, so each
 * needs its own check: conventional ghist, the full EV8 vector, and
 * fig7's up-to-date lghist rows with and without the path bit.
 */
INSTANTIATE_TEST_SUITE_P(
    HistoryModes, FusedKernelTest,
    ::testing::Values(SimConfig::ghist(), SimConfig::ev8(),
                      SimConfig{HistoryMode::LghistNoPath, 0, false},
                      SimConfig{HistoryMode::LghistPath, 0, false}),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        const SimConfig &c = info.param;
        if (c.history == HistoryMode::Ghist)
            return "ghist";
        if (c.history == HistoryMode::LghistNoPath)
            return "lghist_nopath";
        return c.historyAge == 0 ? "lghist_path" : "ev8";
    });

/**
 * Bimodal is gshare with no history bits: bimodal:N and gshare:N:0
 * lanes stepped in one fused group give identical results and
 * mispredict events on every backend, both equal to the oracle, while
 * the bimodal lane keeps its own name and storage.
 */
TEST(FusedKernel, BimodalIsGshareWithoutHistory)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    const SimConfig config = SimConfig::ghist();
    const std::vector<std::string> specs{"bimodal:10", "gshare:10:0",
                                         "bimodal:12", "gshare:12:0"};

    std::vector<const char *> backends{"0"};
    if (simd::builtWithAvx2() && simd::cpuHasAvx2())
        backends.push_back("avx2");
    for (const char *backend : backends) {
        ScopedEnv simd_env("EV8_SIMD", backend);
        std::vector<PredictorPtr> preds;
        std::vector<BufferedEventSink> events(specs.size());
        std::vector<FusedLane> lanes;
        for (size_t i = 0; i < specs.size(); ++i) {
            preds.push_back(makePredictor(specs[i]));
            lanes.push_back({preds.back().get(), nullptr, &events[i]});
        }
        EXPECT_EQ(preds[0]->name(), "bimodal-1024");
        EXPECT_EQ(preds[2]->name(), "bimodal-4096");
        const auto fused = simulateStreamFused(stream, lanes, config);
        for (size_t i = 0; i < specs.size(); i += 2) {
            const std::string label = specs[i] + " simd=" + backend;
            EXPECT_EQ(preds[i]->storageBits(), preds[i + 1]->storageBits());
            expectSameResult(fused[i], fused[i + 1], label);
            EXPECT_FALSE(events[i].events().empty()) << label;
            expectSameEvents(events[i].events(), events[i + 1].events(),
                             label);

            const PredictorPtr ref_pred = makePredictor(specs[i]);
            BufferedEventSink ref_events;
            SimConfig ref_config = oracle(config);
            ref_config.events = &ref_events;
            const SimResult ref =
                simulateStream(stream, *ref_pred, ref_config);
            expectSameResult(fused[i], ref, label);
            expectSameEvents(events[i].events(), ref_events.events(),
                             label);
        }
    }
}

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

/** Counts whether a walk reached it by split calls or the fused step. */
class CountingPredictor final : public ConditionalBranchPredictor
{
  public:
    bool
    predict(const BranchSnapshot &) override
    {
        ++predicts;
        return false;
    }
    void update(const BranchSnapshot &, bool, bool) override { ++updates; }
    bool
    predictAndUpdate(const BranchSnapshot &, bool) override
    {
        ++fusedSteps;
        return false;
    }
    uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "counting"; }

    uint64_t predicts = 0, updates = 0, fusedSteps = 0;
};

/**
 * The oracle stays independent of the steppers: it reaches a scheme
 * only through predict() then update(), never predictAndUpdate(), one
 * pair per walked branch, exact, sampled and under SMT; the production
 * walk takes one predictAndUpdate() per branch.
 */
TEST(FusedKernel, OracleReachesSchemesOnlyThroughSplitCalls)
{
    const BlockStream stream = decodeBlockStream(
        generateTrace(findBenchmark("go").profile, kTinyScale));

    // Two non-contiguous windows, each primed by a warmup range.
    SamplePlan plan;
    plan.phases = 1;
    plan.totals.resize(1);
    uint64_t sampled_branches = 0;
    for (const auto &[warm, begin, end] :
         {std::array<size_t, 3>{0, 50, 150},
          std::array<size_t, 3>{300, 400, 500}}) {
        SampledWindow w;
        w.warmupBlockBegin = warm;
        w.blockBegin = begin;
        w.blockEnd = end;
        w.branchSeqBase = stream.branchBegin(begin);
        w.branches = stream.branchBegin(end) - stream.branchBegin(begin);
        plan.windows.push_back(w);
        sampled_branches +=
            stream.branchBegin(end) - stream.branchBegin(warm);
    }
    ASSERT_LT(size_t{500}, stream.blocks());

    const SamplePlan *const plans[] = {nullptr, &plan};
    for (const SamplePlan *p : plans) {
        const uint64_t branches = p ? sampled_branches : stream.branches();
        CountingPredictor production, ref;
        simulateStream(stream, production, SimConfig::ev8(), p);
        EXPECT_EQ(production.fusedSteps, branches);
        EXPECT_EQ(production.predicts, 0u);
        EXPECT_EQ(production.updates, 0u);

        simulateStream(stream, ref, oracle(SimConfig::ev8()), p);
        EXPECT_EQ(ref.fusedSteps, 0u);
        EXPECT_EQ(ref.predicts, branches);
        EXPECT_EQ(ref.updates, branches);
    }

    // SMT reads the same switch for its one shared predictor.
    SmtConfig smt;
    smt.sim = SimConfig::ev8();
    CountingPredictor shared, shared_ref;
    simulateSmt({&stream, &stream}, shared, smt);
    EXPECT_EQ(shared.fusedSteps, 2 * stream.branches());
    EXPECT_EQ(shared.predicts, 0u);
    smt.sim = oracle(smt.sim);
    simulateSmt({&stream, &stream}, shared_ref, smt);
    EXPECT_EQ(shared_ref.fusedSteps, 0u);
    EXPECT_EQ(shared_ref.predicts, 2 * stream.branches());
    EXPECT_EQ(shared_ref.updates, 2 * stream.branches());
}

/**
 * Per-lane metric sinks match what an oracle run publishes; for the EV8
 * lane that includes the physical arrays' storage.* access counters
 * and wordline gauges.
 */
TEST(FusedKernel, PerLaneMetricsMatchPerCellMetrics)
{
    const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kTinyScale);
    const BlockStream stream = decodeBlockStream(trace);
    SimConfig config = SimConfig::ev8();

    const std::vector<LaneSpec> specs{
        fromSpec("2bcgskew:12:0:13:14:15"), fromSpec("gshare:12:12"),
        ev8Lane("ev8", WordlineMode::Ev8, true)};
    std::vector<PredictorPtr> preds;
    std::vector<std::unique_ptr<MetricRegistry>> regs;
    std::vector<FusedLane> lanes;
    for (const LaneSpec &spec : specs) {
        preds.push_back(spec.make());
        regs.push_back(std::make_unique<MetricRegistry>());
        lanes.push_back({preds.back().get(), regs.back().get(), nullptr});
    }
    simulateStreamFused(stream, lanes, config);

    // Predictor-internal metrics, published as the cell executor does.
    for (size_t i = 0; i < lanes.size(); ++i) {
        auto ref_pred = specs[i].make();
        MetricRegistry ref_reg;
        SimConfig ref_config = oracle(config);
        ref_config.metrics = &ref_reg;
        simulateStream(stream, *ref_pred, ref_config);
        preds[i]->publishMetrics(*regs[i], "pred." + preds[i]->name());
        ref_pred->publishMetrics(ref_reg, "pred." + ref_pred->name());

        std::ostringstream fused_json, ref_json;
        writeRegistryJson(fused_json, *regs[i]);
        writeRegistryJson(ref_json, ref_reg);
        EXPECT_EQ(fused_json.str(), ref_json.str()) << "lane " << i;
    }
    std::ostringstream ev8_json;
    writeRegistryJson(ev8_json, *regs.back());
    EXPECT_NE(ev8_json.str().find(".storage.g1.hyst_writes"),
              std::string::npos);
    EXPECT_NE(ev8_json.str().find(".storage.meta.wordline_max_reads"),
              std::string::npos);
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
 * @p withEvents, an event sink too. Both reach the same lane steppers
 * (and the SIMD backends); events only add emission.
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
    for (const LaneSpec &spec : laneSpecs()) {
        GridRow row;
        row.factory = spec.make;
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
 * "avx2" joins the sweep when the build and CPU allow it. Both legs,
 * events off and on, run the group steppers, hence the vector
 * backends; the events-on leg also checks the emitted stream.
 */
TEST(FusedEngine, SimdBackendLaneCapJobsDoNotChangeAnyByte)
{
    std::vector<const char *> backends{"0"};
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
