/**
 * @file
 * google-benchmark microbenchmarks: raw simulation throughput
 * (predictions per second) of every major scheme, and the cost of the
 * EV8's physical banked model versus the logical one. These are
 * simulator-engineering numbers, not paper results; they bound how far
 * EV8_BRANCHES_PER_BENCH can be raised.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/simd.hh"
#include "core/ev8_predictor.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "sim/block_stream.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "workloads/suite.hh"

namespace ev8
{
namespace
{

/** One shared medium trace for all throughput runs. */
const Trace &
benchTrace()
{
    static const Trace trace = generateTrace(
        findBenchmark("gcc").profile, 200000);
    return trace;
}

/** The same trace pre-decoded, as the experiment engine consumes it. */
const BlockStream &
benchStream()
{
    static const BlockStream stream = decodeBlockStream(benchTrace());
    return stream;
}

/**
 * Shared registration defaults: millisecond units plus min/max
 * aggregates. With --repeat=<N> (default 3) every benchmark runs N
 * repetitions, and the _min aggregate is the number to trust on a
 * noisy machine -- the fastest repetition is the one with the least
 * interference.
 */
void
applyDefaults(benchmark::internal::Benchmark *b)
{
    b->Unit(benchmark::kMillisecond);
    b->ComputeStatistics("min", [](const std::vector<double> &v) {
        return *std::min_element(v.begin(), v.end());
    });
    b->ComputeStatistics("max", [](const std::vector<double> &v) {
        return *std::max_element(v.begin(), v.end());
    });
}

void
runSim(benchmark::State &state, const PredictorFactory &factory,
       const SimConfig &config)
{
    const BlockStream &stream = benchStream();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto predictor = factory();
        const SimResult r = simulateStream(stream, *predictor, config);
        branches += r.condBranches;
        benchmark::DoNotOptimize(r.stats.mispredictions());
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}

void
BM_Bimodal(benchmark::State &state)
{
    runSim(state, [] { return makePredictor("bimodal:14"); },
           SimConfig::ghist());
}
BENCHMARK(BM_Bimodal)->Apply(applyDefaults);

void
BM_Gshare2M(benchmark::State &state)
{
    runSim(state, [] { return makeGshare2M(); }, SimConfig::ghist());
}
BENCHMARK(BM_Gshare2M)->Apply(applyDefaults);

void
BM_Yags576K(benchmark::State &state)
{
    runSim(state, [] { return makeYags576K(); }, SimConfig::ghist());
}
BENCHMARK(BM_Yags576K)->Apply(applyDefaults);

void
BM_TwoBcGskew512K(benchmark::State &state)
{
    runSim(state, [] { return make2BcGskew512K(); }, SimConfig::ghist());
}
BENCHMARK(BM_TwoBcGskew512K)->Apply(applyDefaults);

void
BM_Ev8Constrained(benchmark::State &state)
{
    runSim(state, [] { return std::make_unique<Ev8Predictor>(); },
           SimConfig::ev8());
}
BENCHMARK(BM_Ev8Constrained)->Apply(applyDefaults);

void
BM_Perceptron(benchmark::State &state)
{
    runSim(state, [] { return makePredictor("perceptron:12:24"); },
           SimConfig::ghist());
}
BENCHMARK(BM_Perceptron)->Apply(applyDefaults);

/**
 * The oracle (a one-lane generic walk over split predict()/update()
 * calls) on the same scheme as
 * BM_TwoBcGskew512K: the spread between the two is what the production
 * walk buys.
 */
void
BM_TwoBcGskew512KGenericKernel(benchmark::State &state)
{
    SimConfig config = SimConfig::ghist();
    config.forceGenericKernel = true;
    runSim(state, [] { return make2BcGskew512K(); }, config);
}
BENCHMARK(BM_TwoBcGskew512KGenericKernel)->Apply(applyDefaults);

/** The fig6-style lane set: one gshare per candidate history length. */
std::vector<PredictorPtr>
sweepLanePredictors()
{
    std::vector<PredictorPtr> preds;
    for (unsigned h : {8, 12, 16, 20, 24, 28})
        preds.push_back(makePredictor("gshare:18:" + std::to_string(h)));
    return preds;
}

/** Forces one fused-stepper SIMD backend for the benchmark's scope
 *  (activeBackend() is resolved per walk, so setenv is enough). */
class ScopedSimdBackend
{
  public:
    explicit ScopedSimdBackend(const char *value)
    {
        if (const char *old = std::getenv("EV8_SIMD"))
            saved_ = old;
        else
            hadValue_ = false;
        ::setenv("EV8_SIMD", value, /*overwrite=*/1);
    }

    ~ScopedSimdBackend()
    {
        if (hadValue_)
            ::setenv("EV8_SIMD", saved_.c_str(), 1);
        else
            ::unsetenv("EV8_SIMD");
    }

  private:
    std::string saved_;
    bool hadValue_ = true;
};

/** One fused walk over @p preds; returns total branches stepped. */
uint64_t
fusedWalk(std::vector<PredictorPtr> &preds, const SimConfig &config)
{
    const BlockStream &stream = benchStream();
    std::vector<FusedLane> lanes;
    lanes.reserve(preds.size());
    for (auto &p : preds)
        lanes.push_back({p.get(), nullptr, nullptr});
    uint64_t branches = 0;
    const auto results = simulateStreamFused(stream, lanes, config);
    for (const SimResult &r : results) {
        branches += r.condBranches;
        benchmark::DoNotOptimize(r.stats.mispredictions());
    }
    return branches;
}

/**
 * A six-length gshare history sweep as one fused walk: the shape of a
 * bench_sweep_history column after grid fusion. Contrast with
 * BM_PerCellSweepGshare below -- the spread is what lane fusion buys
 * (shared block decode, branch iteration and history update across all
 * six lanes).
 */
void
BM_FusedSweepGshare(benchmark::State &state)
{
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto preds = sweepLanePredictors();
        branches += fusedWalk(preds, config);
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedSweepGshare)->Apply(applyDefaults);

/**
 * The same fused sweep with EV8_SIMD=0: the tuned scalar per-lane
 * steppers instead of the vector group stepper. The spread between
 * this and BM_FusedSweepGshare is the SIMD win on the gshare/bimodal
 * indexed path; read both as _min aggregates.
 */
void
BM_FusedSweepGshareScalarSteppers(benchmark::State &state)
{
    ScopedSimdBackend simd("0");
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto preds = sweepLanePredictors();
        branches += fusedWalk(preds, config);
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedSweepGshareScalarSteppers)->Apply(applyDefaults);

/** A fig6-style 2Bc-gskew lane set: the tabulated-policy hot path. */
std::vector<PredictorPtr>
gskewSweepLanePredictors()
{
    std::vector<PredictorPtr> preds;
    for (unsigned len : {8, 12, 16, 20, 24, 28}) {
        const unsigned h1 = std::max(2u, len * 62 / 100);
        const unsigned h2 = std::max(2u, len * 74 / 100);
        preds.push_back(makePredictor(
            "2bcgskew:15:0:" + std::to_string(h1) + ":"
            + std::to_string(h2) + ":" + std::to_string(len)));
    }
    return preds;
}

/**
 * Six 2Bc-gskew lanes as one fused walk on the default backend: the
 * shared index terms four slots at a time (AVX2), then one tabulated
 * policy step per lane.
 */
void
BM_FusedSweep2BcGskew(benchmark::State &state)
{
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto preds = gskewSweepLanePredictors();
        branches += fusedWalk(preds, config);
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedSweep2BcGskew)->Apply(applyDefaults);

/** The scalar-stepper side of the 2Bc-gskew A/B (EV8_SIMD=0). */
void
BM_FusedSweep2BcGskewScalarSteppers(benchmark::State &state)
{
    ScopedSimdBackend simd("0");
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto preds = gskewSweepLanePredictors();
        branches += fusedWalk(preds, config);
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedSweep2BcGskewScalarSteppers)->Apply(applyDefaults);

/**
 * fig10's fused 2Bc-gskew walk: the 512 Kbit and 8 Mbit lanes as one
 * two-lane group with metrics attached, as every artifact-writing run
 * steps them -- vote statistics on, counted per step key and folded
 * into the pred.* counters when the walk ends.
 */
void
BM_FusedLimits2BcGskewMetrics(benchmark::State &state)
{
    const BlockStream &stream = benchStream();
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        state.PauseTiming();
        const PredictorPtr small = make2BcGskew512K();
        const PredictorPtr large = make2BcGskew4M();
        MetricRegistry metrics[2];
        const std::vector<FusedLane> lanes = {
            {small.get(), &metrics[0], nullptr},
            {large.get(), &metrics[1], nullptr}};
        state.ResumeTiming();
        for (const SimResult &r : simulateStreamFused(stream, lanes, config)) {
            branches += r.condBranches;
            benchmark::DoNotOptimize(r.stats.mispredictions());
        }
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FusedLimits2BcGskewMetrics)->Apply(applyDefaults);

/** The same six-lane sweep as six one-lane walks (EV8_FUSED_LANES=1). */
void
BM_PerCellSweepGshare(benchmark::State &state)
{
    const BlockStream &stream = benchStream();
    const SimConfig config = SimConfig::ghist();
    uint64_t branches = 0;
    for (auto _ : state) {
        auto preds = sweepLanePredictors();
        for (auto &p : preds) {
            const SimResult r = simulateStream(stream, *p, config);
            branches += r.condBranches;
            benchmark::DoNotOptimize(r.stats.mispredictions());
        }
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PerCellSweepGshare)->Apply(applyDefaults);

/** Cost of decoding a trace into a BlockStream (paid once per cache
 *  key, then amortized across every grid row that replays it). */
void
BM_BlockStreamDecode(benchmark::State &state)
{
    const Trace &trace = benchTrace();
    uint64_t branches = 0;
    for (auto _ : state) {
        const BlockStream s = decodeBlockStream(trace);
        branches += s.branches();
        benchmark::DoNotOptimize(s.blocks());
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BlockStreamDecode)->Apply(applyDefaults);

void
BM_TraceGeneration(benchmark::State &state)
{
    const Benchmark &bench = findBenchmark("gcc");
    uint64_t branches = 0;
    for (auto _ : state) {
        const Trace t = generateTrace(bench.profile, 100000);
        branches += t.stats().dynamicCondBranches;
        benchmark::DoNotOptimize(t.size());
    }
    state.counters["branches/s"] = benchmark::Counter(
        static_cast<double>(branches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGeneration)->Apply(applyDefaults);

} // namespace
} // namespace ev8

/**
 * Custom main: accepts the harness-wide --json=<path> spelling and
 * translates it to google-benchmark's --benchmark_out pair, and
 * --repeat=<N> (default 3) to --benchmark_repetitions -- each
 * benchmark then reports mean/median/stddev plus the min/max
 * aggregates registered above; prefer _min when comparing runs.
 * Everything else passes through to the library (see --help).
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> translated;
    translated.reserve(static_cast<size_t>(argc) + 2);
    bool repetitions_set = false;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--json=", 0) == 0) {
            translated.push_back("--benchmark_out="
                                 + arg.substr(std::strlen("--json=")));
            translated.push_back("--benchmark_out_format=json");
        } else if (arg.rfind("--repeat=", 0) == 0) {
            translated.push_back("--benchmark_repetitions="
                                 + arg.substr(std::strlen("--repeat=")));
            repetitions_set = true;
        } else {
            if (arg.rfind("--benchmark_repetitions", 0) == 0)
                repetitions_set = true;
            translated.push_back(arg);
        }
    }
    if (!repetitions_set)
        translated.push_back("--benchmark_repetitions=3");
    std::vector<char *> args;
    args.reserve(translated.size());
    for (auto &arg : translated)
        args.push_back(arg.data());

    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
