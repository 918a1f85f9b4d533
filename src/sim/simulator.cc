#include "sim/simulator.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <type_traits>

#include "common/env.hh"
#include "core/ev8_predictor.hh"
#include "frontend/bank_scheduler.hh"
#include "obs/metrics.hh"
#include "predictors/gshare.hh"
#include "predictors/twobcgskew.hh"
#include "sim/block_stream.hh"
#include "sim/kernel.hh"
#include "sim/phase/sample_plan.hh"

namespace ev8
{

namespace
{

/** End-of-run dump of the simulator-level tallies into the registry. */
void
publishSimMetrics(MetricRegistry &registry, const SimResult &result,
                  const SimConfig &config, const BankScheduler &banks)
{
    registry.counter("sim.fetch_blocks").inc(result.fetchBlocks);
    registry.counter("sim.cond_branches").inc(result.condBranches);
    registry.counter("sim.mispredicts")
        .inc(result.stats.mispredictions());
    registry.counter("lghist.bits_inserted").inc(result.lghistBits);

    auto &hist = registry.histogram(
        "sim.branches_per_block", {0, 1, 2, 3, 4, 5, 6, 7, 8});
    for (unsigned k = 0; k < result.branchesPerBlock.size(); ++k)
        hist.observe(k, result.branchesPerBlock[k]);

    if (config.assignBanks)
        banks.publishMetrics(registry, "frontend.banks");
}

/**
 * Turns the measured-window tallies of a sampled walk into the
 * whole-trace estimate (stratified by phase).
 *
 * Each phase's misprediction *rate* (mispredictions per instruction)
 * is pooled over its measured windows and scaled by the phase's
 * whole-trace instruction total; a phase the plan could not afford a
 * window for falls back to the overall measured rate. The 95%
 * confidence half-width follows the standard stratified estimator:
 * per-phase sample variance of the window rates, weighted by the
 * squared phase instruction total over the window count. Everything
 * iterates in deterministic (phase, window) order so the extrapolated
 * artifact bytes are stable across --jobs and lane packing.
 */
void
finalizeSampledResult(SimResult &result, const SamplePlan &plan,
                      const std::vector<detail::SampledWindowTally>
                          &tallies)
{
    struct PhaseAcc
    {
        uint64_t misp = 0;
        uint64_t instrs = 0;
        std::vector<double> rates; //!< per-window misp per instr
    };
    std::vector<PhaseAcc> acc(plan.phases);
    uint64_t misp_measured = 0;
    uint64_t instrs_measured = 0;
    uint64_t branches_measured = 0;
    for (const detail::SampledWindowTally &t : tallies) {
        PhaseAcc &a = acc[t.phaseId];
        a.misp += t.mispredictions;
        a.instrs += t.instrs;
        a.rates.push_back(t.instrs == 0
                              ? 0.0
                              : static_cast<double>(t.mispredictions)
                                    / static_cast<double>(t.instrs));
        misp_measured += t.mispredictions;
        instrs_measured += t.instrs;
        branches_measured += t.branches;
    }
    const double overall_rate = instrs_measured == 0
        ? 0.0
        : static_cast<double>(misp_measured)
            / static_cast<double>(instrs_measured);

    double est_misp = 0.0;
    double variance = 0.0;
    for (uint32_t p = 0; p < plan.phases; ++p) {
        const PhaseAcc &a = acc[p];
        const double phase_instrs =
            static_cast<double>(plan.totals[p].instrs);
        const double rate = a.instrs == 0
            ? overall_rate
            : static_cast<double>(a.misp)
                / static_cast<double>(a.instrs);
        est_misp += rate * phase_instrs;
        const size_t n = a.rates.size();
        if (n >= 2) {
            double mean = 0.0;
            for (double r : a.rates)
                mean += r;
            mean /= static_cast<double>(n);
            double s2 = 0.0;
            for (double r : a.rates)
                s2 += (r - mean) * (r - mean);
            s2 /= static_cast<double>(n - 1);
            variance += phase_instrs * phase_instrs * s2
                / static_cast<double>(n);
        }
    }

    result.stats = PredictionStats{};
    result.stats.tally(
        plan.totalBranches,
        static_cast<uint64_t>(std::llround(std::max(est_misp, 0.0))));
    result.stats.setInstructions(plan.totalInstructions);

    result.sampled.active = true;
    result.sampled.phases = plan.phases;
    result.sampled.windowsTotal = plan.windowsTotal;
    result.sampled.windowsSimulated = tallies.size();
    result.sampled.branchesSimulated = branches_measured;
    result.sampled.warmupBranches = plan.warmupBranches;
    result.sampled.ci95MispKI = plan.totalInstructions == 0
        ? 0.0
        : 1.96 * std::sqrt(variance)
            / static_cast<double>(plan.totalInstructions) * 1000.0;
}

} // namespace

bool
detail::oracleForced(const SimConfig &config)
{
    return config.forceGenericKernel
        || strictEnvBool("EV8_GENERIC_KERNEL", false);
}

std::vector<SimResult>
simulateStreamFused(const BlockStream &stream,
                    const std::vector<FusedLane> &lanes,
                    const SimConfig &config, const SamplePlan *plan)
{
    const size_t n = lanes.size();
    std::vector<SimResult> results(n);
    std::vector<std::vector<detail::SampledWindowTally>> tallies(n);

    // An exact run is one window over the whole stream, no warmup.
    SampledWindow whole;
    whole.blockEnd = stream.blocks();
    const std::vector<SampledWindow> exact{whole};
    const std::vector<SampledWindow> &windows =
        plan ? plan->windows : exact;

    // Internal predictor tallies only matter when they will be
    // published; leave them off otherwise so uninstrumented runs pay
    // nothing on the per-branch path.
    for (size_t i = 0; i < n; ++i) {
        lanes[i].predictor->enableStats(lanes[i].metrics != nullptr);
        if (!plan)
            results[i].stats.setInstructions(stream.instructions());
    }
    auto lane_state = [&]<class P>(std::type_identity<P>, size_t i) {
        detail::FusedLaneState<P> s;
        s.predictor = static_cast<P *>(lanes[i].predictor);
        s.result = &results[i];
        s.events = lanes[i].events;
        s.statsWanted = lanes[i].metrics != nullptr;
        s.tallies = plan ? &tallies[i] : nullptr;
        return s;
    };

    // Bank assignment is a pure function of the block-address sequence,
    // so every walk reproduces the same scheduler state; any walk's copy
    // serves all lanes' metrics.
    BankScheduler metrics_sched;
    auto run_walk = [&]<class P>(detail::FusedLaneState<P> *state,
                                 size_t cnt) {
        BankScheduler sched;
        detail::runWindows(
            state, cnt, config, sched, windows,
            [&](auto *ls, detail::KernelWalkState &walk, size_t begin,
                size_t end, uint64_t seq) {
                detail::runFusedStreamKernelRange(
                    stream, ls, cnt, config, sched, begin, end,
                    stream.branchBegin(begin), walk, seq);
            });
        metrics_sched = sched;
    };

    if (detail::oracleForced(config)) {
        // The oracle: every lane walks alone through the generic walk,
        // behind the split-call adapter.
        for (size_t i = 0; i < n; ++i) {
            detail::SplitCallPredictor split(*lanes[i].predictor);
            auto lane = lane_state(
                std::type_identity<ConditionalBranchPredictor>{}, i);
            lane.predictor = &split;
            run_walk(&lane, 1);
        }
    } else {
        // Production: lanes partitioned into walk buckets, so each
        // bucket's stepper is a direct call; claimed[] keeps a lane in
        // exactly one bucket (a subclass joins its base's bucket, so
        // bimodal lanes ride gshare's group stepper), and the
        // ConditionalBranchPredictor bucket takes whatever no other
        // bucket claims.
        std::vector<char> claimed(n, 0);
        auto run_bucket = [&]<class P>(std::type_identity<P>) {
            std::vector<size_t> members;
            for (size_t i = 0; i < n; ++i) {
                if (!claimed[i]
                    && (std::is_same_v<P, ConditionalBranchPredictor>
                        || dynamic_cast<P *>(lanes[i].predictor))) {
                    members.push_back(i);
                    claimed[i] = 1;
                }
            }
            // Chunk oversized partitions: each chunk is one extra
            // stream walk, still never more walks than lanes.
            for (size_t beg = 0; beg < members.size();
                 beg += kMaxFusedLanes) {
                const size_t cnt =
                    std::min(kMaxFusedLanes, members.size() - beg);
                std::array<detail::FusedLaneState<P>, kMaxFusedLanes>
                    state;
                for (size_t k = 0; k < cnt; ++k)
                    state[k] = lane_state(std::type_identity<P>{},
                                          members[beg + k]);
                run_walk(state.data(), cnt);
            }
        };
        run_bucket(std::type_identity<TwoBcGskewPredictor>{});
        run_bucket(std::type_identity<GsharePredictor>{});
        run_bucket(std::type_identity<Ev8Predictor>{});
        run_bucket(std::type_identity<ConditionalBranchPredictor>{});
    }

    for (size_t i = 0; i < n; ++i) {
        if (plan)
            finalizeSampledResult(results[i], *plan, tallies[i]);
        if (lanes[i].metrics) {
            publishSimMetrics(*lanes[i].metrics, results[i], config,
                              metrics_sched);
        }
    }
    return results;
}

SimResult
simulateStream(const BlockStream &stream,
               ConditionalBranchPredictor &predictor,
               const SimConfig &config, const SamplePlan *plan)
{
    return simulateStreamFused(
        stream, {{&predictor, config.metrics, config.events}}, config,
        plan)[0];
}

SimResult
simulateTrace(const Trace &trace, ConditionalBranchPredictor &predictor,
              const SimConfig &config)
{
    return simulateStream(decodeBlockStream(trace), predictor, config);
}

} // namespace ev8
