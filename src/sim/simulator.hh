/**
 * @file
 * Trace-driven branch-prediction simulation, the paper's methodology
 * (Section 8.1.1): immediate update, misp/KI metric, tables initialized
 * weakly not-taken. The paper validated that immediate update differs
 * insignificantly from full-pipeline commit-time update for the
 * predictors studied, which is what makes this three-orders-of-magnitude
 * faster methodology sound.
 *
 * The simulator owns the information-vector machinery of Section 5: it
 * reconstructs fetch blocks, maintains conventional ghist, lghist (with
 * or without the path bit), the N-fetch-blocks-old delayed view, the
 * last-three-blocks path registers, and the bank-number recurrence --
 * then hands each predictor a BranchSnapshot with everything filled in.
 */

#ifndef EV8_SIM_SIMULATOR_HH
#define EV8_SIM_SIMULATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "predictors/predictor.hh"
#include "trace/trace.hh"

namespace ev8
{

class BlockStream;    // sim/block_stream.hh
class MetricRegistry; // obs/metrics.hh
class MispredictSink; // obs/event_trace.hh
struct SamplePlan;    // sim/phase/sample_plan.hh

/** Which history register feeds hist.indexHist (Fig. 7's axis). */
enum class HistoryMode
{
    Ghist,        //!< conventional per-branch global history
    LghistNoPath, //!< one bit per fetch block, outcome only
    LghistPath,   //!< one bit per fetch block, outcome XOR pc bit 4
};

/** Simulation configuration: the information-vector variant. */
struct SimConfig
{
    HistoryMode history = HistoryMode::Ghist;

    /**
     * How many fetch blocks old the index history is. 0 models an
     * ideal up-to-date register; 3 models the EV8 pipeline (Section
     * 5.1). Applies to the lghist modes; conventional ghist in the
     * paper is always up to date.
     */
    unsigned historyAge = 0;

    /** Drive the bank-number recurrence and fill BranchSnapshot::bank. */
    bool assignBanks = false;

    /**
     * Optional observability hooks. All default to detached; the
     * simulation loop only pays for them when they are set.
     */
    MetricRegistry *metrics = nullptr; //!< end-of-run counter dump
    MispredictSink *events = nullptr;  //!< sampled mispredict JSONL

    /**
     * Run the oracle -- the readable one-lane walk through the virtual
     * predictor interface -- instead of the production walk. The two
     * must produce identical results; this flag (or the
     * EV8_GENERIC_KERNEL environment variable) exists so tests and CI
     * can prove it byte-for-byte.
     */
    bool forceGenericKernel = false;

    /** Preset: conventional global history ("ghist" rows of Fig. 7). */
    static SimConfig
    ghist()
    {
        return SimConfig{HistoryMode::Ghist, 0, false};
    }

    /** Preset: the full EV8 information vector (3-old lghist + path). */
    static SimConfig
    ev8()
    {
        return SimConfig{HistoryMode::LghistPath, 3, true};
    }
};

/**
 * Per-cell summary of a sampled (stratified) run. Inactive (all zeros)
 * for exact runs, so exact-mode artifacts are unchanged by presence of
 * the sampling layer.
 */
struct SampledCellInfo
{
    bool active = false;
    uint32_t phases = 0;            //!< phases in the trace's map
    uint64_t windowsTotal = 0;      //!< windows in the trace's map
    uint64_t windowsSimulated = 0;  //!< measured windows run
    uint64_t branchesSimulated = 0; //!< measured branches run
    uint64_t warmupBranches = 0;    //!< warmup budget per window
    double ci95MispKI = 0.0;        //!< stratified 95% CI half-width

    bool operator==(const SampledCellInfo &) const = default;
};

/** Result of one (trace, predictor, config) simulation. */
struct SimResult
{
    PredictionStats stats;       //!< prediction accuracy tallies
    uint64_t fetchBlocks = 0;    //!< fetch blocks reconstructed
    uint64_t lghistBits = 0;     //!< history bits inserted (Table 3)
    uint64_t condBranches = 0;   //!< conditional branches simulated

    /**
     * Sampled-mode summary. When active, `stats` carries the
     * whole-trace extrapolation (lookups = the full branch total,
     * mispredictions = the stratified estimate) while fetchBlocks /
     * lghistBits / condBranches / branchesPerBlock tally only the
     * measured windows.
     */
    SampledCellInfo sampled;

    /** Fetch blocks holding exactly k conditional branches (k = 0..8). */
    std::array<uint64_t, 9> branchesPerBlock{};

    /** Table 3: average branches summarized per lghist bit. */
    double
    lghistRatio() const
    {
        return lghistBits == 0
            ? 0.0
            : static_cast<double>(condBranches)
                  / static_cast<double>(lghistBits);
    }
};

/**
 * Runs @p predictor over @p trace under @p config. The predictor is NOT
 * reset first (callers decide whether warm state is wanted; the bench
 * harness always uses a fresh instance per run). Decodes the trace's
 * fetch blocks on the fly; grid runners that revisit the same trace
 * should decode once and call simulateStream() instead.
 */
SimResult simulateTrace(const Trace &trace,
                        ConditionalBranchPredictor &predictor,
                        const SimConfig &config);

/** Most lanes one fused kernel walk will drive (SoA array bound). */
constexpr size_t kMaxFusedLanes = 64;

/**
 * One configuration lane of a fused multi-configuration run. The
 * shared walk state (histories, path registers, bank recurrence) comes
 * from the SimConfig passed to simulateStreamFused(); each lane brings
 * its own predictor and its own observability sinks.
 */
struct FusedLane
{
    ConditionalBranchPredictor *predictor = nullptr;
    MetricRegistry *metrics = nullptr; //!< per-lane sim.* counter dump
    MispredictSink *events = nullptr;  //!< per-lane mispredict events
};

/**
 * Runs every lane predictor over @p stream in ONE pass: shared block
 * decode, branch iteration and history machinery, per-lane predictor
 * work. All lanes observe the history configuration of @p config
 * (whose metrics/events members are ignored -- sinks are per lane).
 *
 * Without @p plan the walk is exact: one window over the whole stream.
 * With one, it walks only the plan's windows (each primed by its
 * warmup prefix, stats gated off during warmup) and extrapolates
 * whole-trace stats per phase, with a stratified 95% confidence
 * interval in SimResult::sampled.
 *
 * Lanes are partitioned by concrete predictor type so each partition
 * runs the walk devirtualized on that type (a mixed-type lane set
 * costs one stream walk per distinct type); types without a partition
 * share one walk through the virtual interface. With
 * SimConfig::forceGenericKernel or EV8_GENERIC_KERNEL=1 every lane
 * instead takes the oracle, a one-lane virtual walk that is the
 * readable reference. Every lane's SimResult, published metrics and
 * emitted events are bit-identical on both, and independent of which
 * lanes share the call.
 */
std::vector<SimResult> simulateStreamFused(
    const BlockStream &stream, const std::vector<FusedLane> &lanes,
    const SimConfig &config, const SamplePlan *plan = nullptr);

/**
 * One-lane simulateStreamFused(), the lane's sinks taken from
 * @p config: runs @p predictor over a pre-decoded block stream, exact
 * or (with @p plan) sampled. Identical to simulateTrace() over the
 * trace the stream was decoded from.
 */
SimResult simulateStream(const BlockStream &stream,
                         ConditionalBranchPredictor &predictor,
                         const SimConfig &config,
                         const SamplePlan *plan = nullptr);

} // namespace ev8

#endif // EV8_SIM_SIMULATOR_HH
