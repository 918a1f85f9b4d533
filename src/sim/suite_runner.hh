/**
 * @file
 * Runs predictors over the whole synthetic SPECINT95 suite. A thin
 * front over the parallel ExperimentEngine: stream synthesis goes
 * through the shared TraceCache (built once per profile, optionally
 * persisted on disk) and every (benchmark, configuration) simulation is
 * a pool job, with results returned in suite order and observability
 * sinks merged deterministically -- a run's artifacts are byte-identical
 * whatever the worker count.
 */

#ifndef EV8_SIM_SUITE_RUNNER_HH
#define EV8_SIM_SUITE_RUNNER_HH

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "predictors/predictor.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"
#include "sim/trace_cache.hh"
#include "workloads/suite.hh"

namespace ev8
{

class ExperimentEngine; // sim/experiment.hh

/** One benchmark's outcome for one configuration. */
struct BenchResult
{
    std::string bench;
    SimResult sim;

    /**
     * The cell exhausted its retries and produced no result: sim is
     * empty, the cell appears in the grid's CellFailure list, and
     * aggregates (averageMispKI) skip it.
     */
    bool failed = false;
};

/** Builds a fresh predictor instance (cold tables) for each benchmark. */
using PredictorFactory = std::function<PredictorPtr()>;

/**
 * One row of an experiment grid: a predictor configuration evaluated on
 * every suite benchmark. The config's metrics/events pointers name the
 * *shared* sinks the engine merges per-job results into.
 */
struct GridRow
{
    PredictorFactory factory;
    SimConfig config;

    /**
     * Human-readable row name ("2Bc-gskew 512Kb L=16", ...); feeds
     * CellFailure reports and the checkpoint grid hash. Optional --
     * anonymous rows just report by index.
     */
    std::string label;
};

/**
 * One grid cell that exhausted its retries. The grid keeps running;
 * the failure is reported here (and in the exported artifacts) instead
 * of poisoning the batch.
 */
struct CellFailure
{
    size_t row = 0;       //!< grid row index within the batch
    std::string rowLabel; //!< GridRow::label ("" when unlabelled)
    std::string bench;    //!< benchmark name of the failed cell
    unsigned attempts = 0; //!< attempts made (== retry budget)
    std::string error;    //!< what() of the final attempt's exception

    /**
     * Wall time of each attempt, in order -- shows the time lost to
     * retries, not just their count. Exported as the JSON failures
     * "attempt_ns" array (timing-dependent, masked in byte-identity
     * comparisons alongside the telemetry block).
     */
    std::vector<uint64_t> attemptNs;
};

/**
 * Everything one grid batch produced: per-row suite-ordered results
 * (failed cells carry BenchResult::failed and empty sims) plus the
 * structured failures, in submission order.
 */
struct GridOutcome
{
    std::vector<std::vector<BenchResult>> results;
    std::vector<CellFailure> failures;

    /** Cells restored from a checkpoint journal instead of re-run. */
    uint64_t resumedCells = 0;

    /** Every cell completed? */
    bool ok() const { return failures.empty(); }
};

class SuiteRunner
{
  public:
    /**
     * @param base_branches per-benchmark dynamic conditional-branch
     *        budget before the Table 2 weights are applied; defaults to
     *        branchesPerBenchmark() (EV8_BRANCHES_PER_BENCH env var).
     * @param jobs worker threads for suite simulations; 0 picks
     *        ExperimentEngine::defaultJobs() (EV8_JOBS env var, else
     *        hardware concurrency). Results do not depend on the value.
     */
    explicit SuiteRunner(uint64_t base_branches = branchesPerBenchmark(),
                         unsigned jobs = 0);
    ~SuiteRunner();

    SuiteRunner(const SuiteRunner &) = delete;
    SuiteRunner &operator=(const SuiteRunner &) = delete;

    size_t size() const { return specint95Suite().size(); }
    const std::string &name(size_t i) const;

    /**
     * The i-th benchmark's pre-decoded fetch-block stream -- what the
     * experiment engine simulates and what the table binaries measure.
     * Synthesized (or loaded from the on-disk cache) on first use.
     * Thread-safe: concurrent callers for the same benchmark block
     * until the single build finishes.
     */
    const BlockStream &blockStream(size_t i);

    /**
     * Builds (or loads) every benchmark's stream on the engine's pool,
     * one benchmark per task, as a grid's first cells would. Binaries
     * that walk the streams themselves call it before their serial
     * loop over blockStream().
     */
    void prepareStreams();

    /**
     * Simulates a fresh predictor from @p factory on every benchmark
     * under @p config. One cold predictor per benchmark, matching the
     * paper's per-trace methodology. Benchmarks run in parallel on the
     * engine; results are index-stable (suite order) and metric/event
     * sinks referenced by @p config receive exactly what a serial run
     * would have produced. Throws std::runtime_error if any cell
     * exhausts its retries (callers wanting partial results use
     * runGrid() and inspect GridOutcome::failures).
     */
    std::vector<BenchResult> run(const PredictorFactory &factory,
                                 const SimConfig &config);

    /**
     * Runs a whole experiment grid -- every @p rows entry over every
     * benchmark -- as one parallel batch. Returns one result vector per
     * row, each in suite order, plus the structured failures of cells
     * that exhausted their retries (see ExperimentEngine::runGrid).
     * Failures also accumulate into failures() across batches.
     */
    GridOutcome runGrid(const std::vector<GridRow> &rows);

    /**
     * Every CellFailure any runGrid() batch of this runner recorded, in
     * submission order across batches. The bench harness reads this at
     * finish() time to export the failures section and pick the
     * partial-results exit code.
     */
    const std::vector<CellFailure> &failures() const { return failures_; }

    /**
     * One sampled cell's identity plus its coverage/CI summary, in
     * submission order across batches -- the artifact's
     * "sampling.cells" rows. Empty in exact mode.
     */
    struct SampledCell
    {
        std::string rowLabel;
        std::string bench;
        SampledCellInfo info;
    };

    const std::vector<SampledCell> &
    sampledCells() const
    {
        return sampledCells_;
    }

    /** Cells restored from checkpoint journals, across batches. */
    uint64_t resumedCells() const { return resumedCells_; }

    /** Whether some runGrid() call ran under an active sample spec:
     *  the one condition for an artifact's "sampling" block. */
    bool ranSampledGrid() const { return ranSampledGrid_; }

    /** The shared simulation engine (created on first use). */
    ExperimentEngine &engine();

    /**
     * The engine if a run already created it, else null. Lets the bench
     * harness export the engine's scheduling counters at finish() time
     * without spinning up a thread pool for a binary that never
     * simulated anything.
     */
    ExperimentEngine *engineIfCreated() { return engine_.get(); }

    /** The trace cache backing blockStream(). */
    TraceCache &traceCache() { return cache_; }

    uint64_t baseBranches() const { return baseBranches_; }

    /**
     * Switches subsequent grids between exact and sampled execution.
     * An active spec makes every cell run only its benchmark's sample
     * plan windows (phase maps come from the trace cache's sidecar
     * layer; plans are built once per benchmark). The spec's budget is
     * the *suite-relative* measured-branch target: each benchmark's
     * share is scaled by its Table 2 weight exactly like the branch
     * budget itself, so `--sample-budget N` is comparable to
     * `--branches N`. Call before the first run; switching between
     * batches is allowed (plans cache per spec-independent key).
     */
    void setSampleSpec(const SampleSpec &spec) { sampleSpec_ = spec; }

    const SampleSpec &sampleSpec() const { return sampleSpec_; }

    /**
     * The i-th benchmark's stratified sample plan, or null when
     * sampling is off. Built (and its phase map loaded or computed)
     * on first use; thread-safe like blockStream().
     */
    const SamplePlan *samplePlan(size_t i);

    /**
     * Arithmetic mean of misp/KI over a result set, skipping failed
     * cells. NaN when every cell failed (exporters render that as
     * JSON null / CSV "--"); 0.0 on an empty set.
     */
    static double averageMispKI(const std::vector<BenchResult> &results);

    /**
     * The best-history-length rule (Section 8.2) over suite means from
     * averageMispKI(): the index of the lowest finite mean. A NaN mean
     * (every cell failed) never wins; if every mean is NaN, 0. Throws
     * std::invalid_argument on an empty set.
     */
    static size_t bestMeanIndex(std::span<const double> means);

  private:
    struct PlanEntry
    {
        std::once_flag once;
        SamplePlan plan;
    };

    uint64_t baseBranches_;
    unsigned jobs_; //!< requested width; 0 = engine default
    TraceCache cache_;
    std::once_flag engineOnce_;
    std::unique_ptr<ExperimentEngine> engine_;
    std::vector<CellFailure> failures_; //!< cumulative across batches
    std::vector<SampledCell> sampledCells_; //!< cumulative, in order
    bool ranSampledGrid_ = false;
    uint64_t resumedCells_ = 0;
    SampleSpec sampleSpec_;
    std::mutex planMutex_; //!< guards planEntries_ map shape only
    std::vector<std::unique_ptr<PlanEntry>> planEntries_;
};

} // namespace ev8

#endif // EV8_SIM_SUITE_RUNNER_HH
