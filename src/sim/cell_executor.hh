/**
 * @file
 * The cell-execution core, extracted from ExperimentEngine::runGrid so
 * batch grids and served sessions run the SAME code path.
 *
 * A "cell" is one (benchmark, predictor configuration) simulation with
 * isolated observability: a private MetricRegistry and a private
 * buffered event sink. The executor owns everything about running one
 * cell (or one fused multi-lane group) under the failure-isolation
 * contract:
 *
 *  - per-attempt fault hooks (maybeKill + the "job" point, plus the
 *    "session_drop" point for served cells);
 *  - bounded exponential-backoff retries (EV8_RETRY_MAX /
 *    EV8_RETRY_BASE_MS), discarding a torn attempt's partial state;
 *  - an exhausted budget becomes a recorded CellOutput::failed, never
 *    an escaping exception;
 *  - per-attempt timeline spans, phase totals, and progress-meter
 *    notes, exactly as the engine always emitted them.
 *
 * It also owns how cells are grouped into fused jobs (fuseGroups), so
 * a batch grid and a served session of the same grid run the same
 * lane groups, and how finished cells fold into a grid's results
 * (mergeGrid), so batch runs, checkpoint resumes and served clients
 * merge the same way. Callers differ only in scheduling and
 * bookkeeping, which they attach via the hook std::functions (journal
 * for the checkpoint, the note* accounting taps for pool telemetry).
 * The hooks are invoked from whatever thread runs the cell,
 * concurrently across cells -- they must be thread-safe (the engine's
 * are: an atomic add, a lock-free histogram, a mutex-guarded journal
 * append).
 *
 * Byte-identity contract: a CellOutput produced here depends only on
 * the request (stream bytes, predictor factory, walk config), never on
 * the caller or the thread -- which is what makes served artifacts
 * byte-identical to batch ones.
 */

#ifndef EV8_SIM_CELL_EXECUTOR_HH
#define EV8_SIM_CELL_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/metrics.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "workloads/synthetic_program.hh"

namespace ev8
{

class BlockStream; // sim/block_stream.hh
struct SamplePlan; // sim/phase/sample_plan.hh

/** Everything one cell produces in isolation. */
struct CellOutput
{
    BenchResult result;
    MetricRegistry metrics;
    std::vector<MispredictEvent> events;
    bool failed = false;    //!< exhausted its retry budget
    unsigned attempts = 0;
    std::string error;      //!< what() of the last failed attempt
    std::vector<uint64_t> attemptNs; //!< wall time of each attempt
};

/**
 * One cell, fully described, independent of how it is scheduled. The
 * stream provider is invoked on every attempt (so a transient
 * cache-read fault heals on retry, and decode work lands inside the
 * attempt's span, exactly as before the extraction).
 */
struct CellRequest
{
    /** The pre-decoded stream to simulate; called per attempt. */
    std::function<const BlockStream &()> stream;

    /** The benchmark's workload profile (name + behaviour classes). */
    const WorkloadProfile *profile = nullptr;

    PredictorFactory factory;

    /**
     * The walk configuration. Sink pointers are ignored -- isolation
     * sinks are allocated per attempt; wantEvents/wantMetrics say
     * whether the caller will merge them.
     */
    SimConfig config;
    bool wantEvents = false;
    bool wantMetrics = false;

    /**
     * Set: run only the returned stratified sample plan's windows and
     * extrapolate (sim/phase/sample_plan.hh). Resolved per attempt
     * like the stream (plan construction loads or builds the phase
     * map, and a transient sidecar fault heals on retry). The plan is
     * a property of the benchmark's stream, so every cell fused over
     * one benchmark shares one plan; unset (or returning null) is the
     * exact whole-stream walk.
     */
    std::function<const SamplePlan *()> plan;

    std::string rowLabel;   //!< grid row / session label ("" = anon)
    size_t rowIndex = 0;    //!< timeline "row" arg
    std::string key;        //!< stable fault/journal identity
    std::string label;      //!< progress / timeline display label

    /** Served cell: also consult the "session_drop" fault point. */
    bool sessionFaults = false;
};

/**
 * The row-major requests of grid @p rows over @p runner's suite: cell i
 * is row i / N, benchmark i % N. Each cell reads its stream (and, when
 * the runner samples, its plan) from @p runner, and wantEvents /
 * wantMetrics follow its row's sinks. A batch grid (empty @p session)
 * keys cells "g<batch>/r<row>/<bench>" and labels them
 * "<row label>/<bench>", or just the benchmark for anonymous rows. A
 * served session prefixes the key with "<session>/" and the label with
 * "<session>:", and consults the session_drop fault point.
 */
std::vector<CellRequest> gridCellRequests(const std::vector<GridRow> &rows,
                                          SuiteRunner &runner,
                                          uint64_t batch,
                                          const std::string &session);

/**
 * Groups @p cells (indexes into @p reqs) into the jobs runGroup takes.
 * Cells sharing a benchmark and a walk/sink configuration (history
 * mode, age, bank assignment, timing, events, metrics, kernel forcing)
 * share a group, in @p cells order, and a group holding @p laneCap
 * cells opens a fresh one; groups come back in order of their first
 * cell. With @p laneCap 1 every cell is its own group, a one-lane walk.
 */
std::vector<std::vector<size_t>>
fuseGroups(const std::vector<size_t> &cells,
           const std::vector<CellRequest> &reqs, size_t laneCap);

/**
 * Folds a grid's cell outputs (row-major: cell i is row i / @p nbench,
 * suite benchmark i % @p nbench) into its per-row results, strictly in
 * cell order, so the shared sinks get the same bytes whatever ran the
 * cells: a pool of any width, a checkpoint journal, or a served
 * session whose reply a client decoded. A failed cell becomes a
 * placeholder BenchResult (bench set, failed) plus a CellFailure and
 * feeds no sink. Every other cell merges its metrics into its row's
 * metric registry and then replays its events into the row's event
 * sink, labelled with the benchmark's pc -> behaviour-class map (built
 * once per benchmark, and only when some row has an event sink).
 */
GridOutcome mergeGrid(const std::vector<CellOutput> &outputs,
                      const std::vector<GridRow> &rows, size_t nbench);

class CellExecutor
{
  public:
    /**
     * Attempts per cell before it is declared failed: EV8_RETRY_MAX
     * (strictly parsed, [1, 100]) or 3. A set-but-invalid value is a
     * hard error (stderr + exit 2), matching EV8_JOBS.
     */
    static unsigned retryMax();

    /**
     * Backoff base in milliseconds between attempts of the same cell:
     * EV8_RETRY_BASE_MS (strictly parsed, [0, 10000]) or 10. Attempt k
     * sleeps base * 2^(k-1) ms, capped at 1000 ms; 0 disables sleeping
     * (tests). A set-but-invalid value is a hard error (exit 2).
     */
    static unsigned retryBaseMs();

    /** Snapshots the retry knobs once (one env read per batch/session). */
    CellExecutor();

    /// @name Accounting hooks, all optional. Called from the executing
    /// thread, concurrently across cells: must be thread-safe.
    /// @{

    /** A cell completed successfully (checkpoint journal tap). */
    std::function<void(size_t index, const CellOutput &out)> journal;

    /** Wall time one attempt (or fused walk) kept a worker busy. */
    std::function<void(uint64_t ns)> noteBusyNs;

    /** A cell completed; its (possibly amortized) duration in ms. */
    std::function<void(double ms)> noteCellMs;

    /** A failed attempt is about to be retried. */
    std::function<void()> noteRetried;

    /// @}

    /**
     * One cell under the failure-isolation contract: retry with
     * backoff, journal on success, and convert an exhausted budget into
     * out.failed instead of an escaping exception. @p index indexes
     * into @p reqs / @p outputs.
     */
    void runGuarded(size_t index, const std::vector<CellRequest> &reqs,
                    std::vector<CellOutput> &outputs) const;

    /**
     * One scheduled group: a single cell runs guarded; a fused group
     * tries the shared walk once and, if anything in it throws, falls
     * back to guarded per-cell execution. @p cells indexes into
     * @p reqs / @p outputs; all group members must share a benchmark
     * and walk configuration (fuseGroups guarantees it).
     */
    void runGroup(const std::vector<size_t> &cells,
                  const std::vector<CellRequest> &reqs,
                  std::vector<CellOutput> &outputs) const;

  private:
    /**
     * The bare body of one group (a single cell is a one-lane group):
     * build the predictors, walk the stream once with isolated per-lane
     * sinks, publish predictor metrics, buffer events. Throws on
     * simulation failure; the outputs may be torn then (callers
     * discard).
     */
    void runLanes(const std::vector<size_t> &cells,
                  const std::vector<CellRequest> &reqs,
                  std::vector<CellOutput> &outputs) const;

    void backoff(unsigned attempt) const;

    void recordCellSpan(const CellRequest &req, unsigned attempt,
                        size_t lanes, bool attempt_failed,
                        uint64_t start_ns, uint64_t dur_ns) const;

    unsigned retryMax_;
    unsigned retryBaseMs_;
};

} // namespace ev8

#endif // EV8_SIM_CELL_EXECUTOR_HH
