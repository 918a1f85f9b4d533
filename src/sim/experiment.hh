/**
 * @file
 * The parallel experiment engine.
 *
 * Every figure and table of the paper is a grid of (benchmark x
 * configuration) simulations, and the cells are independent: each one
 * simulates a cold predictor over an immutable cached trace. The engine
 * executes those cells on a fixed pool of worker threads with
 * work-stealing scheduling, while keeping every observable output
 * *deterministic*:
 *
 *  - results are index-stable: cell i writes slot i, so a grid's result
 *    rows come back in submission order regardless of which worker
 *    finished first;
 *  - each job gets a private MetricRegistry and a BufferedEventSink;
 *    after the batch, the engine folds them into the caller's shared
 *    sinks in submission order -- counters add, gauges last-write-win
 *    in the same order a serial loop would have written them, and
 *    buffered misprediction events replay through the shared sampling
 *    sink so the emitted JSONL is byte-identical to a serial run;
 *  - each job owns its benchmark's BranchClassMap (the pc -> behaviour
 *    class labels), so no classifier ever outlives or escapes its job.
 *
 * The pool is the calling thread plus (jobs - 1) workers; jobs = 1
 * degenerates to a plain serial loop with no threads, and any larger
 * width produces the same bytes.
 *
 * Fused execution: grid cells that share a benchmark and a history-walk
 * configuration (history mode, age, bank assignment, timing, sink
 * presence, kernel forcing) are grouped into one fused job that walks
 * the benchmark's BlockStream once for all of them via
 * simulateStreamFused(), instead of once per cell. Grouping follows
 * submission order, per-cell outputs stay private until the same
 * deterministic merge, and artifacts are byte-identical for any lane
 * width and any worker count. EV8_FUSED_LANES caps lanes per fused job
 * (EV8_FUSED_LANES=1: one one-lane walk per cell).
 *
 * Fault tolerance: a failing cell no longer poisons its batch. Each
 * cell runs under a retry loop (EV8_RETRY_MAX attempts with bounded
 * exponential backoff, EV8_RETRY_BASE_MS); a fused job whose walk
 * throws falls back to per-cell execution so one bad lane cannot take
 * its lane-mates down. A cell that exhausts its retries yields a
 * structured CellFailure in the returned GridOutcome while every other
 * cell completes normally. With EV8_CHECKPOINT_DIR set, completed cells
 * are journaled (see sim/checkpoint.hh) and a re-run of the same grid
 * resumes, skipping finished cells; restored and fresh outputs merge in
 * the same submission order, so resumed artifacts are byte-identical to
 * an uninterrupted run's. EV8_FAULT_SPEC (see sim/fault_injection.hh)
 * deterministically injects faults at the cell, cache and checkpoint
 * seams to test all of the above.
 *
 * The per-cell execution core (isolated sinks, retry/backoff, fault
 * hooks, spans) and the fused grouping live in sim/cell_executor.hh;
 * the engine contributes scheduling (the pool), checkpoint restore, and
 * the deterministic merge. Served sessions (serve/server.hh) group and
 * run their cells through the same fuseGroups() and CellExecutor, over
 * the same cached BlockStreams, which is what keeps served artifacts
 * byte-identical to batch ones.
 */

#ifndef EV8_SIM_EXPERIMENT_HH
#define EV8_SIM_EXPERIMENT_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

class ExperimentEngine
{
  public:
    /**
     * The pool width used when a caller passes jobs = 0: the EV8_JOBS
     * environment variable when set, otherwise
     * std::thread::hardware_concurrency(). A set-but-invalid EV8_JOBS
     * (zero, negative, garbage, out of range) is a hard error: the
     * message is printed to stderr and the process exits with status 2
     * rather than silently falling back.
     */
    static unsigned defaultJobs();

    /**
     * Strictly parses a worker count: decimal digits only, value in
     * [1, 4096]. Throws std::invalid_argument with a human-readable
     * message on anything else (empty, signs, garbage, zero,
     * overflow). Shared by --jobs, EV8_JOBS and EV8_FUSED_LANES.
     */
    static unsigned parseJobs(const std::string &text);

    /**
     * Max lanes per fused job: EV8_FUSED_LANES (strictly parsed,
     * clamped to kMaxFusedLanes) or kMaxFusedLanes. Any value yields
     * identical artifacts; smaller caps trade walk sharing for more
     * parallelism across jobs.
     */
    static size_t fusedLaneCap();

    /**
     * Attempts per grid cell before it is declared failed: the
     * EV8_RETRY_MAX environment variable (strictly parsed, [1, 100]) or
     * 3. A set-but-invalid value is a hard error (stderr + exit 2),
     * matching EV8_JOBS.
     */
    static unsigned retryMax();

    /**
     * Backoff base in milliseconds between attempts of the same cell:
     * EV8_RETRY_BASE_MS (strictly parsed, [0, 10000]) or 10. Attempt k
     * sleeps base * 2^(k-1) ms, capped at 1000 ms; 0 disables sleeping
     * (tests). A set-but-invalid value is a hard error (stderr +
     * exit 2).
     */
    static unsigned retryBaseMs();

    /** @param jobs worker count; 0 resolves to defaultJobs(). */
    explicit ExperimentEngine(unsigned jobs = 0);
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Runs fn(0) .. fn(n-1) across the pool and returns when all calls
     * have finished. Indices are dealt round-robin to the per-worker
     * deques; idle workers steal from the back of busy workers' deques.
     * The first exception thrown by any call is rethrown here (the
     * remaining jobs still run). Not reentrant: one batch at a time.
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Executes @p rows x suite-benchmarks simulation jobs and merges
     * per-job observability into each row's config sinks in submission
     * order (see file comment). Returns one suite-ordered result vector
     * per row plus the structured failures of cells that exhausted
     * their retries (those cells' BenchResult::failed is set and their
     * sinks receive nothing). With checkpointing enabled, loads any
     * matching journal first and only runs the remaining cells.
     */
    GridOutcome runGrid(SuiteRunner &runner,
                        const std::vector<GridRow> &rows);

    /**
     * Publishes grid-scheduling counters under @p prefix:
     * "<prefix>.grid_cells" (cells executed), "<prefix>.fused_jobs"
     * (multi-lane jobs dispatched), "<prefix>.fused_lane_cells"
     * (cells that rode a fused walk), "<prefix>.cells_failed" (cells
     * that exhausted retries), "<prefix>.cells_retried" (individual
     * re-attempts) and "<prefix>.cells_resumed" (cells restored from
     * checkpoint journals) -- the scheduling / fault-tolerance view of
     * grid execution. Values differ between lane caps (and
     * between faulty and clean runs) by design, so the bench harness
     * only exports them on request (EV8_CACHE_METRICS) to keep default
     * artifacts byte-identical.
     */
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const;

    /**
     * Wall time of every completed cell (milliseconds), fused cells as
     * equal amortized slices of their shared walk. Feeds the telemetry
     * block's cell_duration_ms histogram; values are timing-dependent
     * and therefore masked in byte-identity comparisons.
     */
    const Histogram &cellDurations() const { return cellDurationsMs_; }

    /** Total worker-busy time (every attempt + fused walk), ns. */
    uint64_t
    poolBusyNs() const
    {
        return busyNs_.load(std::memory_order_relaxed);
    }

    /** Wall time spent inside runGrid(), summed across batches, ns. */
    uint64_t gridWallNs() const { return gridWallNs_; }

    /** Cells submitted across batches (including restored ones). */
    uint64_t gridCellCount() const { return gridCells_; }

  private:
    struct TaskDeque
    {
        std::mutex mutex;
        std::deque<size_t> tasks;
    };

    void workerLoop(unsigned slot);
    void drain(unsigned slot, const std::function<void(size_t)> &fn);
    bool popTask(unsigned slot, size_t &task);

    unsigned jobs_;
    std::vector<std::unique_ptr<TaskDeque>> queues_;
    std::vector<std::thread> workers_;

    // Grid-scheduling tallies; only runGrid()'s calling thread writes
    // them (one batch at a time), so plain counters suffice --
    // except cellsRetried_, which workers bump from inside jobs.
    uint64_t gridCells_ = 0;
    uint64_t fusedJobs_ = 0;
    uint64_t fusedLaneCells_ = 0;
    uint64_t cellsFailed_ = 0;
    uint64_t cellsResumed_ = 0;
    std::atomic<uint64_t> cellsRetried_{0};

    // Telemetry: completed-cell durations, worker busy time, and grid
    // wall time (see the public accessors above). The histogram and
    // busyNs_ are written by workers (thread-safe); gridWallNs_ only by
    // runGrid()'s calling thread.
    Histogram cellDurationsMs_;
    std::atomic<uint64_t> busyNs_{0};
    uint64_t gridWallNs_ = 0;

    /**
     * runGrid() invocations on this engine, in order: the batch index
     * that prefixes every cell key ("g<batch>/r<row>/<bench>") and
     * feeds the checkpoint grid hash. Deterministic across identical
     * process runs, which is what lets a resumed process find the
     * journal its predecessor wrote.
     */
    uint64_t batchIndex_ = 0;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable batchDone_;
    uint64_t batchSeq_ = 0;
    const std::function<void(size_t)> *batchFn_ = nullptr;
    size_t pending_ = 0;   //!< tasks not yet completed in this batch
    unsigned busy_ = 0;    //!< workers currently draining this batch
    std::exception_ptr firstError_;
    bool stop_ = false;
};

} // namespace ev8

#endif // EV8_SIM_EXPERIMENT_HH
