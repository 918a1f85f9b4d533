/**
 * @file
 * The parallel experiment engine.
 *
 * Every figure and table of the paper is a grid of (benchmark x
 * configuration) simulations, and the cells are independent: each one
 * simulates a cold predictor over an immutable cached trace. The engine
 * executes those cells on a fixed pool of worker threads fed from one
 * FIFO task queue, while keeping every observable output
 * *deterministic*:
 *
 *  - results are index-stable: cell i writes slot i, so a grid's result
 *    rows come back in submission order regardless of which worker
 *    finished first;
 *  - each job gets a private MetricRegistry and a BufferedEventSink;
 *    after the batch, mergeGrid() (sim/cell_executor.hh) folds them
 *    into the caller's shared sinks in submission order -- counters
 *    add, gauges last-write-win in the same order a serial loop would
 *    have written them, and buffered misprediction events replay
 *    through the shared sampling sink, labelled with each benchmark's
 *    pc -> behaviour-class map, so the emitted JSONL is byte-identical
 *    to a serial run.
 *
 * The pool is the only scheduler, for batch grids and served sessions
 * (serve/server.hh) alike: `jobs` worker threads take cell-group tasks
 * from the queue, so --jobs caps cell groups in flight across every
 * caller. Callers only enqueue and wait; any width produces the same
 * bytes.
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
 * hooks, spans), the fused grouping and the merge live in
 * sim/cell_executor.hh; the engine contributes scheduling (the pool)
 * and checkpoint restore. Served sessions (serve/server.hh) group and
 * run their cells through the same fuseGroups() and CellExecutor, over
 * the same cached BlockStreams, and their clients merge the decoded
 * reply through the same mergeGrid(), which is what keeps served
 * artifacts byte-identical to batch ones.
 */

#ifndef EV8_SIM_EXPERIMENT_HH
#define EV8_SIM_EXPERIMENT_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

class CellExecutor; // sim/cell_executor.hh
struct CellRequest; // sim/cell_executor.hh

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

    /** @param jobs worker count; 0 resolves to defaultJobs(). */
    explicit ExperimentEngine(unsigned jobs = 0);
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Enqueues fn(0) .. fn(n-1) on the pool, in index order, and
     * returns when all n calls have finished. Several threads may call
     * it at once: their tasks share the one queue, so at most jobs()
     * tasks run at a time across all callers, and each call waits for
     * its own tasks only. The first exception thrown by one of this
     * call's tasks is rethrown here (its remaining tasks still run).
     * Called from one of this pool's own threads, it throws
     * std::logic_error instead of deadlocking.
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
     * Points @p executor's accounting hooks at this engine: worker
     * busy time (poolBusyNs()), completed-cell durations
     * (cellDurations()) and re-attempts (the cells_retried counter).
     * runGrid() and served sessions both call it, so served cells
     * count in the same telemetry as batch ones.
     */
    void attachAccounting(CellExecutor &executor);

    /**
     * The one group-execution path of batch grids and served sessions:
     * fuses @p cells into walk groups (fuseGroups() under
     * fusedLaneCap()), counts them into the grid tallies (grid cells,
     * fused jobs, fused lane cells), runs @p run_group once per group
     * on the pool and counts its wall into gridWallNs(). Several
     * threads may call it at once (one per served session).
     */
    void runGroups(
        const std::vector<size_t> &cells,
        const std::vector<CellRequest> &requests,
        const std::function<void(const std::vector<size_t> &)> &run_group);

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

    /** Wall time during which at least one runGroups() call (a batch
     *  or a served session) was in flight, ns: overlapping calls
     *  count their shared time once, so busy / (workers x this) is
     *  the pool's utilization while it had work. */
    uint64_t
    gridWallNs() const
    {
        return gridWallNs_.load(std::memory_order_relaxed);
    }

    /** Cells submitted across batches (including restored ones) and
     *  served sessions. */
    uint64_t
    gridCellCount() const
    {
        return gridCells_.load(std::memory_order_relaxed);
    }

  private:
    /** One parallelFor() call's completion state (on its stack). */
    struct Latch
    {
        size_t pending;           //!< tasks not yet finished
        std::exception_ptr error; //!< first exception thrown
    };

    struct Task
    {
        const std::function<void(size_t)> *fn;
        size_t index;
        Latch *latch;
    };

    void workerLoop(unsigned slot);

    /** A runGroups() call starts / ends: the first of overlapping
     *  calls opens the active-wall interval, the last closes it into
     *  gridWallNs_. */
    void beginGroupCall();
    void endGroupCall();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    // Grid-scheduling tallies. runGroups() runs on batch and session
    // threads alike, so its tallies are atomic; the rest are written
    // only by runGrid()'s calling thread -- except cellsRetried_,
    // which workers bump from inside jobs.
    std::atomic<uint64_t> gridCells_{0};
    std::atomic<uint64_t> fusedJobs_{0};
    std::atomic<uint64_t> fusedLaneCells_{0};
    uint64_t cellsFailed_ = 0;
    uint64_t cellsResumed_ = 0;
    std::atomic<uint64_t> cellsRetried_{0};

    // Telemetry: completed-cell durations, worker busy time, and grid
    // wall time (see the public accessors above), all thread-safe.
    Histogram cellDurationsMs_;
    std::atomic<uint64_t> busyNs_{0};
    std::atomic<uint64_t> gridWallNs_{0};
    std::mutex wallMutex_;       //!< guards groupCallsInFlight_, activeSinceNs_
    unsigned groupCallsInFlight_ = 0;
    uint64_t activeSinceNs_ = 0; //!< when groupCallsInFlight_ left 0

    /**
     * runGrid() invocations on this engine, in order: the batch index
     * that prefixes every cell key ("g<batch>/r<row>/<bench>") and
     * feeds the checkpoint grid hash. Deterministic across identical
     * process runs, which is what lets a resumed process find the
     * journal its predecessor wrote.
     */
    uint64_t batchIndex_ = 0;

    std::mutex mutex_; //!< guards tasks_, every Latch, stop_
    std::condition_variable workReady_;
    std::condition_variable taskDone_;
    std::deque<Task> tasks_;
    bool stop_ = false;
};

} // namespace ev8

#endif // EV8_SIM_EXPERIMENT_HH
