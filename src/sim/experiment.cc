#include "sim/experiment.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/env.hh"
#include "common/hash.hh"
#include "obs/event_trace.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace_span.hh"
#include "sim/cell_executor.hh"
#include "sim/checkpoint.hh"
#include "sim/fault_injection.hh"

namespace ev8
{

namespace
{

/** The engine whose pool runs the current thread; null elsewhere. */
thread_local const ExperimentEngine *poolOwner = nullptr;

/** Upper bound for parseJobs(): far above any sane pool or lane cap. */
constexpr unsigned long long kMaxParsedJobs = 4096;

/**
 * Bucket bounds (milliseconds) for the per-cell duration histogram the
 * telemetry block exports. Cells range from sub-millisecond unit-test
 * grids to multi-second full-budget sweeps.
 */
std::vector<double>
cellDurationBoundsMs()
{
    return {1,    2,    5,    10,   25,   50,  100,
            250,  500,  1000, 2500, 5000, 10000};
}

/**
 * Content hash identifying one grid batch for checkpoint naming: covers
 * everything that could change what the cells compute -- format
 * versions, the batch's position in the run, the workload set and
 * budgets, and each row's predictor identity and simulation config.
 * Anything the hash cannot see (predictor update-rule edits, simulator
 * changes) must be covered by bumping a version constant.
 */
uint64_t
gridHash(SuiteRunner &runner, const std::vector<GridRow> &rows,
         uint64_t batch)
{
    ContentHash h;
    h.u64(GridCheckpoint::kFormatVersion);
    h.u64(TraceCache::kFormatVersion);
    h.u64(TraceCache::kStreamFormatVersion);
    h.u64(batch);
    h.u64(runner.size());
    h.u64(runner.baseBranches());
    for (size_t b = 0; b < runner.size(); ++b) {
        const Benchmark &bench = specint95Suite()[b];
        h.u64(TraceCache::profileHash(bench.profile));
        h.u64(bench.branchesAt(runner.baseBranches()));
    }
    // Sampled and exact grids must never share a checkpoint. Hashed
    // only when active so every pre-sampling checkpoint name (and the
    // exact mode's) is untouched.
    const SampleSpec &sample = runner.sampleSpec();
    if (sample.active) {
        h.str("sampling");
        h.u64(sample.budget);
        h.u64(sample.windowBranches);
        h.u64(sample.warmupBranches);
        h.u64(sample.seed);
        h.u64(sample.maxPhases);
        h.u64(PhaseMap::kFormatVersion);
    }
    for (const GridRow &row : rows) {
        h.str(row.label);
        const PredictorPtr probe = row.factory();
        h.str(probe->name());
        h.u64(probe->storageBits());
        const SimConfig &c = row.config;
        h.u64(static_cast<uint64_t>(static_cast<int>(c.history)));
        h.u64(c.historyAge);
        h.u64(c.assignBanks ? 1 : 0);
        h.u64(c.events != nullptr ? 1 : 0);
        h.u64(c.metrics != nullptr ? 1 : 0);
        h.u64(c.forceGenericKernel ? 1 : 0);
    }
    return h.value();
}

} // namespace

unsigned
ExperimentEngine::parseJobs(const std::string &text)
{
    if (text.empty()) {
        throw std::invalid_argument(
            "empty worker count; expected a positive integer");
    }
    for (const char ch : text) {
        if (ch < '0' || ch > '9') {
            throw std::invalid_argument(
                "invalid worker count '" + text
                + "'; expected a positive integer");
        }
    }
    // Digits only from here on, so strtoull cannot reject; it can only
    // saturate, which the range check below catches (ULLONG_MAX >
    // kMaxParsedJobs).
    const unsigned long long v =
        std::strtoull(text.c_str(), nullptr, 10);
    if (v == 0) {
        throw std::invalid_argument("worker count must be at least 1, "
                                    "got '" + text + "'");
    }
    if (v > kMaxParsedJobs) {
        throw std::invalid_argument(
            "worker count '" + text + "' out of range [1, "
            + std::to_string(kMaxParsedJobs) + "]");
    }
    return static_cast<unsigned>(v);
}

unsigned
ExperimentEngine::defaultJobs()
{
    if (const char *env = std::getenv("EV8_JOBS")) {
        try {
            return parseJobs(env);
        } catch (const std::invalid_argument &err) {
            std::fprintf(stderr, "EV8_JOBS: %s\n", err.what());
            std::exit(2);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

size_t
ExperimentEngine::fusedLaneCap()
{
    if (const char *env = std::getenv("EV8_FUSED_LANES")) {
        try {
            return std::min<size_t>(parseJobs(env), kMaxFusedLanes);
        } catch (const std::invalid_argument &err) {
            std::fprintf(stderr, "EV8_FUSED_LANES: %s\n", err.what());
            std::exit(2);
        }
    }
    return kMaxFusedLanes;
}

void
ExperimentEngine::publishMetrics(MetricRegistry &registry,
                                 const std::string &prefix) const
{
    registry.counter(prefix + ".grid_cells").inc(gridCellCount());
    registry.counter(prefix + ".fused_jobs")
        .inc(fusedJobs_.load(std::memory_order_relaxed));
    registry.counter(prefix + ".fused_lane_cells")
        .inc(fusedLaneCells_.load(std::memory_order_relaxed));
    registry.counter(prefix + ".cells_failed").inc(cellsFailed_);
    registry.counter(prefix + ".cells_retried")
        .inc(cellsRetried_.load(std::memory_order_relaxed));
    registry.counter(prefix + ".cells_resumed").inc(cellsResumed_);
}

ExperimentEngine::ExperimentEngine(unsigned jobs)
    : jobs_(jobs != 0 ? jobs : defaultJobs()),
      cellDurationsMs_(cellDurationBoundsMs())
{
    workers_.reserve(jobs_);
    for (unsigned slot = 0; slot < jobs_; ++slot)
        workers_.emplace_back([this, slot] { workerLoop(slot); });
}

ExperimentEngine::~ExperimentEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workReady_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ExperimentEngine::workerLoop(unsigned slot)
{
    poolOwner = this;
    SpanTracer::global().setThreadName("worker-"
                                       + std::to_string(slot));
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock,
                            [&] { return stop_ || !tasks_.empty(); });
            // Callers block until their tasks finish, so the queue is
            // empty by the time the destructor sets stop_.
            if (tasks_.empty())
                return;
            task = tasks_.front();
            tasks_.pop_front();
        }
        std::exception_ptr error;
        try {
            (*task.fn)(task.index);
        } catch (...) {
            error = std::current_exception();
        }
        // Notified under the lock: the caller cannot see pending == 0
        // and pop its stack-held latch before this thread lets go.
        std::lock_guard<std::mutex> lock(mutex_);
        if (error && !task.latch->error)
            task.latch->error = error;
        if (--task.latch->pending == 0)
            taskDone_.notify_all();
    }
}

void
ExperimentEngine::parallelFor(size_t n,
                              const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (poolOwner == this) {
        throw std::logic_error("ExperimentEngine::parallelFor called "
                               "from one of its own pool threads");
    }
    Latch latch{n, nullptr};
    std::unique_lock<std::mutex> lock(mutex_);
    for (size_t i = 0; i < n; ++i)
        tasks_.push_back(Task{&fn, i, &latch});
    workReady_.notify_all();
    taskDone_.wait(lock, [&] { return latch.pending == 0; });
    if (latch.error)
        std::rethrow_exception(latch.error);
}

void
ExperimentEngine::attachAccounting(CellExecutor &executor)
{
    executor.noteBusyNs = [this](uint64_t ns) {
        busyNs_.fetch_add(ns, std::memory_order_relaxed);
    };
    executor.noteCellMs = [this](double ms) {
        cellDurationsMs_.observe(ms);
    };
    executor.noteRetried = [this] {
        cellsRetried_.fetch_add(1, std::memory_order_relaxed);
    };
}

void
ExperimentEngine::beginGroupCall()
{
    std::lock_guard<std::mutex> lock(wallMutex_);
    if (groupCallsInFlight_++ == 0)
        activeSinceNs_ = SpanTracer::global().nowNs();
}

void
ExperimentEngine::endGroupCall()
{
    std::lock_guard<std::mutex> lock(wallMutex_);
    if (--groupCallsInFlight_ == 0)
        gridWallNs_.fetch_add(SpanTracer::global().nowNs() - activeSinceNs_,
                              std::memory_order_relaxed);
}

void
ExperimentEngine::runGroups(
    const std::vector<size_t> &cells,
    const std::vector<CellRequest> &requests,
    const std::function<void(const std::vector<size_t> &)> &run_group)
{
    struct InFlight
    {
        ExperimentEngine &engine;
        explicit InFlight(ExperimentEngine &e) : engine(e)
        {
            engine.beginGroupCall();
        }
        ~InFlight() { engine.endGroupCall(); }
    } inFlight(*this);

    std::vector<std::vector<size_t>> groups;
    {
        ScopedSpan grouping(SpanPhase::GridSetup, "grid.setup:fuse");
        grouping.arg("cells", static_cast<uint64_t>(cells.size()));
        groups = fuseGroups(cells, requests, fusedLaneCap());
    }
    gridCells_.fetch_add(cells.size(), std::memory_order_relaxed);
    for (const auto &group : groups) {
        if (group.size() > 1) {
            fusedJobs_.fetch_add(1, std::memory_order_relaxed);
            fusedLaneCells_.fetch_add(group.size(),
                                      std::memory_order_relaxed);
        }
    }
    parallelFor(groups.size(), [&](size_t g) { run_group(groups[g]); });
}

GridOutcome
ExperimentEngine::runGrid(SuiteRunner &runner,
                          const std::vector<GridRow> &rows)
{
    const size_t nbench = runner.size();
    const size_t n = rows.size() * nbench;
    const uint64_t batch = batchIndex_++;

    ProgressMeter &progress = ProgressMeter::global();
    std::vector<CellOutput> outputs(n);

    // The shared cell-execution core (sim/cell_executor.hh): served
    // sessions run the exact same code with the same accounting hooks;
    // only the scheduling and the checkpoint journal are batch-specific.
    CellExecutor executor;

    // Everything the executor needs to run cell i, caller-agnostic.
    const std::vector<CellRequest> requests =
        gridCellRequests(rows, runner, batch, {});

    // Resume: load any journal for this exact grid and mark its cells
    // done before scheduling.
    const std::string ckpt_dir = GridCheckpoint::defaultDir();
    GridCheckpoint checkpoint(
        ckpt_dir, ckpt_dir.empty() ? 0 : gridHash(runner, rows, batch),
        n);
    std::vector<char> restored(n, 0);
    if (checkpoint.enabled()) {
        ScopedSpan setup(SpanPhase::GridSetup, "grid.setup:restore");
        setup.arg("batch", batch);
        setup.arg("cells", static_cast<uint64_t>(n));
        for (auto &[i, cell] : checkpoint.load()) {
            outputs[i] = std::move(cell);
            restored[i] = 1;
            ++cellsResumed_;
        }
    }

    // Engine-side accounting, fed from whatever thread runs the cell.
    executor.journal = [&checkpoint](size_t i, const CellOutput &out) {
        checkpoint.append(i, out.result, out.metrics, out.events);
    };
    attachAccounting(executor);

    // Schedule only the cells the checkpoint did not restore.
    std::vector<size_t> todo;
    todo.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!restored[i])
            todo.push_back(i);
    }
    progress.beginBatch(todo.size());
    gridCells_.fetch_add(n - todo.size(), std::memory_order_relaxed);
    runGroups(todo, requests, [&](const std::vector<size_t> &cells) {
        executor.runGroup(cells, requests, outputs);
    });

    // Deterministic merge in submission order (sim/cell_executor.hh):
    // the same bytes whether a cell ran fresh, rode a fused walk, was
    // retried, or was restored from a journal.
    ScopedSpan mergeSpan(SpanPhase::Merge);
    mergeSpan.arg("cells", static_cast<uint64_t>(n));
    GridOutcome outcome = mergeGrid(outputs, rows, nbench);
    outcome.resumedCells = n - todo.size();
    cellsFailed_ += outcome.failures.size();
    progress.endBatch();
    return outcome;
}

} // namespace ev8
