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
#include "workloads/synthetic_program.hh"

namespace ev8
{

namespace
{

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
        h.u64(c.profileTiming ? 1 : 0);
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

unsigned
ExperimentEngine::retryMax()
{
    return CellExecutor::retryMax();
}

unsigned
ExperimentEngine::retryBaseMs()
{
    return CellExecutor::retryBaseMs();
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
    registry.counter(prefix + ".grid_cells").inc(gridCells_);
    registry.counter(prefix + ".fused_jobs").inc(fusedJobs_);
    registry.counter(prefix + ".fused_lane_cells").inc(fusedLaneCells_);
    registry.counter(prefix + ".cells_failed").inc(cellsFailed_);
    registry.counter(prefix + ".cells_retried")
        .inc(cellsRetried_.load(std::memory_order_relaxed));
    registry.counter(prefix + ".cells_resumed").inc(cellsResumed_);
}

ExperimentEngine::ExperimentEngine(unsigned jobs)
    : jobs_(jobs != 0 ? jobs : defaultJobs()),
      cellDurationsMs_(cellDurationBoundsMs())
{
    queues_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        queues_.push_back(std::make_unique<TaskDeque>());
    // The calling thread is participant 0; slots 1..jobs-1 are pool
    // threads. jobs == 1 therefore spawns nothing and parallelFor is a
    // plain loop over the same code path.
    workers_.reserve(jobs_ - 1);
    for (unsigned slot = 1; slot < jobs_; ++slot)
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

bool
ExperimentEngine::popTask(unsigned slot, size_t &task)
{
    {
        TaskDeque &own = *queues_[slot];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.tasks.empty()) {
            task = own.tasks.front();
            own.tasks.pop_front();
            return true;
        }
    }
    // Steal from the back of the other deques, scanning from the next
    // slot so victims spread instead of piling onto worker 0.
    for (unsigned k = 1; k < jobs_; ++k) {
        TaskDeque &victim = *queues_[(slot + k) % jobs_];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.tasks.empty()) {
            task = victim.tasks.back();
            victim.tasks.pop_back();
            return true;
        }
    }
    return false;
}

void
ExperimentEngine::drain(unsigned slot, const std::function<void(size_t)> &fn)
{
    size_t task;
    while (popTask(slot, task)) {
        try {
            fn(task);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        if (--pending_ == 0)
            batchDone_.notify_all();
    }
}

void
ExperimentEngine::workerLoop(unsigned slot)
{
    SpanTracer::global().setThreadName("worker-"
                                       + std::to_string(slot));
    uint64_t seen = 0;
    for (;;) {
        const std::function<void(size_t)> *fn;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock, [&] {
                return stop_ || (batchSeq_ != seen && batchFn_ != nullptr);
            });
            if (stop_)
                return;
            seen = batchSeq_;
            fn = batchFn_;
            ++busy_;
        }
        drain(slot, *fn);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--busy_ == 0)
                batchDone_.notify_all();
        }
    }
}

void
ExperimentEngine::parallelFor(size_t n,
                              const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs_ == 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (size_t i = 0; i < n; ++i) {
            TaskDeque &q = *queues_[i % jobs_];
            std::lock_guard<std::mutex> qlock(q.mutex);
            q.tasks.push_back(i);
        }
        batchFn_ = &fn;
        pending_ = n;
        firstError_ = nullptr;
        ++batchSeq_;
    }
    workReady_.notify_all();

    drain(0, fn);

    std::unique_lock<std::mutex> lock(mutex_);
    // busy_ == 0 matters as much as pending_ == 0: a worker still inside
    // drain() must not race a subsequent batch's queue refill with this
    // batch's (about to dangle) fn.
    batchDone_.wait(lock, [&] { return pending_ == 0 && busy_ == 0; });
    batchFn_ = nullptr;
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

GridOutcome
ExperimentEngine::runGrid(SuiteRunner &runner,
                          const std::vector<GridRow> &rows)
{
    const size_t nbench = runner.size();
    const size_t n = rows.size() * nbench;
    const uint64_t batch = batchIndex_++;

    SpanTracer &tracer = SpanTracer::global();
    ProgressMeter &progress = ProgressMeter::global();
    const uint64_t gridStartNs = tracer.nowNs();

    std::vector<CellOutput> outputs(n);
    gridCells_ += n;

    // The shared cell-execution core (sim/cell_executor.hh): served
    // sessions run the exact same code; only the scheduling and the
    // accounting hooks below are engine-specific.
    CellExecutor executor;

    /**
     * Stable cell identity for fault matching and failure reports:
     * batch index / row index / benchmark name. Deterministic across
     * identical runs, independent of scheduling.
     */
    auto cell_key = [&](size_t i) {
        return "g" + std::to_string(batch) + "/r"
            + std::to_string(i / nbench) + "/"
            + specint95Suite()[i % nbench].profile.name;
    };

    /**
     * Human/timeline label for cell @p i: "<row label>/<bench>", or
     * just the benchmark for anonymous rows.
     */
    auto cell_label = [&](size_t i) {
        const std::string &label = rows[i / nbench].label;
        const std::string &bench =
            specint95Suite()[i % nbench].profile.name;
        return label.empty() ? bench : label + "/" + bench;
    };

    // Everything the executor needs to run cell i, caller-agnostic.
    std::vector<CellRequest> requests(n);
    for (size_t i = 0; i < n; ++i) {
        const GridRow &row = rows[i / nbench];
        const size_t b = i % nbench;
        CellRequest &req = requests[i];
        req.stream = [&runner, b]() -> const BlockStream & {
            return runner.blockStream(b);
        };
        if (runner.sampleSpec().active) {
            req.plan = [&runner, b]() -> const SamplePlan * {
                return runner.samplePlan(b);
            };
        }
        req.profile = &specint95Suite()[b].profile;
        req.factory = row.factory;
        req.config = row.config;
        req.wantEvents = row.config.events != nullptr;
        req.wantMetrics = row.config.metrics != nullptr;
        req.rowLabel = row.label;
        req.rowIndex = i / nbench;
        req.key = cell_key(i);
        req.label = cell_label(i);
    }

    // Resume: load any journal for this exact grid and mark its cells
    // done before scheduling. The pc -> class maps are not journaled
    // (they are a pure function of the benchmark), so rebuild them for
    // restored event-carrying cells -- once per benchmark.
    const std::string ckpt_dir = GridCheckpoint::defaultDir();
    GridCheckpoint checkpoint(
        ckpt_dir, ckpt_dir.empty() ? 0 : gridHash(runner, rows, batch),
        n);
    std::vector<char> restored(n, 0);
    if (checkpoint.enabled()) {
        ScopedSpan setup(SpanPhase::GridSetup, "grid.setup:restore");
        setup.arg("batch", batch);
        setup.arg("cells", static_cast<uint64_t>(n));
        std::vector<BranchClassMap> classCache(nbench);
        std::vector<char> haveClass(nbench, 0);
        auto restoredCells = checkpoint.load();
        for (auto &[i, cell] : restoredCells) {
            CellOutput &out = outputs[i];
            out.result = std::move(cell.result);
            out.metrics = std::move(cell.metrics);
            out.events = std::move(cell.events);
            if (rows[i / nbench].config.events) {
                const size_t b = i % nbench;
                if (!haveClass[b]) {
                    classCache[b] =
                        SyntheticProgram(specint95Suite()[b].profile)
                            .condBranchClasses();
                    haveClass[b] = 1;
                }
                out.classes = classCache[b];
            }
            restored[i] = 1;
            ++cellsResumed_;
        }
    }

    // Engine-side accounting, fed from whatever thread runs the cell.
    executor.journal = [&checkpoint](size_t i, const CellOutput &out) {
        checkpoint.append(i, out.result, out.metrics, out.events);
    };
    executor.noteBusyNs = [this](uint64_t ns) {
        busyNs_.fetch_add(ns, std::memory_order_relaxed);
    };
    executor.noteCellMs = [this](double ms) {
        cellDurationsMs_.observe(ms);
    };
    executor.noteRetried = [this] {
        cellsRetried_.fetch_add(1, std::memory_order_relaxed);
    };

    // Schedule only the cells the checkpoint did not restore.
    std::vector<size_t> todo;
    todo.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (!restored[i])
            todo.push_back(i);
    }
    progress.beginBatch(todo.size());

    std::vector<std::vector<size_t>> groups;
    {
        ScopedSpan grouping(SpanPhase::GridSetup, "grid.setup:fuse");
        grouping.arg("cells", static_cast<uint64_t>(todo.size()));
        groups = fuseGroups(todo, requests, fusedLaneCap());
    }
    for (const auto &cells : groups) {
        if (cells.size() > 1) {
            ++fusedJobs_;
            fusedLaneCells_ += cells.size();
        }
    }
    parallelFor(groups.size(), [&](size_t g) {
        executor.runGroup(groups[g], requests, outputs);
    });

    // Deterministic merge, strictly in submission order (row-major over
    // the grid): byte-identical shared-sink contents for any pool width,
    // whether a cell ran fresh, rode a fused walk, was retried, or was
    // restored from a journal. Failed cells contribute nothing to the
    // shared sinks; they surface as CellFailure records instead.
    GridOutcome outcome;
    outcome.results.resize(rows.size());
    for (auto &row_results : outcome.results)
        row_results.reserve(nbench);
    ScopedSpan mergeSpan(SpanPhase::Merge);
    mergeSpan.arg("cells", static_cast<uint64_t>(n));
    for (size_t i = 0; i < n; ++i) {
        const GridRow &row = rows[i / nbench];
        CellOutput &out = outputs[i];
        if (restored[i])
            ++outcome.resumedCells;
        if (out.failed) {
            CellFailure failure;
            failure.row = i / nbench;
            failure.rowLabel = row.label;
            failure.bench = specint95Suite()[i % nbench].profile.name;
            failure.attempts = out.attempts;
            failure.error = out.error;
            failure.attemptNs = std::move(out.attemptNs);
            outcome.failures.push_back(std::move(failure));
            out.result.bench = specint95Suite()[i % nbench].profile.name;
            out.result.failed = true;
            outcome.results[i / nbench].push_back(
                std::move(out.result));
            continue;
        }
        if (row.config.metrics)
            row.config.metrics->merge(out.metrics);
        if (MispredictSink *sink = row.config.events) {
            sink->setBench(out.result.bench);
            sink->setClassifier(&out.classes);
            for (const MispredictEvent &event : out.events)
                sink->onMispredict(event);
            sink->setClassifier(nullptr);
        }
        outcome.results[i / nbench].push_back(std::move(out.result));
    }
    cellsFailed_ += outcome.failures.size();
    progress.endBatch();
    gridWallNs_ += tracer.nowNs() - gridStartNs;
    return outcome;
}

} // namespace ev8
