#include "sim/cell_executor.hh"

#include <chrono>
#include <map>
#include <optional>
#include <thread>
#include <tuple>

#include "common/env.hh"
#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/trace_span.hh"
#include "sim/block_stream.hh"
#include "sim/fault_injection.hh"

namespace ev8
{

namespace
{

/** Ceiling on one retry backoff sleep, whatever the attempt count. */
constexpr uint64_t kMaxBackoffMs = 1000;

} // namespace

std::vector<CellRequest>
gridCellRequests(const std::vector<GridRow> &rows, SuiteRunner &runner,
                 uint64_t batch, const std::string &session)
{
    const auto &suite = specint95Suite();
    const size_t nbench = runner.size();
    std::vector<CellRequest> requests(rows.size() * nbench);
    for (size_t i = 0; i < requests.size(); ++i) {
        const size_t r = i / nbench;
        const size_t b = i % nbench;
        const GridRow &row = rows[r];
        CellRequest &req = requests[i];
        req.stream = [&runner, b]() -> const BlockStream & {
            return runner.blockStream(b);
        };
        if (runner.sampleSpec().active) {
            req.plan = [&runner, b]() -> const SamplePlan * {
                return runner.samplePlan(b);
            };
        }
        req.profile = &suite[b].profile;
        req.factory = row.factory;
        req.config = row.config;
        req.wantEvents = row.config.events != nullptr;
        req.wantMetrics = row.config.metrics != nullptr;
        req.rowLabel = row.label;
        req.rowIndex = r;

        // Stable identity for fault matching, journals and failure
        // reports, independent of scheduling.
        const std::string &bench = req.profile->name;
        std::string key = "g";
        key += std::to_string(batch);
        key += "/r";
        key += std::to_string(r);
        key += '/';
        key += bench;
        req.key = std::move(key);
        req.label = row.label.empty() ? bench : row.label + "/" + bench;
        if (!session.empty()) {
            req.key.insert(0, session + "/");
            req.label.insert(0, session + ":");
            req.sessionFaults = true;
        }
    }
    return requests;
}

std::vector<std::vector<size_t>>
fuseGroups(const std::vector<size_t> &cells,
           const std::vector<CellRequest> &reqs, size_t laneCap)
{
    std::vector<std::vector<size_t>> groups;
    // Everything in the key must be identical for the lanes to legally
    // share one history walk / one kernel shape.
    using FuseKey = std::tuple<const WorkloadProfile *, int, unsigned,
                               bool, bool, bool, bool>;
    std::map<FuseKey, size_t> open; //!< key -> unfilled group
    for (const size_t i : cells) {
        const CellRequest &req = reqs[i];
        const SimConfig &c = req.config;
        const FuseKey key{req.profile, static_cast<int>(c.history),
                          c.historyAge, c.assignBanks, req.wantEvents,
                          req.wantMetrics, c.forceGenericKernel};
        auto [it, inserted] = open.try_emplace(key, groups.size());
        if (inserted) {
            groups.emplace_back();
        } else if (groups[it->second].size() >= laneCap) {
            it->second = groups.size();
            groups.emplace_back();
        }
        groups[it->second].push_back(i);
    }
    return groups;
}

GridOutcome
mergeGrid(const std::vector<CellOutput> &outputs,
          const std::vector<GridRow> &rows, size_t nbench)
{
    const auto &suite = specint95Suite();
    // The pc -> class map is a pure function of the benchmark, so it
    // is never stored with a cell: built here on first use.
    std::vector<std::optional<BranchClassMap>> classes(nbench);

    GridOutcome outcome;
    outcome.results.resize(rows.size());
    for (auto &row_results : outcome.results)
        row_results.reserve(nbench);
    for (size_t i = 0; i < outputs.size(); ++i) {
        const size_t r = i / nbench;
        const size_t b = i % nbench;
        const GridRow &row = rows[r];
        const CellOutput &out = outputs[i];
        if (out.failed) {
            CellFailure failure;
            failure.row = r;
            failure.rowLabel = row.label;
            failure.bench = suite[b].profile.name;
            failure.attempts = out.attempts;
            failure.error = out.error;
            failure.attemptNs = out.attemptNs;
            outcome.failures.push_back(std::move(failure));
            BenchResult placeholder;
            placeholder.bench = suite[b].profile.name;
            placeholder.failed = true;
            outcome.results[r].push_back(std::move(placeholder));
            continue;
        }
        if (row.config.metrics)
            row.config.metrics->merge(out.metrics);
        if (MispredictSink *sink = row.config.events) {
            if (!classes[b]) {
                classes[b] =
                    SyntheticProgram(suite[b].profile).condBranchClasses();
            }
            sink->setBench(out.result.bench);
            sink->setClassifier(&*classes[b]);
            for (const MispredictEvent &event : out.events)
                sink->onMispredict(event);
            sink->setClassifier(nullptr);
        }
        outcome.results[r].push_back(out.result);
    }
    return outcome;
}

unsigned
CellExecutor::retryMax()
{
    return static_cast<unsigned>(
        strictEnvU64("EV8_RETRY_MAX", 1, 100, 3));
}

unsigned
CellExecutor::retryBaseMs()
{
    return static_cast<unsigned>(
        strictEnvU64("EV8_RETRY_BASE_MS", 0, 10000, 10));
}

CellExecutor::CellExecutor()
    : retryMax_(retryMax()), retryBaseMs_(retryBaseMs())
{
}

void
CellExecutor::backoff(unsigned attempt) const
{
    if (retryBaseMs_ == 0)
        return;
    const uint64_t ms =
        std::min<uint64_t>(uint64_t{retryBaseMs_} << (attempt - 1),
                           kMaxBackoffMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

void
CellExecutor::recordCellSpan(const CellRequest &req, unsigned attempt,
                             size_t lanes, bool attempt_failed,
                             uint64_t start_ns, uint64_t dur_ns) const
{
    SpanTracer &tracer = SpanTracer::global();
    if (!tracer.enabled())
        return;
    std::string args = "\"bench\":\"" + escapeJson(req.profile->name)
        + "\",\"config\":\"" + escapeJson(req.rowLabel)
        + "\",\"row\":" + std::to_string(req.rowIndex)
        + ",\"lanes\":" + std::to_string(lanes)
        + ",\"attempt\":" + std::to_string(attempt);
    if (attempt_failed)
        args += ",\"failed\":true";
    tracer.record(SpanPhase::Cell, req.label, std::move(args), start_ns,
                  dur_ns);
}

void
CellExecutor::runGuarded(size_t index,
                         const std::vector<CellRequest> &reqs,
                         std::vector<CellOutput> &outputs) const
{
    const CellRequest &req = reqs[index];
    CellOutput &out = outputs[index];
    SpanTracer &tracer = SpanTracer::global();
    ProgressMeter &progress = ProgressMeter::global();
    FaultInjector &faults = FaultInjector::global();
    for (unsigned attempt = 1; attempt <= retryMax_; ++attempt) {
        out.attempts = attempt;
        if (progress.enabled())
            progress.noteCurrent(req.label);
        const uint64_t startNs = tracer.nowNs();
        bool ok = false;
        try {
            faults.maybeKill(req.key);
            faults.maybeThrow(FaultPoint::Job, req.key);
            if (req.sessionFaults) {
                faults.maybeThrow(FaultPoint::SessionDrop, req.key);
            }
            runLanes({index}, reqs, outputs);
            if (journal)
                journal(index, out);
            ok = true;
        } catch (const std::exception &err) {
            out.error = err.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        const uint64_t durNs = tracer.nowNs() - startNs;
        tracer.addPhase(SpanPhase::Cell, durNs);
        recordCellSpan(req, attempt, 1, !ok, startNs, durNs);
        if (noteBusyNs)
            noteBusyNs(durNs);
        out.attemptNs.push_back(durNs);
        if (ok) {
            if (noteCellMs)
                noteCellMs(static_cast<double>(durNs) / 1e6);
            progress.noteDone(durNs, false);
            return;
        }
        // Discard the torn attempt's partial state; only the failure
        // bookkeeping survives into the next attempt.
        const unsigned attempts = out.attempts;
        std::string error = std::move(out.error);
        std::vector<uint64_t> attemptNs = std::move(out.attemptNs);
        out = CellOutput{};
        out.attempts = attempts;
        out.error = std::move(error);
        out.attemptNs = std::move(attemptNs);
        if (attempt < retryMax_) {
            if (noteRetried)
                noteRetried();
            progress.noteRetried();
            backoff(attempt);
        }
    }
    out.failed = true;
    progress.noteDone(out.attemptNs.empty() ? 0 : out.attemptNs.back(),
                      true);
}

void
CellExecutor::runLanes(const std::vector<size_t> &cells,
                       const std::vector<CellRequest> &reqs,
                       std::vector<CellOutput> &outputs) const
{
    const CellRequest &lead = reqs[cells.front()];
    const BlockStream &stream = lead.stream();
    const bool want_events = lead.wantEvents;
    const bool want_metrics = lead.wantMetrics;

    std::vector<PredictorPtr> predictors;
    predictors.reserve(cells.size());
    std::vector<BufferedEventSink> buffers(cells.size());
    std::vector<FusedLane> lanes(cells.size());
    for (size_t k = 0; k < cells.size(); ++k) {
        const size_t i = cells[k];
        CellOutput &out = outputs[i];
        out.result.bench = lead.profile->name;
        predictors.push_back(reqs[i].factory());
        lanes[k].predictor = predictors.back().get();
        lanes[k].metrics = want_metrics ? &out.metrics : nullptr;
        lanes[k].events = want_events ? &buffers[k] : nullptr;
    }

    // The caller's shared sinks in the config are merge targets, never
    // touched by executing cells: each lane writes its own.
    std::vector<SimResult> sims = simulateStreamFused(
        stream, lanes, lead.config, lead.plan ? lead.plan() : nullptr);

    for (size_t k = 0; k < cells.size(); ++k) {
        CellOutput &out = outputs[cells[k]];
        out.result.sim = std::move(sims[k]);
        if (want_metrics) {
            predictors[k]->publishMetrics(
                out.metrics, "pred." + predictors[k]->name());
        }
        out.events = buffers[k].take();
    }
}

void
CellExecutor::runGroup(const std::vector<size_t> &cells,
                       const std::vector<CellRequest> &reqs,
                       std::vector<CellOutput> &outputs) const
{
    if (cells.size() == 1) {
        runGuarded(cells.front(), reqs, outputs);
        return;
    }
    SpanTracer &tracer = SpanTracer::global();
    ProgressMeter &progress = ProgressMeter::global();
    FaultInjector &faults = FaultInjector::global();
    const std::string &benchName = reqs[cells.front()].profile->name;
    if (progress.enabled()) {
        progress.noteCurrent("fused:" + benchName + " x"
                             + std::to_string(cells.size()));
    }
    bool fused_ok = true;
    const uint64_t startNs = tracer.nowNs();
    try {
        for (const size_t i : cells) {
            faults.maybeKill(reqs[i].key);
            faults.maybeThrow(FaultPoint::Job, reqs[i].key);
            if (reqs[i].sessionFaults)
                faults.maybeThrow(FaultPoint::SessionDrop, reqs[i].key);
        }
        runLanes(cells, reqs, outputs);
    } catch (...) {
        fused_ok = false;
    }
    const uint64_t durNs = tracer.nowNs() - startNs;
    tracer.addPhase(SpanPhase::FusedWalk, durNs);
    if (noteBusyNs)
        noteBusyNs(durNs);
    if (tracer.enabled()) {
        tracer.record(SpanPhase::FusedWalk,
                      "fused:" + benchName + " x"
                          + std::to_string(cells.size()),
                      "\"bench\":\"" + escapeJson(benchName)
                          + "\",\"lanes\":"
                          + std::to_string(cells.size()),
                      startNs, durNs);
    }
    if (fused_ok) {
        // One shared walk executed every lane: attribute each cell an
        // equal amortized slice so the timeline (and the cell
        // histogram) keeps one entry per cell in every mode.
        const uint64_t slice = durNs / cells.size();
        for (size_t k = 0; k < cells.size(); ++k) {
            const size_t i = cells[k];
            CellOutput &out = outputs[i];
            out.attempts = 1;
            if (journal)
                journal(i, out);
            recordCellSpan(reqs[i], 1, cells.size(), false,
                           startNs + k * slice, slice);
            if (noteCellMs)
                noteCellMs(static_cast<double>(slice) / 1e6);
            progress.noteDone(slice, false);
        }
        return;
    }
    // Demotion: the walk threw, so the group falls back to guarded
    // per-cell execution. Zero-duration marker span for the event.
    tracer.addPhase(SpanPhase::FusedDemote, 0);
    if (tracer.enabled()) {
        tracer.record(SpanPhase::FusedDemote, "demote:" + benchName,
                      "\"bench\":\"" + escapeJson(benchName)
                          + "\",\"lanes\":"
                          + std::to_string(cells.size()),
                      tracer.nowNs(), 0);
    }
    for (const size_t i : cells) {
        outputs[i] = CellOutput{}; // drop the torn fused attempt
        runGuarded(i, reqs, outputs);
    }
}

} // namespace ev8
