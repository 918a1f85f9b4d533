#include "sim/suite_runner.hh"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/experiment.hh"

namespace ev8
{

SuiteRunner::SuiteRunner(uint64_t base_branches, unsigned jobs)
    : baseBranches_(base_branches), jobs_(jobs)
{
}

SuiteRunner::~SuiteRunner() = default;

const std::string &
SuiteRunner::name(size_t i) const
{
    return specint95Suite()[i].profile.name;
}

const BlockStream &
SuiteRunner::blockStream(size_t i)
{
    const Benchmark &bench = specint95Suite()[i];
    return cache_.stream(bench.profile, bench.branchesAt(baseBranches_));
}

void
SuiteRunner::prepareStreams()
{
    engine().parallelFor(size(), [this](size_t i) { blockStream(i); });
}

const SamplePlan *
SuiteRunner::samplePlan(size_t i)
{
    if (!sampleSpec_.active)
        return nullptr;
    PlanEntry *entry;
    {
        std::lock_guard<std::mutex> lock(planMutex_);
        if (planEntries_.size() < size())
            planEntries_.resize(size());
        if (!planEntries_[i])
            planEntries_[i] = std::make_unique<PlanEntry>();
        entry = planEntries_[i].get();
    }
    std::call_once(entry->once, [&] {
        const Benchmark &bench = specint95Suite()[i];
        const PhaseMap &map = cache_.phases(
            bench.profile, bench.branchesAt(baseBranches_),
            sampleSpec_.windowBranches, sampleSpec_.maxPhases);
        // The measured-branch budget scales per benchmark by the same
        // Table 2 weight as the branch budget itself.
        entry->plan = buildSamplePlan(
            map, sampleSpec_, bench.branchesAt(sampleSpec_.budget));
    });
    return &entry->plan;
}

ExperimentEngine &
SuiteRunner::engine()
{
    std::call_once(engineOnce_, [&] {
        engine_ = std::make_unique<ExperimentEngine>(jobs_);
    });
    return *engine_;
}

std::vector<BenchResult>
SuiteRunner::run(const PredictorFactory &factory, const SimConfig &config)
{
    std::vector<GridRow> rows(1);
    rows[0].factory = factory;
    rows[0].config = config;
    GridOutcome outcome = runGrid(rows);
    if (!outcome.ok()) {
        const CellFailure &f = outcome.failures.front();
        throw std::runtime_error(
            "suite run failed on " + f.bench + " after "
            + std::to_string(f.attempts) + " attempt(s): " + f.error);
    }
    return std::move(outcome.results.front());
}

GridOutcome
SuiteRunner::runGrid(const std::vector<GridRow> &rows)
{
    GridOutcome outcome = engine().runGrid(*this, rows);
    ranSampledGrid_ |= sampleSpec_.active;
    failures_.insert(failures_.end(), outcome.failures.begin(),
                     outcome.failures.end());
    resumedCells_ += outcome.resumedCells;
    // Sampled-cell summaries accumulate row-major like failures, so
    // the exported "sampling.cells" order is deterministic whatever
    // the pool width or fuse grouping.
    for (size_t ri = 0; ri < rows.size(); ++ri) {
        for (const BenchResult &r : outcome.results[ri]) {
            if (!r.failed && r.sim.sampled.active) {
                sampledCells_.push_back(
                    {rows[ri].label, r.bench, r.sim.sampled});
            }
        }
    }
    return outcome;
}

double
SuiteRunner::averageMispKI(const std::vector<BenchResult> &results)
{
    if (results.empty())
        return 0.0;
    double sum = 0.0;
    size_t completed = 0;
    for (const auto &r : results) {
        if (r.failed)
            continue;
        sum += r.sim.stats.mispKI();
        ++completed;
    }
    if (completed == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return sum / static_cast<double>(completed);
}

size_t
SuiteRunner::bestMeanIndex(std::span<const double> means)
{
    if (means.empty())
        throw std::invalid_argument("bestMeanIndex of no means");
    size_t best = 0;
    bool found = false;
    for (size_t i = 0; i < means.size(); ++i) {
        if (std::isfinite(means[i]) && (!found || means[i] < means[best])) {
            best = i;
            found = true;
        }
    }
    return best;
}

} // namespace ev8
