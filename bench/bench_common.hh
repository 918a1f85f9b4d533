/**
 * @file
 * Shared scaffolding for the per-table / per-figure reproduction
 * binaries. Each binary regenerates one table or figure of the paper's
 * evaluation section: it runs the relevant predictor configurations
 * over the synthetic SPECINT95 suite and prints the same rows/series
 * the paper reports, plus the shape expectations to check against.
 *
 * Every binary speaks the same command line (parseBenchArgs):
 *
 *     --json=<path>    machine-readable artifact (schema ev8-bench-v1)
 *     --csv=<path>     result rows as CSV
 *     --events=<path>  sampled misprediction JSONL
 *     --sample=<N>     event sampling period (default 64)
 *     --branches=<N>   per-benchmark branch budget (sets
 *                      EV8_BRANCHES_PER_BENCH for the process)
 *     --jobs=<N>       simulation worker threads (default EV8_JOBS or
 *                      hardware concurrency; artifacts are
 *                      byte-identical for any N)
 *     --no-timing      accepted, no effect (perfbench/run.py passes it)
 *     --trace-out=<f>  Chrome trace_event timeline of the run
 *                      (Perfetto / chrome://tracing loadable)
 *     --progress       live cells-done/ETA line on stderr
 *     --quiet          suppress the human-readable tables/banner
 *     --help           usage
 *
 * --trace-out and --progress output is timing-dependent and excluded
 * from the byte-identity guarantees; the CI invocation for long grids
 * is "--progress --quiet" plus the artifact flags.
 *
 * BenchContext bundles the parsed arguments with the metric registry,
 * the event sink, the export document and the (parallel) suite runner,
 * so a bench main() is:
 *
 *     BenchContext ctx(argc, argv, "Fig. 5", "...");
 *     SuiteRunner &runner = ctx.runner();
 *     ...
 *     runAndPrint(ctx, runner, rows);
 *     return ctx.finish();
 */

#ifndef EV8_BENCH_BENCH_COMMON_HH
#define EV8_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "predictors/predictor.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

/**
 * Unified bench exit codes. Fatal diagnostics go to stderr prefixed
 * with the program name; a partial run still writes its artifacts (with
 * a "failures" section) before exiting kExitPartial.
 */
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;   //!< bad command line or env knob
constexpr int kExitPartial = 3; //!< completed, but some cells failed
constexpr int kExitFatal = 4;   //!< unrecoverable harness error (I/O)

/** One experiment row: a labelled predictor configuration. */
struct ExperimentRow
{
    std::string label;
    PredictorFactory factory;
    SimConfig config;
};

/** The unified bench command line, parsed. */
struct BenchArgs
{
    std::string jsonPath;     //!< --json=<path>, empty = no artifact
    std::string csvPath;      //!< --csv=<path>, empty = no artifact
    std::string eventsPath;   //!< --events=<path>, empty = no trace
    uint64_t sampleEvery = 64; //!< --sample=<N>
    unsigned jobs = 0;         //!< --jobs=<N>, 0 = engine default
    std::string traceOutPath;  //!< --trace-out=<path>, empty = no trace
    bool progress = false;     //!< --progress
    bool quiet = false;        //!< --quiet

    /** Any machine-readable output requested? */
    bool
    wantsArtifacts() const
    {
        return !jsonPath.empty() || !csvPath.empty()
            || !eventsPath.empty();
    }
};

/**
 * Parses the unified bench options. --help prints usage and exits 0;
 * an unrecognized or malformed option prints usage and exits 2.
 * --branches=<N> is applied immediately by setting the
 * EV8_BRANCHES_PER_BENCH environment variable.
 */
BenchArgs parseBenchArgs(int argc, char **argv);

/**
 * A binary-specific option hook: called with each argv entry before the
 * shared options are tried; return true to consume it. Lets the serve
 * binaries add --socket/--grid/--sessions while keeping the uniform
 * --json/--csv/--trace-out/--progress surface.
 */
using BenchOptionHandler = std::function<bool(const char *arg)>;

/**
 * parseBenchArgs with a binary-specific option hook. @p extra_usage
 * (may be null) is printed after the shared usage text on --help.
 */
BenchArgs parseBenchArgs(int argc, char **argv,
                         const BenchOptionHandler &extra,
                         const char *extra_usage);

/**
 * Did this process's bench arguments include --quiet? Gates every
 * human-readable stdout block (banner, tables, bar charts, shape
 * notes) so "--quiet --progress + artifact flags" is a clean CI
 * invocation. Artifacts and diagnostics are unaffected.
 */
bool benchQuiet();

/**
 * Everything one bench binary shares across its experiment: the parsed
 * arguments, the metric registry, the (optional) misprediction event
 * sink, and the export document that finish() writes out.
 */
class BenchContext
{
  public:
    /** Parses argv (may exit, see parseBenchArgs), prints the banner. */
    BenchContext(int argc, char **argv, std::string experiment_id,
                 std::string title);

    /** Same, with a binary-specific option hook (serve binaries). */
    BenchContext(int argc, char **argv, std::string experiment_id,
                 std::string title, const BenchOptionHandler &extra,
                 const char *extra_usage);

    const BenchArgs &args() const { return args_; }
    MetricRegistry &metrics() { return registry_; }

    /**
     * The shared suite runner, honouring --branches and --jobs.
     * Created on first use (after argument parsing), one per binary:
     * its trace cache and thread pool span every experiment row.
     */
    SuiteRunner &runner();

    /** Returns @p config with the observability hooks attached. */
    SimConfig instrument(SimConfig config);

    /** Records one export row with explicit column names. */
    void recordRow(const std::string &label, uint64_t storage_bits,
                   std::vector<std::string> columns,
                   std::vector<double> values);

    /** Convenience: per-benchmark misp/KI columns plus "amean". */
    void recordResults(const std::string &label, uint64_t storage_bits,
                       const std::vector<BenchResult> &results);

    /**
     * Registers a cell failure received from outside the context's own
     * runner (a served session's wire failure record): exported in the
     * artifacts' "failures" section and reflected in the exit code,
     * exactly like a local CellFailure.
     */
    void recordFailure(BenchFailureExport failure);

    /**
     * The --events sampling sink (null without --events). Served mode
     * replays wire-delivered misprediction events through it so the
     * JSONL stream matches a batch run byte for byte.
     */
    MispredictSink *eventSink() { return events.get(); }

    /**
     * Writes the requested --json/--csv artifacts and closes the event
     * stream, then reports the run's fate as main()'s exit code:
     * kExitOk on a clean run, kExitPartial when any grid cell
     * exhausted its retries (the failures ride along in the artifacts
     * and as "cell_failure" JSONL records in the event stream), and
     * kExitFatal when an artifact could not be written.
     */
    int finish();

  private:
    /** Fills the artifact's telemetry block at finish() time. */
    TelemetryExport buildTelemetry() const;

    std::string prog_; //!< program name, prefixes fatal diagnostics
    BenchArgs args_;
    BenchExport data_;
    MetricRegistry registry_;
    std::unique_ptr<std::ofstream> eventsOut;
    std::unique_ptr<EventTraceSink> events;
    std::unique_ptr<SuiteRunner> runner_;
    uint64_t startNs_ = 0; //!< harness start, span-tracer clock
};

/** Prints the standard experiment banner (id, title, scale, caveat). */
void printBanner(const std::string &experiment_id,
                 const std::string &title);

/**
 * Runs every row over the suite and prints the paper-style table:
 * one line per configuration, one column per benchmark (misp/KI),
 * plus the arithmetic mean and the configuration's storage budget.
 * Each row's SimConfig is instrumented through @p ctx and its results
 * recorded for export. Cells that failed permanently print as "!!"
 * (and export as null); the mean skips them. Returns the per-row
 * results.
 */
std::vector<std::vector<BenchResult>> runAndPrint(
    BenchContext &ctx, SuiteRunner &runner,
    const std::vector<ExperimentRow> &rows);

/** Prints a per-benchmark bar chart of one result row. */
void printBars(const std::string &title,
               const std::vector<BenchResult> &results);

/** Prints the bullet list of shapes the paper's figure exhibits. */
void printShapeNotes(const std::vector<std::string> &notes);

} // namespace ev8

#endif // EV8_BENCH_BENCH_COMMON_HH
