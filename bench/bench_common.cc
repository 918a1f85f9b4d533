#include "bench_common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/env.hh"
#include "common/simd.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "obs/progress.hh"
#include "obs/trace_span.hh"
#include "obs/trace_writer.hh"
#include "sim/experiment.hh"
#include "workloads/suite.hh"

namespace ev8
{

namespace
{

/** Set once by parseBenchArgs (--quiet); read via benchQuiet(). */
bool g_benchQuiet = false;

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Reproduces one table/figure of the EV8 branch predictor paper\n"
        "over the synthetic SPECINT95 suite.\n"
        "\n"
        "options:\n"
        "  --json=<path>    write the ev8-bench-v1 JSON artifact\n"
        "                   (results + metric registry + telemetry)\n"
        "  --csv=<path>     write the result rows as CSV\n"
        "  --events=<path>  write sampled misprediction events (JSONL)\n"
        "  --sample=<N>     event sampling period, every Nth\n"
        "                   misprediction (default 64)\n"
        "  --branches=<N>   per-benchmark dynamic conditional-branch\n"
        "                   budget (same as EV8_BRANCHES_PER_BENCH)\n"
        "  --sample-mode=<m> off (default) or phase: stratified\n"
        "                   phase-aware sampling over the pre-decoded\n"
        "                   streams (same as EV8_SAMPLE_MODE)\n"
        "  --sample-budget=<N> measured-branch budget for sampled mode,\n"
        "                   scaled per benchmark like --branches (same\n"
        "                   as EV8_SAMPLE_BUDGET; required with\n"
        "                   --sample-mode=phase)\n"
        "  --jobs=<N>       simulation worker threads, 1..4096 (default:\n"
        "                   EV8_JOBS or hardware concurrency; results and\n"
        "                   artifacts are byte-identical for any N)\n"
        "  --no-timing      accepted for compatibility; no effect\n"
        "  --trace-out=<f>  write a Chrome trace_event timeline of the\n"
        "                   run (load in Perfetto / chrome://tracing;\n"
        "                   timing-dependent, excluded from byte-\n"
        "                   identity guarantees)\n"
        "  --progress       live progress line on stderr (cells done,\n"
        "                   failed/retried, ETA, per-worker cell)\n"
        "  --quiet          suppress the human-readable tables; combine\n"
        "                   with --progress and the artifact flags for\n"
        "                   CI runs\n"
        "  --help           this message\n"
        "\n"
        "Set EV8_TRACE_CACHE_DIR to persist generated traces between\n"
        "runs (versioned binary cache, safe across profile edits).\n"
        "Set EV8_CHECKPOINT_DIR to journal completed grid cells so an\n"
        "interrupted run resumes instead of restarting (resumed\n"
        "artifacts are byte-identical to uninterrupted ones).\n"
        "EV8_RETRY_MAX / EV8_RETRY_BASE_MS tune per-cell retries;\n"
        "EV8_FAULT_SPEC injects deterministic faults (testing).\n"
        "Sampled mode is tuned by EV8_SAMPLE_WINDOW / EV8_SAMPLE_WARMUP /\n"
        "EV8_SAMPLE_SEED / EV8_SAMPLE_MAX_PHASES (strictly parsed; the\n"
        "artifact gains a \"sampling\" block with per-cell 95%% CIs).\n"
        "\n"
        "exit codes:\n"
        "  0  success\n"
        "  2  bad command line or environment knob\n"
        "  3  partial results: some grid cells failed after retries\n"
        "     (artifacts carry a \"failures\" section)\n"
        "  4  fatal error (artifact or event stream I/O)\n",
        prog);
}

/** Returns the value of "--opt=value" when @p arg matches, else null. */
const char *
optValue(const char *arg, const char *opt)
{
    const size_t len = std::strlen(opt);
    if (std::strncmp(arg, opt, len) == 0 && arg[len] == '=')
        return arg + len + 1;
    return nullptr;
}

uint64_t
parseCount(const char *text, const char *opt, const char *prog)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s: bad value for %s: '%s'\n\n", prog, opt,
                     text);
        printUsage(prog);
        std::exit(2);
    }
    return v;
}

} // namespace

BenchArgs
parseBenchArgs(int argc, char **argv)
{
    return parseBenchArgs(argc, argv, nullptr, nullptr);
}

BenchArgs
parseBenchArgs(int argc, char **argv, const BenchOptionHandler &extra,
               const char *extra_usage)
{
    const char *prog = argc > 0 ? argv[0] : "bench";
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--help") == 0
            || std::strcmp(arg, "-h") == 0) {
            printUsage(prog);
            if (extra_usage)
                std::fputs(extra_usage, stdout);
            std::exit(0);
        } else if (extra && extra(arg)) {
            // consumed by the binary's own option handler
        } else if (const char *v = optValue(arg, "--json")) {
            args.jsonPath = v;
        } else if (const char *v = optValue(arg, "--csv")) {
            args.csvPath = v;
        } else if (const char *v = optValue(arg, "--events")) {
            args.eventsPath = v;
        } else if (const char *v = optValue(arg, "--sample")) {
            args.sampleEvery = parseCount(v, "--sample", prog);
            if (args.sampleEvery == 0)
                args.sampleEvery = 1;
        } else if (const char *v = optValue(arg, "--branches")) {
            const uint64_t n = parseCount(v, "--branches", prog);
            setenv("EV8_BRANCHES_PER_BENCH",
                   std::to_string(n).c_str(), /*overwrite=*/1);
        } else if (const char *v = optValue(arg, "--sample-mode")) {
            // Validated (strictly) by sampleSpecFromEnv() when the
            // runner is created, like every EV8_SAMPLE_* knob.
            setenv("EV8_SAMPLE_MODE", v, /*overwrite=*/1);
        } else if (const char *v = optValue(arg, "--sample-budget")) {
            const uint64_t n = parseCount(v, "--sample-budget", prog);
            setenv("EV8_SAMPLE_BUDGET",
                   std::to_string(n).c_str(), /*overwrite=*/1);
        } else if (const char *v = optValue(arg, "--jobs")) {
            // Strict shared parser: "0", "-1", "4x" and friends are
            // hard errors, not a silent fallback to the default width.
            try {
                args.jobs = ExperimentEngine::parseJobs(v);
            } catch (const std::invalid_argument &err) {
                std::fprintf(stderr, "%s: bad value for --jobs: %s\n\n",
                             prog, err.what());
                printUsage(prog);
                std::exit(2);
            }
        } else if (std::strcmp(arg, "--no-timing") == 0) {
            // No effect; kept because perfbench/run.py passes it.
        } else if (const char *v = optValue(arg, "--trace-out")) {
            args.traceOutPath = v;
        } else if (std::strcmp(arg, "--progress") == 0) {
            args.progress = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            args.quiet = true;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n\n", prog,
                         arg);
            printUsage(prog);
            std::exit(2);
        }
    }
    g_benchQuiet = args.quiet;
    return args;
}

bool
benchQuiet()
{
    return g_benchQuiet;
}

BenchContext::BenchContext(int argc, char **argv,
                           std::string experiment_id, std::string title)
    : BenchContext(argc, argv, std::move(experiment_id),
                   std::move(title), nullptr, nullptr)
{
}

BenchContext::BenchContext(int argc, char **argv,
                           std::string experiment_id, std::string title,
                           const BenchOptionHandler &extra,
                           const char *extra_usage)
    : prog_(argc > 0 ? argv[0] : "bench"),
      args_(parseBenchArgs(argc, argv, extra, extra_usage))
{
    data_.experimentId = std::move(experiment_id);
    data_.title = std::move(title);
    data_.branchesPerBenchmark = branchesPerBenchmark();
    for (const Benchmark &b : specint95Suite())
        data_.benchmarks.push_back(b.profile.name);

    // Observability switches come first so every later phase (trace
    // generation included) lands on the timeline / progress line.
    SpanTracer::global().setThreadName("main");
    startNs_ = SpanTracer::global().nowNs();
    if (!args_.traceOutPath.empty())
        SpanTracer::global().enable();
    if (args_.progress)
        ProgressMeter::global().enable();

    if (!args_.eventsPath.empty()) {
        eventsOut = std::make_unique<std::ofstream>(args_.eventsPath);
        if (!*eventsOut) {
            std::fprintf(stderr, "%s: cannot open %s for writing\n",
                         prog_.c_str(), args_.eventsPath.c_str());
            std::exit(kExitFatal);
        }
        events = std::make_unique<EventTraceSink>(*eventsOut,
                                                  args_.sampleEvery);
    }

    printBanner(data_.experimentId, data_.title);
}

SuiteRunner &
BenchContext::runner()
{
    if (!runner_) {
        runner_ = std::make_unique<SuiteRunner>(branchesPerBenchmark(),
                                                args_.jobs);
        // Strictly parsed (exit 2 on a bad knob) exactly once per
        // binary, whether the mode came from the command line or the
        // environment. Active sampling also stamps the artifact's
        // "sampling" block header.
        const SampleSpec spec = sampleSpecFromEnv();
        if (spec.active) {
            runner_->setSampleSpec(spec);
            data_.sampling.active = true;
            data_.sampling.mode = "phase";
            data_.sampling.budget = spec.budget;
            data_.sampling.windowBranches = spec.windowBranches;
            data_.sampling.warmupBranches = spec.warmupBranches;
            data_.sampling.seed = spec.seed;
            data_.sampling.maxPhases = spec.maxPhases;
        }
    }
    return *runner_;
}

SimConfig
BenchContext::instrument(SimConfig config)
{
    config.metrics = &registry_;
    config.events = events.get();
    return config;
}

void
BenchContext::recordRow(const std::string &label, uint64_t storage_bits,
                        std::vector<std::string> columns,
                        std::vector<double> values)
{
    BenchRowExport row;
    row.label = label;
    row.storageBits = storage_bits;
    row.columns = std::move(columns);
    row.values = std::move(values);
    data_.rows.push_back(std::move(row));
}

void
BenchContext::recordResults(const std::string &label,
                            uint64_t storage_bits,
                            const std::vector<BenchResult> &results)
{
    std::vector<std::string> columns;
    std::vector<double> values;
    for (const auto &r : results) {
        columns.push_back(r.bench);
        // A failed cell exports as null (NaN) rather than a bogus 0.
        values.push_back(r.failed
                             ? std::numeric_limits<double>::quiet_NaN()
                             : r.sim.stats.mispKI());
    }
    columns.push_back("amean");
    values.push_back(SuiteRunner::averageMispKI(results));
    recordRow(label, storage_bits, std::move(columns), std::move(values));
}

void
BenchContext::recordFailure(BenchFailureExport failure)
{
    data_.failures.push_back(std::move(failure));
}

TelemetryExport
BenchContext::buildTelemetry() const
{
    TelemetryExport tel;
    SpanTracer &tracer = SpanTracer::global();
    tel.wallNs = tracer.nowNs() - startNs_;

    const ResourceSample res = sampleResourceUsage();
    tel.cpuUserNs = res.cpuUserNs;
    tel.cpuSysNs = res.cpuSysNs;
    tel.peakRssBytes = res.peakRssBytes;

    const auto totals = tracer.phaseTotals();
    for (size_t i = 0; i < kSpanPhaseCount; ++i) {
        tel.phases.push_back(
            TelemetryPhase{spanPhaseName(static_cast<SpanPhase>(i)),
                           totals[i].count, totals[i].wallNs});
    }

    if (runner_) {
        TraceCache &cache = runner_->traceCache();
        tel.traceRequests = cache.traceRequestCount();
        tel.traceDiskHits = cache.diskHitCount();
        tel.tracesGenerated = cache.generatedCount();
        tel.streamRequests = cache.streamRequestCount();
        tel.streamDiskHits = cache.streamDiskHitCount();
        tel.streamsDecoded = cache.decodedCount();
        if (tel.streamRequests > 0) {
            tel.streamHitRatio =
                static_cast<double>(tel.streamDiskHits)
                / static_cast<double>(tel.streamRequests);
        }
    }

    if (ExperimentEngine *engine =
            runner_ ? runner_->engineIfCreated() : nullptr) {
        const Histogram &cells = engine->cellDurations();
        tel.cellBoundsMs = cells.bounds();
        tel.cellBucketCounts = cells.bucketCounts();
        tel.cellCount = cells.count();
        tel.cellSumMs = cells.sum();

        tel.poolWorkers = engine->jobs();
        tel.poolGridCells = engine->gridCellCount();
        tel.poolBusyNs = engine->poolBusyNs();
        tel.poolWallNs = engine->gridWallNs();
        if (tel.poolWorkers > 0 && tel.poolWallNs > 0) {
            tel.poolUtilization = static_cast<double>(tel.poolBusyNs)
                / (static_cast<double>(tel.poolWorkers)
                   * static_cast<double>(tel.poolWallNs));
        }
    }

    const simd::Backend backend = simd::activeBackend();
    tel.simdBackend = simd::backendName(backend);
    tel.simdLanes = simd::backendLanes(backend);
    return tel;
}

int
BenchContext::finish()
{
    // Cache/scheduling counters legitimately differ between cold and
    // warm cache runs and between fused lane caps, so exporting them
    // by default would break the byte-identity guarantees the test
    // suite and CI gates rely on. Opt in with EV8_CACHE_METRICS=1
    // (strictly parsed: anything else is a usage error, exit 2).
    if (runner_ && strictEnvBool("EV8_CACHE_METRICS", false)) {
        runner_->traceCache().publishMetrics(registry_, "trace_cache");
        if (ExperimentEngine *engine = runner_->engineIfCreated())
            engine->publishMetrics(registry_, "engine");
    }

    // The disk-degrade flag is exported unconditionally: it only ever
    // appears on already-degraded runs, so the byte-identity guarantee
    // for clean runs is untouched, and a partial artifact self-reports
    // why its trace cache was cold.
    if (runner_ && runner_->traceCache().diskDisabled())
        registry_.counter("trace_cache.disk_disabled").inc();

    // Terminate any live progress line before the "wrote ..." messages.
    ProgressMeter::global().finishLine();

    if (runner_) {
        for (const CellFailure &f : runner_->failures()) {
            BenchFailureExport e;
            e.rowLabel = f.rowLabel;
            e.bench = f.bench;
            e.attempts = f.attempts;
            e.error = f.error;
            e.attemptNs = f.attemptNs;
            data_.failures.push_back(std::move(e));
        }
        for (const SuiteRunner::SampledCell &c :
             runner_->sampledCells()) {
            SamplingCellExport cell;
            cell.rowLabel = c.rowLabel;
            cell.bench = c.bench;
            cell.phases = c.info.phases;
            cell.windowsTotal = c.info.windowsTotal;
            cell.windowsSimulated = c.info.windowsSimulated;
            cell.branchesSimulated = c.info.branchesSimulated;
            cell.ci95MispKI = c.info.ci95MispKI;
            data_.sampling.cells.push_back(std::move(cell));
        }
    }

    data_.metrics = &registry_;

    // Always attached: the telemetry block's *presence* in the JSON
    // artifact is deterministic even though its values are not (the
    // determinism gates mask it).
    const TelemetryExport telemetry = buildTelemetry();
    data_.telemetry = &telemetry;

    if (!args_.jsonPath.empty()) {
        std::ofstream out(args_.jsonPath);
        if (!out) {
            std::fprintf(stderr, "%s: cannot open %s for writing\n",
                         prog_.c_str(), args_.jsonPath.c_str());
            return kExitFatal;
        }
        writeBenchJson(out, data_);
        std::fprintf(stderr, "wrote %s\n", args_.jsonPath.c_str());
    }
    if (!args_.csvPath.empty()) {
        std::ofstream out(args_.csvPath);
        if (!out) {
            std::fprintf(stderr, "%s: cannot open %s for writing\n",
                         prog_.c_str(), args_.csvPath.c_str());
            return kExitFatal;
        }
        writeBenchCsv(out, data_);
        std::fprintf(stderr, "wrote %s\n", args_.csvPath.c_str());
    }
    if (events) {
        // Failures ride the event stream too, as typed JSONL records,
        // so stream consumers need not correlate with the JSON
        // artifact to learn the run was partial.
        for (const auto &f : data_.failures) {
            JsonWriter w(*eventsOut);
            w.beginObject();
            w.key("type");
            w.value("cell_failure");
            w.key("row_label");
            w.value(f.rowLabel);
            w.key("bench");
            w.value(f.bench);
            w.key("attempts");
            w.value(uint64_t{f.attempts});
            w.key("error");
            w.value(f.error);
            w.endObject();
            *eventsOut << '\n';
        }
        eventsOut->flush();
        std::fprintf(stderr,
                     "wrote %s (%llu of %llu mispredictions, 1-in-%llu "
                     "sampling)\n",
                     args_.eventsPath.c_str(),
                     static_cast<unsigned long long>(events->emitted()),
                     static_cast<unsigned long long>(events->seen()),
                     static_cast<unsigned long long>(
                         events->sampleEvery()));
    }

    if (!args_.traceOutPath.empty()) {
        if (!writeChromeTraceFile(args_.traceOutPath,
                                  SpanTracer::global(), prog_))
            return kExitFatal;
        std::fprintf(stderr, "wrote %s\n", args_.traceOutPath.c_str());
    }

    if (!data_.failures.empty()) {
        std::fprintf(stderr,
                     "%s: %zu grid cell(s) failed after retries; "
                     "results are PARTIAL\n",
                     prog_.c_str(), data_.failures.size());
        return kExitPartial;
    }
    return kExitOk;
}

void
printBanner(const std::string &experiment_id, const std::string &title)
{
    if (benchQuiet())
        return;
    std::printf("=====================================================\n");
    std::printf("%s -- %s\n", experiment_id.c_str(), title.c_str());
    std::printf("Seznec, Felix, Krishnan, Sazeides: \"Design Tradeoffs "
                "for the Alpha EV8 Conditional Branch Predictor\", "
                "ISCA 2002\n");
    std::printf("Workload: synthetic SPECINT95-like suite, %llu base "
                "conditional branches per benchmark\n",
                static_cast<unsigned long long>(branchesPerBenchmark()));
    std::printf("(set EV8_BRANCHES_PER_BENCH to rescale; absolute misp/KI "
                "shifts with scale, orderings hold)\n");
    std::printf("=====================================================\n\n");
}

std::vector<std::vector<BenchResult>>
runAndPrint(BenchContext &ctx, SuiteRunner &runner,
            const std::vector<ExperimentRow> &rows)
{
    TextTable table;
    std::vector<std::string> header{"configuration"};
    for (size_t i = 0; i < runner.size(); ++i)
        header.push_back(runner.name(i));
    header.push_back("amean");
    header.push_back("storage");
    table.header(std::move(header));

    // One grid batch for the whole table: rows submitted together let
    // the engine fuse compatible (benchmark, history) cells across
    // configurations into shared trace walks, instead of paying one
    // walk per row. Submission stays row-major, so the deterministic
    // merge order -- and hence every artifact byte -- matches the old
    // row-at-a-time loop.
    std::vector<GridRow> grid;
    grid.reserve(rows.size());
    for (const auto &row : rows) {
        if (!benchQuiet())
            std::fprintf(stderr, "  running %s ...\n",
                         row.label.c_str());
        grid.push_back({row.factory, ctx.instrument(row.config),
                        row.label});
    }
    std::vector<std::vector<BenchResult>> all =
        runner.runGrid(grid).results;

    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &results = all[i];
        std::vector<std::string> cells{rows[i].label};
        for (const auto &r : results)
            cells.push_back(r.failed ? "!!"
                                     : fmt(r.sim.stats.mispKI(), 2));
        cells.push_back(fmt(SuiteRunner::averageMispKI(results), 3));
        const uint64_t storage_bits = rows[i].factory()->storageBits();
        cells.push_back(formatKbits(storage_bits));
        table.row(std::move(cells));
        ctx.recordResults(rows[i].label, storage_bits, results);
    }

    if (!benchQuiet()) {
        std::printf("misp/KI (mispredictions per 1000 instructions), "
                    "lower is better:\n\n%s\n",
                    table.render().c_str());
    }
    return all;
}

void
printBars(const std::string &title, const std::vector<BenchResult> &results)
{
    if (benchQuiet())
        return;
    std::vector<std::string> labels;
    std::vector<double> values;
    for (const auto &r : results) {
        labels.push_back(r.bench);
        values.push_back(r.failed
                             ? std::numeric_limits<double>::quiet_NaN()
                             : r.sim.stats.mispKI());
    }
    std::printf("%s\n", renderBarChart(title, labels, values).c_str());
}

void
printShapeNotes(const std::vector<std::string> &notes)
{
    if (benchQuiet())
        return;
    std::printf("Shape checks against the paper:\n");
    for (const auto &note : notes)
        std::printf("  * %s\n", note.c_str());
    std::printf("\n");
}

} // namespace ev8
