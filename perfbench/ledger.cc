/**
 * @file
 * ev8_ledger: the benchmark's traced per-layer replay.
 *
 * It links the repository's libraries and replays one benchmark
 * workload in-process, recording an in-memory span around every call it
 * makes into a module's public functions: trace synthesis (workloads),
 * block decode (sim/block_stream), stream loads (sim/trace_cache), phase
 * maps and sample plans (sim/phase), the grid run (sim/experiment), the
 * exporters (obs), and the prediction server with its socket transport
 * (serve). Spans sit at call boundaries only, so the library code runs
 * the path the shipped binaries run; they stay in memory and are written
 * to <out-dir>/spans.json at exit. After the workload, micros isolate
 * the simulation kernel: each drives one predictor type under one SIMD
 * backend at one lane count over a fixed stream, repeated until the
 * --seconds window closes.
 *
 * Usage:
 *   ev8_ledger --workload=<name> --branches=<N> --jobs=<N>
 *              [--cache-dir=<dir>] [--out-dir=<dir>] [--seconds=<S>]
 *              [--seed=<N>] [--setup-only]
 *
 * stdout: one JSON object {"wall_s", "backend", "checks", "session_spans",
 * "metrics"}, or {"setup_s"} with --setup-only (which records no spans).
 * session_spans (served only) counts the engine spans one traced session
 * caused, for run.py's fast-path guard. Sampled workloads read the
 * EV8_SAMPLE_* knobs from the environment, like the bench binaries.
 */

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/simd.hh"
#include "core/ev8_predictor.hh"
#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/trace_span.hh"
#include "predictors/factory.hh"
#include "serve/grids.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/block_stream.hh"
#include "sim/experiment.hh"
#include "sim/phase/sample_plan.hh"
#include "sim/simulator.hh"
#include "sim/suite_runner.hh"
#include "sim/trace_cache.hh"
#include "workloads/suite.hh"

using namespace ev8;

namespace
{

using Clock = std::chrono::steady_clock;

/** Branches of the fixed kernel-micro stream (gcc). */
constexpr uint64_t kMicroBranches = 500000;

/**
 * Traced served sessions run one after another; run.py's untraced base
 * for the tracing overhead runs as many.
 */
constexpr int kServedSessions = 6;

/** Snapshot poll period of bench_serve_load's load mode (runLoad). */
constexpr auto kPollPeriod = std::chrono::milliseconds(20);

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile; 0 for no samples. */
double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank =
        static_cast<size_t>(std::ceil(pct / 100.0 * double(v.size())));
    return v[std::max<size_t>(rank, 1) - 1];
}

double
sum(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return total;
}

/** One span: a call into a layer, the span that caused it, its work. */
struct Span
{
    std::string name;
    int parent = -1;
    double start = 0.0; //!< seconds since the log was created
    double dur = 0.0;
    double work = 0.0;  //!< layer-specific count (branches, bytes, ...)
};

/**
 * The in-memory span log. Set-up spans arrive from pool workers, so
 * appends take a mutex; the log is written out once at exit. While not
 * recording, open() returns -1 and nothing is kept.
 */
class SpanLog
{
  public:
    bool recording = true;

    int
    open(const std::string &name, int parent)
    {
        if (!recording)
            return -1;
        const double now = since(epoch_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, parent, now, 0.0, 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int id, double work)
    {
        if (id < 0)
            return;
        const double now = since(epoch_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[id].dur = now - spans_[id].start;
        spans_[id].work = work;
    }

    /** Spans opened so far. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /**
     * Durations of the spans named @p name, in open order, from the
     * @p from-th span opened on.
     */
    std::vector<double>
    durations(const std::string &name, size_t from = 0) const
    {
        return select(name, from, &Span::dur);
    }

    /** Work of the spans named @p name, as durations(). */
    std::vector<double>
    works(const std::string &name, size_t from = 0) const
    {
        return select(name, from, &Span::work);
    }

    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::ofstream out(path);
        JsonWriter w(out);
        w.beginArray();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.key("id");
            w.value(static_cast<uint64_t>(i));
            w.key("name");
            w.value(s.name);
            w.key("parent");
            w.value(s.parent);
            w.key("start_s");
            w.value(s.start);
            w.key("dur_s");
            w.value(s.dur);
            w.key("work");
            w.value(s.work);
            w.endObject();
        }
        w.endArray();
        out << "\n";
    }

  private:
    std::vector<double>
    select(const std::string &name, size_t from, double Span::*field) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out;
        for (size_t i = from; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                out.push_back(spans_[i].*field);
        return out;
    }

    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

SpanLog spans;

/** Scoped span around one call into a layer. */
class Traced
{
  public:
    explicit Traced(const std::string &name, int parent = -1)
        : id_(spans.open(name, parent))
    {
    }

    ~Traced() { spans.close(id_, work); }

    Traced(const Traced &) = delete;
    Traced &operator=(const Traced &) = delete;

    int id() const { return id_; }

    double work = 0.0;

  private:
    int id_;
};

struct Options
{
    std::string workload;
    uint64_t branches = 0;
    unsigned jobs = 1;
    std::string cacheDir; //!< "" = in-memory trace cache
    std::string outDir = ".";
    double seconds = 10.0;
    uint64_t seed = 1;
    bool setupOnly = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "ev8_ledger: %s\n"
                 "usage: ev8_ledger --workload=<exact-limits|"
                 "paper-sampled|served> --branches=<N> --jobs=<N>\n"
                 "       [--cache-dir=<dir>] [--out-dir=<dir>] "
                 "[--seconds=<S>] [--seed=<N>] [--setup-only]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseCount(const std::string &text, const char *flag)
{
    try {
        size_t used = 0;
        const unsigned long long v = std::stoull(text, &used);
        if (used == text.size() && v > 0 && text[0] != '-')
            return v;
    } catch (const std::exception &) {
    }
    usage(std::string("bad value for ") + flag + ": " + text);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string val =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--branches")
            opt.branches = parseCount(val, "--branches");
        else if (key == "--jobs")
            opt.jobs = static_cast<unsigned>(parseCount(val, "--jobs"));
        else if (key == "--cache-dir")
            opt.cacheDir = val;
        else if (key == "--out-dir")
            opt.outDir = val;
        else if (key == "--seconds")
            opt.seconds = static_cast<double>(parseCount(val, "--seconds"));
        else if (key == "--seed")
            opt.seed = parseCount(val, "--seed");
        else if (arg == "--setup-only")
            opt.setupOnly = true;
        else
            usage("unknown option " + arg);
    }
    const bool known = opt.workload == "exact-limits"
        || opt.workload == "paper-sampled" || opt.workload == "served";
    if (!known)
        usage("unknown workload '" + opt.workload + "'");
    if (opt.branches == 0)
        usage("--branches is required");
    if (opt.setupOnly && opt.workload == "served")
        usage("--setup-only covers the batch workloads only");
    return opt;
}

/** What the replay checked; every count must be 0. */
struct Checks
{
    uint64_t cellsFailed = 0;
    uint64_t kernelMismatches = 0; //!< lanes disagreeing across paths
    uint64_t servedMismatches = 0; //!< sessions differing or failing
    uint64_t pathMismatches = 0;   //!< sessions on differing kernel paths
};

using Metrics = std::map<std::string, double>;

/**
 * Makes every stream (and, when sampling, every sample plan) of the
 * suite ready, one benchmark per pool worker, as the bench binaries'
 * first cells do. A cold cache splits the stream load into its two
 * calls: synthesis (TraceCache::get) and decode (TraceCache::stream).
 * Returns the wall time until everything is ready.
 */
double
prepareStreams(SuiteRunner &runner, bool cold)
{
    const auto t0 = Clock::now();
    Traced setup("setup");
    const int parent = setup.id();
    const SampleSpec &spec = runner.sampleSpec();
    runner.engine().parallelFor(runner.size(), [&](size_t i) {
        const Benchmark &bench = specint95Suite()[i];
        const uint64_t n = bench.branchesAt(runner.baseBranches());
        TraceCache &cache = runner.traceCache();
        if (cold) {
            Traced t("workloads.synth", parent);
            t.work = static_cast<double>(cache.get(bench.profile, n).size());
        }
        {
            Traced t(cold ? "block_stream.decode" : "trace_cache.stream",
                     parent);
            t.work = static_cast<double>(runner.blockStream(i).branches());
        }
        if (spec.active) {
            {
                Traced t("phase.map", parent);
                t.work = static_cast<double>(
                    cache.phases(bench.profile, n, spec.windowBranches,
                                 spec.maxPhases)
                        .windows.size());
            }
            Traced t("phase.plan", parent);
            runner.samplePlan(i);
        }
    });
    return since(t0);
}

/** An output sink that only counts the bytes written to it. */
class CountingBuf : public std::streambuf
{
  public:
    uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<uint64_t>(n);
        return n;
    }
};

/** Serialized (.ev8s) bytes per conditional branch over the suite. */
double
streamBytesPerBranch(SuiteRunner &runner)
{
    CountingBuf counter;
    std::ostream out(&counter);
    double branches = 0.0;
    for (size_t i = 0; i < runner.size(); ++i) {
        const BlockStream &stream = runner.blockStream(i);
        writeBlockStream(out, stream);
        branches += static_cast<double>(stream.branches());
    }
    return static_cast<double>(counter.bytes) / branches;
}

/** Rate in millions per second; 0 when the layer did not run. */
double
mrate(double work, double seconds)
{
    return seconds > 0.0 ? work / seconds / 1e6 : 0.0;
}

/** Set-up layers: synthesis, decode, stream cache, phase maps/plans. */
void
setupMetrics(SuiteRunner &runner, Metrics &m)
{
    const double synth = sum(spans.durations("workloads.synth"));
    m["workloads.synth_s"] = synth;
    m["workloads.synth_mbr_s"] =
        mrate(sum(spans.works("workloads.synth")), synth);
    const double decode = sum(spans.durations("block_stream.decode"));
    m["block_stream.decode_s"] = decode;
    m["block_stream.decode_mbr_s"] =
        mrate(sum(spans.works("block_stream.decode")), decode);
    m["block_stream.bytes_per_branch"] = streamBytesPerBranch(runner);

    const TraceCache &cache = runner.traceCache();
    m["trace_cache.stream_load_s"] =
        sum(spans.durations("trace_cache.stream"));
    // A hit is a request answered without decoding (memory or disk).
    const double requests = static_cast<double>(cache.streamRequestCount());
    m["trace_cache.stream_hit_ratio"] = requests > 0
        ? (requests - static_cast<double>(cache.decodedCount())) / requests
        : 0.0;
    m["trace_cache.read_errors"] =
        static_cast<double>(cache.readErrorCount());

    m["phase.map_s"] = sum(spans.durations("phase.map"));
    m["phase.plan_s"] = sum(spans.durations("phase.plan"));
    double simulated = 0.0, total = 0.0, measured = 0.0;
    for (const SuiteRunner::SampledCell &c : runner.sampledCells()) {
        simulated += static_cast<double>(c.info.windowsSimulated);
        total += static_cast<double>(c.info.windowsTotal);
        measured += static_cast<double>(c.info.branchesSimulated);
    }
    m["phase.windows_simulated_ratio"] =
        total > 0 ? simulated / total : 0.0;
    m["phase.measured_mbr"] = measured / 1e6;
}

/**
 * The workload's grid rows over @p registry, as its bench binary builds
 * them: fig5 from the serve grid registry, fig10 from
 * bench_fig10_limits's own table (it is not a registry grid).
 */
std::vector<GridRow>
workloadRows(const std::string &workload, MetricRegistry *registry)
{
    if (workload == "exact-limits") {
        SimConfig ev8 = SimConfig::ev8();
        SimConfig ghist = SimConfig::ghist();
        ev8.metrics = ghist.metrics = registry;
        return {
            {[] { return std::make_unique<Ev8Predictor>(); }, ev8,
             "EV8 (352Kb, constrained)"},
            {[] { return make2BcGskew512K(); }, ghist,
             "2Bc-gskew 4*64K (512Kb)"},
            {[] { return make2BcGskew4M(); }, ghist,
             "2Bc-gskew 4*1M (8Mb)"},
        };
    }
    const GridSpec &grid = *findGrid("fig5");
    SimConfig config = baseConfig(grid);
    config.metrics = registry;
    return buildGridRows(grid, config);
}

/**
 * Exports the grid's results like BenchContext::finish() (JSON + CSV)
 * into the out dir; run.py checks the CSV against its reference.
 */
void
exportResults(const Options &opt, const std::vector<GridRow> &rows,
              const GridOutcome &outcome, const MetricRegistry &registry,
              Metrics &m)
{
    BenchExport data;
    data.experimentId = opt.workload;
    data.title = "ev8_ledger replay";
    data.branchesPerBenchmark = opt.branches;
    for (const Benchmark &b : specint95Suite())
        data.benchmarks.push_back(b.profile.name);
    for (size_t r = 0; r < rows.size(); ++r) {
        BenchRowExport row;
        row.label = rows[r].label;
        row.storageBits = rows[r].factory()->storageBits();
        for (const BenchResult &res : outcome.results[r]) {
            row.columns.push_back(res.bench);
            row.values.push_back(
                res.failed ? std::numeric_limits<double>::quiet_NaN()
                           : res.sim.stats.mispKI());
        }
        row.columns.push_back("amean");
        row.values.push_back(SuiteRunner::averageMispKI(outcome.results[r]));
        data.rows.push_back(std::move(row));
    }
    data.metrics = &registry;

    Traced t("obs.export");
    std::ofstream json(opt.outDir + "/ledger.json");
    writeBenchJson(json, data);
    std::ofstream csv(opt.outDir + "/ledger.csv");
    writeBenchCsv(csv, data);
    json.flush();
    csv.flush();
    if (!json || !csv)
        throw std::runtime_error("cannot write the ledger artifacts");
    t.work = static_cast<double>(static_cast<std::streamoff>(json.tellp())
                                 + static_cast<std::streamoff>(csv.tellp()));
    m["obs.artifact_bytes"] = t.work;
}

/** Engine layer: grid wall, pool use and fused scheduling. */
void
engineMetrics(ExperimentEngine &engine, Metrics &m)
{
    const double wall = static_cast<double>(engine.gridWallNs()) / 1e9;
    const double busy = static_cast<double>(engine.poolBusyNs()) / 1e9;
    const double workers = static_cast<double>(engine.jobs());
    m["experiment.run_grid_s"] = sum(spans.durations("experiment.run_grid"));
    m["experiment.pool_utilization"] =
        wall > 0 ? busy / (workers * wall) : 0.0;
    // Wall the pool was not fully busy: the ragged tail of the grid.
    m["experiment.tail_s"] = std::max(0.0, wall - busy / workers);
    MetricRegistry scheduling;
    engine.publishMetrics(scheduling, "engine");
    m["experiment.fused_jobs"] =
        static_cast<double>(scheduling.counterValue("engine.fused_jobs"));
    m["experiment.cells"] =
        static_cast<double>(scheduling.counterValue("engine.grid_cells"));
}

/** The batch workloads: set-up, one grid run, the export. */
double
runGridWorkload(const Options &opt, Metrics &m, Checks &checks)
{
    const auto t0 = Clock::now();
    SuiteRunner runner(opt.branches, opt.jobs);
    const bool sampled = opt.workload == "paper-sampled";
    if (sampled)
        runner.setSampleSpec(sampleSpecFromEnv());
    prepareStreams(runner, sampled);

    MetricRegistry registry;
    const std::vector<GridRow> rows = workloadRows(opt.workload, &registry);
    GridOutcome outcome;
    {
        Traced t("experiment.run_grid");
        outcome = runner.runGrid(rows);
        t.work = static_cast<double>(
            registry.counterValue("sim.cond_branches"));
    }
    checks.cellsFailed += outcome.failures.size();
    exportResults(opt, rows, outcome, registry, m);
    const double wall = since(t0);

    setupMetrics(runner, m);
    engineMetrics(runner.engine(), m);
    m["obs.export_s"] = sum(spans.durations("obs.export"));
    return wall;
}

/**
 * The serve transport in front of an in-process server, one per client
 * connection: a socketpair whose far end a pump thread reads, answers
 * through handle() and writes back -- what a bench_serve connection
 * thread does. The pump records each handle() as "serve.<op>"; call()
 * records the whole round trip as "serve.rpc.<op>".
 */
class SocketFront
{
  public:
    explicit SocketFront(PredictionServer &server)
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        daemonEnd_ = std::make_unique<serveio::LineChannel>(fds[0]);
        clientEnd_ = std::make_unique<serveio::LineChannel>(
            fds[1], serveio::kMaxReplyLine);
        pump_ = std::thread([this, &server] {
            std::string line;
            while (daemonEnd_->readLine(line) == serveio::LineStatus::Ok) {
                std::string reply;
                {
                    Traced t("serve." + opOf(line));
                    reply = server.handle(line);
                    t.work = static_cast<double>(reply.size());
                }
                if (!daemonEnd_->writeLine(reply))
                    break;
            }
        });
    }

    /** Closing the client end ends the pump's read loop. */
    ~SocketFront()
    {
        clientEnd_.reset();
        pump_.join();
    }

    SocketFront(const SocketFront &) = delete;
    SocketFront &operator=(const SocketFront &) = delete;

    /** One request/reply round trip; throws when the transport fails. */
    std::string
    call(const ServeRequest &req)
    {
        const std::string line = encodeRequest(req);
        Traced t("serve.rpc." + req.op);
        std::string reply;
        if (!clientEnd_->writeLine(line)
            || clientEnd_->readLine(reply) != serveio::LineStatus::Ok)
            throw std::runtime_error("serve transport failed on " + req.op);
        return reply;
    }

  private:
    static std::string
    opOf(const std::string &line)
    {
        try {
            return decodeRequest(line).op;
        } catch (const std::exception &) {
            return "malformed";
        }
    }

    std::unique_ptr<serveio::LineChannel> daemonEnd_;
    std::unique_ptr<serveio::LineChannel> clientEnd_;
    std::thread pump_;
};

ServeRequest
serveRequest(const char *op, const std::string &session)
{
    ServeRequest req;
    req.op = op;
    req.session = session;
    req.grid = "fig8";
    req.timing = false; // --no-timing: never the per-lane timed path
    return req;
}

/** True while a snapshot reply shows a live session not yet done. */
bool
stillRunning(const std::string &reply)
{
    try {
        const JsonValue doc = parseJson(reply);
        const JsonValue *ok = doc.find("ok");
        const JsonValue *state = doc.find("state");
        return ok && ok->boolean
            && !(state && state->isString() && state->text == "done");
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * One session in bench_serve_load's load-mode mix (runLoad): open,
 * start, a snapshot every kPollPeriod until the session is done, then
 * wait. run.py drives the daemon with the same mix. Returns the wait
 * reply.
 */
std::string
pollSession(SocketFront &conn, const std::string &name)
{
    conn.call(serveRequest("open", name));
    conn.call(serveRequest("start", name));
    while (stillRunning(conn.call(serveRequest("snapshot", name))))
        std::this_thread::sleep_for(kPollPeriod);
    return conn.call(serveRequest("wait", name));
}

/** A wait reply's cell records joined by newlines; "" unless clean. */
std::string
waitPayload(const std::string &reply)
{
    try {
        const JsonValue doc = parseJson(reply);
        const JsonValue *ok = doc.find("ok");
        if (!ok || !ok->boolean || !doc.at("failures").items.empty())
            return "";
        std::string out;
        for (const JsonValue &cell : doc.at("cells").items)
            out += cell.text + "\n";
        return out;
    } catch (const std::exception &) {
        return "";
    }
}

/**
 * The process's always-on engine span counts that show the kernel path:
 * "cell", "fused.walk", "fused.demote" and "sim.time.*".
 */
std::map<std::string, uint64_t>
pathSpanCounts()
{
    std::map<std::string, uint64_t> out;
    const auto totals = SpanTracer::global().phaseTotals();
    for (size_t p = 0; p < kSpanPhaseCount; ++p) {
        const std::string name = spanPhaseName(static_cast<SpanPhase>(p));
        if (name == "cell" || name.rfind("fused.", 0) == 0
            || name.rfind("sim.time.", 0) == 0)
            out[name] = totals[p].count;
    }
    return out;
}

/** This process's resident set, in KiB (0 if unreadable). */
double
rssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr);
    return 0.0;
}

/**
 * The served workload: an in-process PredictionServer on the fig8 grid
 * with an in-memory trace cache, as run.py launches bench_serve. Set-up
 * synthesizes and decodes the suite, then runs the cache-filling
 * warm-up session; kServedSessions traced sessions follow one after
 * another on one connection, each in run.py's mix; last, jobs-many
 * concurrent connections show per-session memory. Every session's
 * cells must equal the first's, and every traced session must take the
 * same kernel path (@p sessionSpans, the engine spans of the first).
 * Returns the median traced session turnaround.
 */
double
runServedWorkload(const Options &opt, Metrics &m, Checks &checks,
                  std::map<std::string, uint64_t> &sessionSpans)
{
    PredictionServer server(PredictionServer::defaultLimits(), opt.jobs);
    const std::string prefix = "s" + std::to_string(opt.seed) + "-";

    std::string reference;
    auto finish = [&](const std::string &reply) {
        const std::string payload = waitPayload(reply);
        if (reference.empty())
            reference = payload;
        if (payload.empty() || payload != reference)
            ++checks.servedMismatches;
    };

    prepareStreams(server.runner(), /*cold=*/true);
    size_t from = 0; // first span of the traced sessions
    {
        SocketFront conn(server);
        {
            Traced warm("serve.warmup");
            finish(pollSession(conn, prefix + "warm"));
        }
        from = spans.size();
        for (int k = 0; k < kServedSessions; ++k) {
            std::map<std::string, uint64_t> before = pathSpanCounts();
            {
                Traced session("serve.session");
                finish(pollSession(conn, prefix + std::to_string(k)));
            }
            std::map<std::string, uint64_t> used = pathSpanCounts();
            for (auto &[name, count] : used)
                count -= before[name];
            if (k == 0)
                sessionSpans = used;
            else if (used != sessionSpans)
                ++checks.pathMismatches;
        }
    }
    auto ms = [](double s) { return s * 1e3; };
    m["serve.open_ms"] = ms(median(spans.durations("serve.open", from)));
    m["serve.start_ms"] = ms(median(spans.durations("serve.start", from)));
    m["serve.wait_s"] = median(spans.durations("serve.wait", from));
    m["serve.snapshot_ms"] =
        ms(median(spans.durations("serve.snapshot", from)));
    const std::vector<double> rpc =
        spans.durations("serve.rpc.snapshot", from);
    m["serve.rpc_p50_ms"] = ms(median(rpc));
    m["serve.rpc_p99_ms"] = ms(percentile(rpc, 99));
    // The same op over the socket and in-process: the transport's share.
    m["serve.transport_ms"] = m["serve.rpc_p50_ms"] - m["serve.snapshot_ms"];
    m["serve.reply_bytes"] = median(spans.works("serve.wait", from));
    const double wall = median(spans.durations("serve.session", from));

    // Per-session memory: jobs-many connections with a session each.
    const unsigned concurrent = std::max(1u, opt.jobs);
    const double baseKb = rssKb();
    double peakKb = baseKb;
    std::vector<std::string> replies(concurrent);
    std::atomic<unsigned> done{0};
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < concurrent; ++c) {
        clients.emplace_back([&, c] {
            try {
                SocketFront conn(server);
                replies[c] =
                    pollSession(conn, prefix + "c" + std::to_string(c));
            } catch (const std::exception &) {
                // An empty reply fails the cell check below.
            }
            done.fetch_add(1);
        });
    }
    while (done.load() < concurrent) {
        peakKb = std::max(peakKb, rssKb());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread &t : clients)
        t.join();
    for (const std::string &reply : replies)
        finish(reply);
    m["serve.rss_per_session_mb"] = (peakKb - baseKb) / 1024.0 / concurrent;

    setupMetrics(server.runner(), m);
    const JsonValue stats = parseJson(server.handle("{\"op\":\"stats\"}"));
    m["serve.busy_refusals"] = stats.at("sessions_shed").number;

    std::ofstream(opt.outDir + "/served-cells.txt") << reference;
    return wall;
}

/** One kernel micro: a predictor type and the history it needs. */
struct Micro
{
    std::string name;
    PredictorFactory make;
    SimConfig config;
};

/**
 * Kernel micros over one fixed stream (gcc, the largest static
 * footprint), in rounds repeated until @p seconds elapse (at least one
 * round): fused walks per predictor x SIMD backend x lane count, and
 * per-cell walks of predictors the fused kernel does not take. Every
 * lane of a predictor must agree on every backend and lane count.
 */
void
runKernelMicros(double seconds, Metrics &m, Checks &checks)
{
    TraceCache memory("");
    const BlockStream &stream =
        memory.stream(findBenchmark("gcc").profile, kMicroBranches);
    const double branches = static_cast<double>(stream.branches());
    const bool avx2 = simd::builtWithAvx2() && simd::cpuHasAvx2();

    SimConfig generic = SimConfig::ghist();
    generic.forceGenericKernel = true;
    const std::vector<Micro> fused = {
        {"gshare", [] { return makeGshare2M(); }, SimConfig::ghist()},
        {"bimodal", [] { return makePredictor("bimodal:16"); },
         SimConfig::ghist()},
        {"2bcgskew512k", [] { return make2BcGskew512K(); },
         SimConfig::ghist()},
        {"2bcgskew8m", [] { return make2BcGskew4M(); }, SimConfig::ghist()},
    };
    const std::vector<Micro> percell = {
        {"ev8", [] { return std::make_unique<Ev8Predictor>(); },
         SimConfig::ev8()},
        {"yags576k", [] { return makeYags576K(); }, SimConfig::ghist()},
        {"bimode544k", [] { return makeBimode544K(); }, SimConfig::ghist()},
        {"perceptron", [] { return makePredictor("perceptron:10:32"); },
         SimConfig::ghist()},
        {"2bcgskew512k-generic", [] { return make2BcGskew512K(); }, generic},
    };
    // Backend name -> EV8_SIMD value.
    const std::vector<std::pair<std::string, const char *>> backends = {
        {"avx2", "avx2"}, {"scalar", "scalar"}, {"off", "0"}};

    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, uint64_t> misses;
    auto agree = [&](const std::string &p, uint64_t v) {
        const auto [it, fresh] = misses.emplace(p, v);
        if (!fresh && it->second != v)
            ++checks.kernelMismatches;
    };

    const auto t0 = Clock::now();
    do {
        for (const Micro &p : fused) {
            for (const auto &[backend, env] : backends) {
                if (backend == "avx2" && !avx2)
                    continue; // run.py reports the row as n/a
                ::setenv("EV8_SIMD", env, 1);
                for (size_t lanes : {1, 4, 16}) {
                    std::vector<PredictorPtr> preds;
                    std::vector<FusedLane> ls;
                    for (size_t l = 0; l < lanes; ++l) {
                        preds.push_back(p.make());
                        ls.push_back({preds.back().get(), nullptr, nullptr});
                    }
                    const std::string name = "kernel.ns_per_lane_branch."
                        + p.name + "." + backend + ".l"
                        + std::to_string(lanes);
                    Traced t(name);
                    const auto w0 = Clock::now();
                    const std::vector<SimResult> r =
                        simulateStreamFused(stream, ls, p.config);
                    samples[name].push_back(since(w0) * 1e9
                                            / (branches * double(lanes)));
                    for (const SimResult &x : r)
                        agree(p.name, x.stats.mispredictions());
                }
            }
        }
        ::unsetenv("EV8_SIMD");
        for (const Micro &p : percell) {
            PredictorPtr pred = p.make();
            const std::string name = "kernel.ns_per_branch.percell." + p.name;
            Traced t(name);
            const auto w0 = Clock::now();
            const SimResult r = simulateStream(stream, *pred, p.config);
            samples[name].push_back(since(w0) * 1e9 / branches);
            agree(p.name, r.stats.mispredictions());
        }
    } while (since(t0) < seconds);

    for (const auto &[name, v] : samples)
        m[name] = median(v);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (opt.cacheDir.empty())
        ::unsetenv("EV8_TRACE_CACHE_DIR");
    else
        ::setenv("EV8_TRACE_CACHE_DIR", opt.cacheDir.c_str(), 1);
    // The server's runner takes its budget from the environment, as
    // bench_serve --branches does.
    ::setenv("EV8_BRANCHES_PER_BENCH", std::to_string(opt.branches).c_str(),
             1);

    try {
        if (opt.setupOnly) {
            spans.recording = false;
            SuiteRunner runner(opt.branches, opt.jobs);
            const bool sampled = opt.workload == "paper-sampled";
            if (sampled)
                runner.setSampleSpec(sampleSpecFromEnv());
            std::printf("{\"setup_s\": %.9f}\n",
                        prepareStreams(runner, sampled));
            return 0;
        }

        Metrics m;
        Checks checks;
        std::map<std::string, uint64_t> sessionSpans;
        const auto t0 = Clock::now();
        const double wall = opt.workload == "served"
            ? runServedWorkload(opt, m, checks, sessionSpans)
            : runGridWorkload(opt, m, checks);
        runKernelMicros(opt.seconds - since(t0), m, checks);
        spans.write(opt.outDir + "/spans.json");

        JsonWriter w(std::cout);
        w.beginObject();
        w.key("wall_s");
        w.value(wall);
        w.key("backend");
        w.value(simd::backendName(simd::activeBackend()));
        w.key("checks");
        w.beginObject();
        w.key("cells_failed");
        w.value(checks.cellsFailed);
        w.key("kernel_mismatches");
        w.value(checks.kernelMismatches);
        w.key("served_mismatches");
        w.value(checks.servedMismatches);
        w.key("path_mismatches");
        w.value(checks.pathMismatches);
        w.endObject();
        w.key("session_spans");
        w.beginObject();
        for (const auto &[name, count] : sessionSpans) {
            w.key(name);
            w.value(count);
        }
        w.endObject();
        w.key("metrics");
        w.beginObject();
        for (const auto &[name, value] : m) {
            w.key(name);
            w.value(value);
        }
        w.endObject();
        w.endObject();
        std::cout << std::endl;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "ev8_ledger: %s\n", err.what());
        return 1;
    }
    return 0;
}
