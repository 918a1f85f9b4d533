/**
 * @file
 * Serve client: drives a bench_serve daemon (or an in-process
 * PredictionServer) over the ev8-serve-v1 line protocol.
 *
 * Two modes:
 *
 *  - parity (default): open one session on a named grid, wait for the
 *    full result payload, decode it into cell outputs and fold them
 *    through the batch merge (mergeGrid) -- metrics merged and events
 *    replayed in cell-index order, failures recorded as structured
 *    partial results. The --json/--csv/--events artifacts are
 *    byte-identical (telemetry masked) to the batch binary for the
 *    same grid; CI's serve gate compares them.
 *  - load (--sessions=<N>): open N sessions concurrently, poll
 *    snapshots while they run, and report aggregate throughput plus
 *    p50/p95/p99 RPC latency. The artifact rows carry the numbers.
 *
 * `--connect=<socket>` talks to a daemon over AF_UNIX and
 * `--connect-tcp=<host:port>` over TCP; without either the client
 * embeds its own PredictionServer, which is the loopback used by tests
 * (the same request and reply lines, no socket). The artifacts are
 * byte-identical across all three.
 *
 * Hostile-network behavior: connects retry with bounded exponential
 * backoff (the EV8_RETRY_MAX / EV8_RETRY_BASE_MS envelope the cell
 * executor already obeys); a typed busy refusal is retried after the
 * server's retry_after_ms hint, up to EV8_RETRY_MAX times; a draining
 * refusal is terminal ("go elsewhere"); and `--timeout=<ms>` puts an
 * overall deadline on the run, enforced at every socket read.
 *
 * Exit codes: 0 clean, 2 bad usage/env, 3 the served session reported
 * cell failures (artifacts written, partial), 4 transport or artifact
 * I/O failure mid-run (the connection existed and then broke), 5 the
 * daemon could not be reached at all (connection refused after
 * retries), 6 the --timeout deadline expired, 7 the daemon shed the
 * client (busy past retries, or draining). In load mode, when workers
 * fail in different classes the highest-numbered class wins.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "obs/json.hh"
#include "serve/grids.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/cell_executor.hh"
#include "sim/checkpoint.hh"

using namespace ev8;

namespace
{

// This binary's exit-code extensions past the shared bench table:
// refused / timed out / shed are operationally different failures (is
// the daemon down, is the network slow, or is it overloaded?) and
// scripts branch on them.
constexpr int kExitRefused = 5; //!< could not connect at all
constexpr int kExitTimeout = 6; //!< the --timeout deadline expired
constexpr int kExitShed = 7;    //!< daemon busy past retries / draining

/** Connection could never be established (exit kExitRefused). */
class RefusedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The --timeout deadline expired (exit kExitTimeout). */
class TimeoutError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The daemon shed the client: busy or draining (exit kExitShed). */
class ShedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A typed {"ok":false,"busy":true,...} reply (internal; retried). */
class BusyError : public std::runtime_error
{
  public:
    BusyError(const std::string &what, uint64_t retry_after_ms)
        : std::runtime_error(what), retryAfterMs(retry_after_ms)
    {
    }

    uint64_t retryAfterMs;
};

using Clock = std::chrono::steady_clock;

/** Where the daemon lives; neither field set = in-process loopback. */
struct Endpoint
{
    std::string unixPath;
    std::string tcpHost;
    uint16_t tcpPort = 0;

    bool tcp() const { return !tcpHost.empty(); }
    bool remote() const { return tcp() || !unixPath.empty(); }

    std::string
    describe() const
    {
        return tcp() ? tcpHost + ":" + std::to_string(tcpPort)
                     : unixPath;
    }
};

/** One request/reply lane: in-process handle() or a socket channel. */
class Rpc
{
  public:
    /** In-process lane over @p local (--timeout does not apply). */
    explicit Rpc(PredictionServer &local) : local_(&local) {}

    /**
     * Socket lane. Connects with bounded exponential-backoff retries
     * (EV8_RETRY_MAX attempts, EV8_RETRY_BASE_MS base); throws
     * RefusedError when every attempt fails, TimeoutError when
     * @p deadline (time_point{} = none) expires first.
     */
    Rpc(const Endpoint &endpoint, Clock::time_point deadline)
        : endpoint_(endpoint), deadline_(deadline)
    {
        const unsigned attempts = CellExecutor::retryMax();
        const unsigned baseMs = CellExecutor::retryBaseMs();
        std::string err;
        for (unsigned a = 1;; ++a) {
            const int fd = endpoint_.tcp()
                ? serveio::connectTcp(endpoint_.tcpHost,
                                      endpoint_.tcpPort, err)
                : serveio::connectUnix(endpoint_.unixPath, err);
            if (fd >= 0) {
                channel_ = std::make_unique<serveio::LineChannel>(
                    fd, serveio::kMaxReplyLine);
                return;
            }
            if (a >= attempts) {
                throw RefusedError("cannot connect to "
                                   + endpoint_.describe() + " after "
                                   + std::to_string(attempts)
                                   + " attempt(s): " + err);
            }
            checkDeadline("connect");
            // The cell executor's backoff discipline, reused verbatim:
            // base << (attempt-1), capped at 1 s.
            const uint64_t ms = std::min<uint64_t>(
                uint64_t{baseMs} << (a - 1), 1000);
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        }
    }

    /**
     * Round-trips one request and returns the parsed reply object.
     * Throws std::runtime_error on transport loss and plain
     * {"ok":false,...} errors, BusyError / ShedError on the typed
     * refusals, TimeoutError past the deadline.
     */
    JsonValue
    call(const ServeRequest &req)
    {
        const std::string line = encodeRequest(req);
        std::string reply;
        if (local_) {
            reply = local_->handle(line);
        } else {
            if (!channel_->writeLine(line)) {
                throw std::runtime_error(
                    "server connection lost during '" + req.op + "'");
            }
            const serveio::LineStatus st =
                channel_->readLine(reply, remainingMs());
            if (st == serveio::LineStatus::Timeout) {
                throw TimeoutError("deadline expired waiting for '"
                                   + req.op + "' reply");
            }
            if (st != serveio::LineStatus::Ok) {
                throw std::runtime_error(
                    "server connection lost during '" + req.op + "' ("
                    + serveio::lineStatusName(st) + ")");
            }
        }
        JsonValue doc = parseJson(reply);
        if (!doc.isObject())
            throw std::runtime_error("reply is not a JSON object");
        const JsonValue *ok = doc.find("ok");
        if (!ok || ok->kind != JsonValue::Kind::Bool)
            throw std::runtime_error("reply lacks an 'ok' field");
        if (!ok->boolean) {
            const JsonValue *err = doc.find("error");
            const std::string message = err && err->isString()
                ? err->text
                : std::string("unknown");
            const JsonValue *draining = doc.find("draining");
            if (draining && draining->kind == JsonValue::Kind::Bool
                && draining->boolean) {
                throw ShedError("server is draining: " + message);
            }
            const JsonValue *busy = doc.find("busy");
            if (busy && busy->kind == JsonValue::Kind::Bool
                && busy->boolean) {
                const JsonValue *hint = doc.find("retry_after_ms");
                const uint64_t after = hint && hint->isNumber()
                    ? static_cast<uint64_t>(hint->number)
                    : 250;
                throw BusyError(message, after);
            }
            throw std::runtime_error("server error: " + message);
        }
        return doc;
    }

  private:
    /** Poll budget until the deadline; -1 = no deadline (block). */
    int
    remainingMs() const
    {
        if (deadline_ == Clock::time_point{})
            return -1;
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline_ - Clock::now());
        return left.count() > 0 ? static_cast<int>(left.count()) : 0;
    }

    void
    checkDeadline(const char *what) const
    {
        if (remainingMs() == 0) {
            throw TimeoutError(std::string("deadline expired during ")
                               + what);
        }
    }

    PredictionServer *local_ = nullptr;
    Endpoint endpoint_;
    Clock::time_point deadline_{};
    std::unique_ptr<serveio::LineChannel> channel_;
};

/**
 * An "open" with overload manners: a typed busy refusal is retried
 * after the server's retry_after_ms hint, up to EV8_RETRY_MAX tries,
 * then surfaces as ShedError. Draining refusals pass straight through
 * (Rpc::call already throws ShedError for them).
 */
JsonValue
callAdmitting(Rpc &rpc, const ServeRequest &open)
{
    const unsigned attempts = CellExecutor::retryMax();
    for (unsigned a = 1;; ++a) {
        try {
            return rpc.call(open);
        } catch (const BusyError &busy) {
            if (a >= attempts) {
                throw ShedError("admission refused after "
                                + std::to_string(attempts)
                                + " attempt(s): " + busy.what());
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(busy.retryAfterMs));
        }
    }
}

ServeRequest
sessionOp(const std::string &op, const std::string &session)
{
    ServeRequest req;
    req.op = op;
    req.session = session;
    return req;
}

uint64_t
u64Member(const JsonValue &obj, const char *name)
{
    const JsonValue *v = obj.find(name);
    if (!v || !v->isNumber())
        throw std::runtime_error(std::string("reply field '") + name
                                 + "' is not a number");
    return static_cast<uint64_t>(v->number);
}

/**
 * Decodes one wait reply into the grid's cell outputs, in cell-index
 * order, with each wire failure marked on its cell -- the input
 * mergeGrid() takes on the batch side too.
 */
std::vector<CellOutput>
decodeWaitReply(const GridSpec &grid, const JsonValue &done)
{
    const auto &suite = specint95Suite();
    const size_t nbench = suite.size();
    const size_t n = grid.rows.size() * nbench;

    const JsonValue &cells = done.at("cells");
    const JsonValue &failures = done.at("failures");
    if (!cells.isArray() || cells.items.size() != n)
        throw std::runtime_error("wait reply has wrong cell count");
    if (!failures.isArray())
        throw std::runtime_error("wait reply lacks a failures array");

    std::vector<CellOutput> outputs(n);
    for (const JsonValue &item : cells.items) {
        if (!item.isString())
            throw std::runtime_error("cell record is not a string");
        CellOutput cell;
        const size_t idx = decodeCellRecord(item.text, n, cell);
        outputs[idx] = std::move(cell);
    }
    for (const JsonValue &item : failures.items) {
        CellFailure f = readFailure(item);
        size_t b = 0;
        while (b < nbench && suite[b].profile.name != f.bench)
            ++b;
        if (f.row >= grid.rows.size() || b == nbench)
            throw std::runtime_error("failure record names an unknown "
                                     "cell");
        CellOutput &out = outputs[f.row * nbench + b];
        out.failed = true;
        out.attempts = f.attempts;
        out.error = std::move(f.error);
        out.attemptNs = std::move(f.attemptNs);
    }
    return outputs;
}

void
printServedTable(const GridSpec &grid,
                 const std::vector<std::vector<BenchResult>> &all)
{
    if (benchQuiet())
        return;
    TextTable table;
    std::vector<std::string> header{"configuration"};
    for (const Benchmark &b : specint95Suite())
        header.push_back(b.profile.name);
    header.push_back("amean");
    table.header(std::move(header));
    char buf[32];
    for (size_t r = 0; r < all.size(); ++r) {
        std::vector<std::string> cells{grid.rows[r].label};
        for (const BenchResult &res : all[r]) {
            if (res.failed) {
                cells.push_back("!!");
            } else {
                std::snprintf(buf, sizeof buf, "%.2f",
                              res.sim.stats.mispKI());
                cells.push_back(buf);
            }
        }
        std::snprintf(buf, sizeof buf, "%.3f",
                      SuiteRunner::averageMispKI(all[r]));
        cells.push_back(buf);
        table.row(std::move(cells));
    }
    std::printf("served misp/KI (merged from the wire payload):\n\n%s\n",
                table.render().c_str());
}

/** One session opened, started, waited on, and merged into @p ctx. */
int
runParity(BenchContext &ctx, const GridSpec &grid, Rpc &rpc,
          const std::string &session)
{
    ServeRequest open = sessionOp("open", session);
    open.grid = grid.id;
    open.wantEvents = ctx.eventSink() != nullptr;
    open.wantMetrics = true;
    callAdmitting(rpc, open);
    rpc.call(sessionOp("start", session));

    if (ctx.args().progress) {
        for (;;) {
            const JsonValue snap =
                rpc.call(sessionOp("snapshot", session));
            const uint64_t total = u64Member(snap, "cells_total");
            const uint64_t doneCells = u64Member(snap, "cells_done");
            std::fprintf(stderr, "\r%s: %llu/%llu cells",
                         session.c_str(),
                         static_cast<unsigned long long>(doneCells),
                         static_cast<unsigned long long>(total));
            const JsonValue *state = snap.find("state");
            if (state && state->isString() && state->text == "done")
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
        std::fputc('\n', stderr);
    }

    // The batch merge over the decoded reply, into this client's sinks.
    const JsonValue done = rpc.call(sessionOp("wait", session));
    const GridOutcome outcome =
        mergeGrid(decodeWaitReply(grid, done),
                  buildGridRows(grid, ctx.instrument(baseConfig(grid))),
                  specint95Suite().size());
    for (const CellFailure &f : outcome.failures) {
        BenchFailureExport e;
        e.rowLabel = f.rowLabel;
        e.bench = f.bench;
        e.attempts = f.attempts;
        e.error = f.error;
        e.attemptNs = f.attemptNs;
        ctx.recordFailure(std::move(e));
    }
    const std::vector<uint64_t> storage = gridStorageBits(grid);
    for (size_t r = 0; r < grid.rows.size(); ++r) {
        ctx.recordResults(grid.rows[r].label, storage[r],
                          outcome.results[r]);
    }
    printServedTable(grid, outcome.results);
    return ctx.finish();
}

/** Per-session tallies of one load-mode worker. */
struct LoadResult
{
    double wallMs = 0.0;
    uint64_t branches = 0;
    uint64_t failedCells = 0;
    std::vector<double> rpcMs;
    std::string error;  //!< non-empty when the worker died
    int errorExit = 0;  //!< the exit class of that death
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p / 100.0 * static_cast<double>(sorted.size());
    size_t idx = static_cast<size_t>(std::ceil(rank));
    idx = std::min(std::max<size_t>(idx, 1), sorted.size()) - 1;
    return sorted[idx];
}

/**
 * Load mode: @p nsessions concurrent sessions, each on its own RPC
 * lane (its own socket connection against a daemon), snapshot-polled
 * while running. Reports throughput and RPC latency percentiles both
 * as artifact rows and on stdout.
 */
int
runLoad(BenchContext &ctx, const GridSpec &grid, size_t nsessions,
        const Endpoint &endpoint, PredictionServer *local,
        const std::string &sessionBase, Clock::time_point deadline)
{
    const auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };

    std::vector<LoadResult> results(nsessions);
    const auto worker = [&](size_t k) {
        LoadResult &out = results[k];
        const std::string session =
            sessionBase + "." + std::to_string(k + 1);
        try {
            std::unique_ptr<Rpc> rpc = local
                ? std::make_unique<Rpc>(*local)
                : std::make_unique<Rpc>(endpoint, deadline);
            const auto timed = [&](const ServeRequest &req) {
                const auto t0 = Clock::now();
                JsonValue reply = rpc->call(req);
                out.rpcMs.push_back(ms(Clock::now() - t0));
                return reply;
            };

            const auto start = Clock::now();
            ServeRequest open = sessionOp("open", session);
            open.grid = grid.id;
            open.wantEvents = false;
            open.wantMetrics = true;
            {
                const auto t0 = Clock::now();
                callAdmitting(*rpc, open);
                out.rpcMs.push_back(ms(Clock::now() - t0));
            }
            timed(sessionOp("start", session));
            for (;;) {
                const JsonValue snap =
                    timed(sessionOp("snapshot", session));
                const JsonValue *state = snap.find("state");
                if (state && state->isString()
                    && state->text == "done")
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            const JsonValue done = timed(sessionOp("wait", session));
            out.wallMs = ms(Clock::now() - start);

            const JsonValue &cells = done.at("cells");
            const size_t n = cells.items.size();
            for (const JsonValue &item : cells.items) {
                CellOutput cell;
                decodeCellRecord(item.text, n, cell);
                out.branches += cell.result.sim.condBranches;
            }
            out.failedCells = done.at("failures").items.size();
        } catch (const RefusedError &err) {
            out.error = err.what();
            out.errorExit = kExitRefused;
        } catch (const TimeoutError &err) {
            out.error = err.what();
            out.errorExit = kExitTimeout;
        } catch (const ShedError &err) {
            out.error = err.what();
            out.errorExit = kExitShed;
        } catch (const std::exception &err) {
            out.error = err.what();
            out.errorExit = kExitFatal;
        }
    };

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(nsessions);
    for (size_t k = 0; k < nsessions; ++k)
        threads.emplace_back(worker, k);
    for (std::thread &t : threads)
        t.join();
    const double wallMs = ms(Clock::now() - t0);

    uint64_t branches = 0;
    uint64_t failedCells = 0;
    size_t errors = 0;
    int errorExit = 0;
    std::vector<double> rpc;
    for (size_t k = 0; k < nsessions; ++k) {
        const LoadResult &r = results[k];
        if (!r.error.empty()) {
            ++errors;
            errorExit = std::max(errorExit, r.errorExit);
            std::fprintf(stderr, "bench_serve_load: session %zu: %s\n",
                         k + 1, r.error.c_str());
            continue;
        }
        branches += r.branches;
        failedCells += r.failedCells;
        rpc.insert(rpc.end(), r.rpcMs.begin(), r.rpcMs.end());
        ctx.recordRow(sessionBase + "." + std::to_string(k + 1), 0,
                      {"wall_ms", "branches", "failed_cells"},
                      {r.wallMs, static_cast<double>(r.branches),
                       static_cast<double>(r.failedCells)});
    }
    std::sort(rpc.begin(), rpc.end());
    const double p50 = percentile(rpc, 50.0);
    const double p95 = percentile(rpc, 95.0);
    const double p99 = percentile(rpc, 99.0);
    const double mbrs =
        wallMs > 0.0 ? static_cast<double>(branches) / (wallMs * 1e3)
                     : 0.0;
    ctx.recordRow("load", 0,
                  {"sessions", "wall_ms", "branches", "mbranch_per_s",
                   "rpc_p50_ms", "rpc_p95_ms", "rpc_p99_ms",
                   "failed_cells"},
                  {static_cast<double>(nsessions), wallMs,
                   static_cast<double>(branches), mbrs, p50, p95, p99,
                   static_cast<double>(failedCells)});

    if (!benchQuiet()) {
        std::printf("load: %zu session(s), %.0f ms wall, %llu branches "
                    "(%.2f Mbr/s)\n",
                    nsessions, wallMs,
                    static_cast<unsigned long long>(branches), mbrs);
        std::printf("rpc latency over %zu calls: p50 %.3f ms, "
                    "p95 %.3f ms, p99 %.3f ms\n\n",
                    rpc.size(), p50, p95, p99);
    }

    const int artifacts = ctx.finish();
    if (errors > 0)
        return errorExit != 0 ? errorExit : kExitFatal;
    if (artifacts != kExitOk)
        return artifacts;
    return failedCells == 0 ? kExitOk : kExitPartial;
}

} // namespace

int
main(int argc, char **argv)
{
    // The grid decides the banner/artifact identity, so resolve it
    // before BenchContext parses (and may already act on) the argv.
    std::string gridId = "fig5";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--grid=", 7) == 0)
            gridId = argv[i] + 7;
    }
    const GridSpec *grid = findGrid(gridId);
    if (!grid) {
        std::fprintf(stderr, "bench_serve_load: unknown grid '%s' "
                             "(known:",
                     gridId.c_str());
        for (const std::string &id : knownGrids())
            std::fprintf(stderr, " %s", id.c_str());
        std::fprintf(stderr, ")\n");
        return kExitUsage;
    }

    Endpoint endpoint;
    std::string connectTcp;
    std::string sessionName = "s1";
    std::string sessionsArg;
    std::string timeoutArg;
    const BenchOptionHandler extra = [&](const char *arg) {
        const auto value = [&](const char *opt) -> const char * {
            const size_t len = std::strlen(opt);
            if (std::strncmp(arg, opt, len) == 0 && arg[len] == '=')
                return arg + len + 1;
            return nullptr;
        };
        if (value("--grid"))
            return true; // pre-scanned above
        if (const char *v = value("--connect-tcp")) {
            connectTcp = v;
            return true;
        }
        if (const char *v = value("--connect")) {
            endpoint.unixPath = v;
            return true;
        }
        if (const char *v = value("--session")) {
            sessionName = v;
            return true;
        }
        if (const char *v = value("--sessions")) {
            sessionsArg = v;
            return true;
        }
        if (const char *v = value("--timeout")) {
            timeoutArg = v;
            return true;
        }
        return false;
    };

    BenchContext ctx(
        argc, argv, grid->benchId, grid->title, extra,
        "  --grid=<id>        named grid to serve (default: fig5)\n"
        "  --connect=<path>   bench_serve AF_UNIX socket (default:\n"
        "                     embed an in-process server)\n"
        "  --connect-tcp=<host:port>\n"
        "                     bench_serve TCP endpoint\n"
        "  --session=<name>   session name / load-mode name prefix\n"
        "                     (default: s1)\n"
        "  --sessions=<N>     load mode: N concurrent sessions with\n"
        "                     RPC latency percentiles\n"
        "  --timeout=<ms>     overall deadline for socket modes\n"
        "                     (default 0 = none); expiry exits 6\n");

    if (!connectTcp.empty()) {
        if (!endpoint.unixPath.empty()) {
            std::fprintf(stderr,
                         "bench_serve_load: --connect and "
                         "--connect-tcp are mutually exclusive\n");
            return kExitUsage;
        }
        std::string err;
        if (!serveio::parseHostPort(connectTcp, endpoint.tcpHost,
                                    endpoint.tcpPort, err)) {
            std::fprintf(stderr,
                         "bench_serve_load: bad --connect-tcp value: "
                         "%s\n",
                         err.c_str());
            return kExitUsage;
        }
    }

    Clock::time_point deadline{};
    if (!timeoutArg.empty()) {
        try {
            const uint64_t ms =
                parseStrictU64(timeoutArg, 0, 86400000);
            if (ms > 0)
                deadline = Clock::now() + std::chrono::milliseconds(ms);
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "bench_serve_load: bad value for --timeout: "
                         "%s\n",
                         err.what());
            return kExitUsage;
        }
    }

    size_t nsessions = 0;
    if (!sessionsArg.empty()) {
        try {
            nsessions =
                static_cast<size_t>(parseStrictU64(sessionsArg, 1, 256));
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "bench_serve_load: bad value for --sessions: "
                         "%s\n",
                         err.what());
            return kExitUsage;
        }
    }

    std::unique_ptr<PredictionServer> local;
    if (!endpoint.remote()) {
        ServeLimits limits = PredictionServer::defaultLimits();
        limits.maxSessions = std::max(limits.maxSessions,
                                      std::max<size_t>(nsessions, 1));
        local = std::make_unique<PredictionServer>(limits,
                                                   ctx.args().jobs);
    }

    try {
        if (nsessions > 0) {
            return runLoad(ctx, *grid, nsessions, endpoint, local.get(),
                           sessionName, deadline);
        }
        Rpc rpc = local ? Rpc(*local) : Rpc(endpoint, deadline);
        return runParity(ctx, *grid, rpc, sessionName);
    } catch (const RefusedError &err) {
        std::fprintf(stderr,
                     "bench_serve_load: connection refused: %s\n",
                     err.what());
        return kExitRefused;
    } catch (const TimeoutError &err) {
        std::fprintf(stderr, "bench_serve_load: timed out: %s\n",
                     err.what());
        return kExitTimeout;
    } catch (const ShedError &err) {
        std::fprintf(stderr, "bench_serve_load: shed by server: %s\n",
                     err.what());
        return kExitShed;
    } catch (const std::exception &err) {
        std::fprintf(stderr, "bench_serve_load: %s\n", err.what());
        return kExitFatal;
    }
}
