/**
 * @file
 * Prediction-as-a-service daemon: the experiment engine behind a
 * streaming protocol (serve/protocol.hh, schema ev8-serve-v1).
 *
 * Three transports share one PredictionServer:
 *
 *  - `--socket=<path>`: listen on an AF_UNIX stream socket.
 *  - `--tcp=<host:port>`: listen on a TCP socket (port 0 binds an
 *    ephemeral port; `--port-file` writes the bound port for scripts).
 *    May be combined with `--socket` -- both listeners feed the same
 *    accept loop and the same server, and the wire bytes are
 *    identical, so artifacts cannot depend on the transport.
 *  - neither: stdio loopback -- requests on stdin, one reply per line
 *    on stdout, until EOF or shutdown. Combine with `--quiet` so the
 *    human banner does not interleave with protocol output.
 *
 * Each accepted connection gets its own thread, so N clients can open,
 * start and wait on sessions concurrently. Each session runs on its
 * own thread over the server's shared cached BlockStreams, grouped and
 * executed exactly as a batch grid (serve/server.hh). The accept loop
 * exits after a client sends {"op":"shutdown"} -- or on SIGTERM/SIGINT,
 * which triggers a graceful drain: no new sessions are admitted
 * (typed "draining" refusals), in-flight sessions finish inside
 * EV8_SERVE_DRAIN_MS (default 5000; stragglers past the deadline are
 * force-expired with structured failure records), and the process
 * exits by the usual fate table below -- 0 when everything served
 * cleanly, 3 when any cell failed (including drain force-expiry).
 *
 * Hostile peers are survivable by construction: request lines are
 * bounded (1 MiB) and NUL-free or the connection gets a typed error
 * reply and is closed; with EV8_SERVE_IDLE_TIMEOUT_MS armed, vanished
 * clients' connections and session leases are reclaimed on the
 * EV8_SERVE_HEARTBEAT_MS cadence.
 *
 * The uniform bench surface applies: `--trace-out` captures the
 * serve.accept / serve.session_run / serve.snapshot phases (and the
 * sessions' cell and fused.walk spans) on the Perfetto timeline,
 * `--jobs` caps cell groups in flight across every session (a lone
 * session fans out over all workers), and `--json`/`--csv`
 * write the (row-less) harness artifact with the usual telemetry block.
 *
 * Exit codes (the shared bench table):
 *
 *     0  clean shutdown/drain, every served cell completed
 *     2  bad command line or environment knob
 *     3  served sessions recorded cell failures (partial results were
 *        delivered to their clients, or a drain/lease expiry failed
 *        abandoned cells)
 *     4  fatal transport error (socket bind/accept, artifact I/O)
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "bench_common.hh"
#include "common/env.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"
#include "serve/transport.hh"

using namespace ev8;

namespace
{

volatile std::sig_atomic_t g_stop = 0;

void
onStopSignal(int)
{
    g_stop = 1;
}

int
runStdioLoopback(PredictionServer &server)
{
    std::string line;
    while (std::getline(std::cin, line)) {
        std::fputs(server.handle(line).c_str(), stdout);
        std::fputc('\n', stdout);
        std::fflush(stdout);
        if (server.shutdownRequested())
            break;
    }
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socketPath;
    std::string tcpSpec;
    std::string portFile;
    std::string maxSessions;
    const BenchOptionHandler extra = [&](const char *arg) {
        const auto value = [&](const char *opt) -> const char * {
            const size_t len = std::strlen(opt);
            if (std::strncmp(arg, opt, len) == 0 && arg[len] == '=')
                return arg + len + 1;
            return nullptr;
        };
        if (const char *v = value("--socket")) {
            socketPath = v;
            return true;
        }
        if (const char *v = value("--tcp")) {
            tcpSpec = v;
            return true;
        }
        if (const char *v = value("--port-file")) {
            portFile = v;
            return true;
        }
        if (const char *v = value("--max-sessions")) {
            maxSessions = v;
            return true;
        }
        return false;
    };

    BenchContext ctx(
        argc, argv, "Serve", "Prediction-as-a-service daemon", extra,
        "  --socket=<path>    listen on an AF_UNIX socket (default:\n"
        "                     stdio loopback; use with --quiet)\n"
        "  --tcp=<host:port>  listen on a TCP socket (port 0 = pick an\n"
        "                     ephemeral port); combinable with --socket\n"
        "  --port-file=<path> write the bound TCP port, for scripts\n"
        "                     that passed --tcp with port 0\n"
        "  --max-sessions=<N> admission limit, overrides\n"
        "                     EV8_SERVE_MAX_SESSIONS\n");

    ServeLimits limits = PredictionServer::defaultLimits();
    if (!maxSessions.empty()) {
        try {
            limits.maxSessions = static_cast<size_t>(
                parseStrictU64(maxSessions, 1, 256));
        } catch (const std::exception &err) {
            std::fprintf(stderr,
                         "bench_serve: bad value for --max-sessions: "
                         "%s\n",
                         err.what());
            return kExitUsage;
        }
    }

    DaemonOptions opts;
    opts.unixPath = socketPath;
    opts.drainMs = strictEnvU64("EV8_SERVE_DRAIN_MS", 0, 600000, 5000);
    opts.stopFlag = &g_stop;
    if (!tcpSpec.empty()) {
        std::string err;
        if (!serveio::parseHostPort(tcpSpec, opts.tcpHost, opts.tcpPort,
                                    err)) {
            std::fprintf(stderr, "bench_serve: bad --tcp value: %s\n",
                         err.c_str());
            return kExitUsage;
        }
    }

    PredictionServer server(limits, ctx.args().jobs);

    int fate = kExitOk;
    if (socketPath.empty() && tcpSpec.empty()) {
        fate = runStdioLoopback(server);
    } else {
        ServeDaemon daemon(server, opts);
        std::string err;
        if (!daemon.listen(err)) {
            std::fprintf(stderr, "bench_serve: %s\n", err.c_str());
            return kExitFatal;
        }
        if (!portFile.empty()) {
            FILE *f = std::fopen(portFile.c_str(), "w");
            if (!f) {
                std::fprintf(stderr,
                             "bench_serve: cannot write %s: %s\n",
                             portFile.c_str(), std::strerror(errno));
                return kExitFatal;
            }
            std::fprintf(f, "%u\n", unsigned{daemon.boundTcpPort()});
            std::fclose(f);
        }
        if (!benchQuiet()) {
            if (!socketPath.empty())
                std::fprintf(stderr, "listening on %s\n",
                             socketPath.c_str());
            if (!tcpSpec.empty())
                std::fprintf(stderr, "listening on %s:%u\n",
                             opts.tcpHost.c_str(),
                             unsigned{daemon.boundTcpPort()});
        }

        // Graceful drain on the conventional daemon stop signals. The
        // handler only sets a flag; the accept loop notices within one
        // poll tick.
        std::signal(SIGTERM, onStopSignal);
        std::signal(SIGINT, onStopSignal);

        if (!daemon.run()) {
            std::fprintf(stderr, "bench_serve: accept failed\n");
            fate = kExitFatal;
        }
        if (g_stop && !benchQuiet()) {
            std::fprintf(stderr, "drained on signal (%s)\n",
                         daemon.drainedClean()
                             ? "all sessions finished"
                             : "stragglers force-expired");
        }
    }

    const uint64_t failed = server.failedCellsTotal();
    if (!benchQuiet()) {
        std::fprintf(stderr,
                     "serve done: %llu failed cell(s) across sessions\n",
                     static_cast<unsigned long long>(failed));
    }

    const int artifacts = ctx.finish();
    if (fate != kExitOk)
        return fate;
    if (artifacts != kExitOk)
        return artifacts;
    return failed == 0 ? kExitOk : kExitPartial;
}
