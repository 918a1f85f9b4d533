/**
 * @file
 * Live-daemon tests (serve/daemon.hh): a real ServeDaemon accepting on
 * an AF_UNIX socket, exercised by real client connections -- the layer
 * the in-process test_serve.cc handle() tests cannot reach.
 *
 * The hostile-network contract under test:
 *
 *  - malformed request lines (garbage JSON, overlong, embedded NUL)
 *    get a typed error reply; framing violations close the connection;
 *    sibling connections never notice;
 *  - a connection that never completes a request is closed once the
 *    idle timeout lapses (the handshake timeout);
 *  - a client that vanishes mid-session loses its lease: the session
 *    is expired and reclaimed, surfaced in stats, while a sibling
 *    session's results are untouched;
 *  - an injected conn_drop vanishes a reply after the work was done --
 *    the worst case for a client -- without wedging the server;
 *  - an external stop request (the SIGTERM path) drains: new opens get
 *    a typed "draining" refusal while in-flight sessions finish.
 */

#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "obs/json.hh"
#include "serve/daemon.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/checkpoint.hh"

#include "scoped_env.hh"
#include "temp_path.hh"

namespace ev8
{
namespace
{

constexpr const char *kTinyScale = "3000";

/** The external stop flag; onStopSignal is its only writer. */
volatile std::sig_atomic_t g_stopSignal = 0;

void
onStopSignal(int)
{
    g_stopSignal = 1;
}

/** A ServeDaemon running on a test-unique AF_UNIX socket. */
class LiveDaemon
{
  public:
    explicit LiveDaemon(ServeLimits limits, uint64_t drain_ms = 5000,
                        const volatile std::sig_atomic_t *stop = nullptr)
        : server_(limits, /*jobs=*/2)
    {
        path_ = uniqueTempPath("ev8_daemon", ".sock");
        DaemonOptions opts;
        opts.unixPath = path_;
        opts.drainMs = drain_ms;
        opts.pollMs = 25; // fast ticks keep the tests snappy
        opts.stopFlag = stop;
        daemon_ = std::make_unique<ServeDaemon>(server_, opts);
        std::string err;
        EXPECT_TRUE(daemon_->listen(err)) << err;
        runner_ = std::thread([this] { (void)daemon_->run(); });
    }

    ~LiveDaemon()
    {
        if (runner_.joinable()) {
            // Belt and braces: a test that forgot to stop the daemon
            // still tears down (shutdown is idempotent).
            server_.handle("{\"op\":\"shutdown\"}");
            runner_.join();
        }
        std::remove(path_.c_str());
    }

    const std::string &path() const { return path_; }
    PredictionServer &server() { return server_; }
    ServeDaemon &daemon() { return *daemon_; }

    void join()
    {
        runner_.join();
    }

    /**
     * Delivers @p signo to the thread running the daemon loop, as in
     * bench_serve, whose main thread both runs the loop and takes the
     * stop signals.
     */
    void signal(int signo)
    {
        EXPECT_EQ(::pthread_kill(runner_.native_handle(), signo), 0);
    }

  private:
    PredictionServer server_;
    std::string path_;
    std::unique_ptr<ServeDaemon> daemon_;
    std::thread runner_;
};

/** One protocol client connection over the daemon's socket. */
class Client
{
  public:
    explicit Client(const LiveDaemon &daemon)
    {
        std::string err;
        const int fd = serveio::connectUnix(daemon.path(), err);
        EXPECT_GE(fd, 0) << err;
        channel_ = std::make_unique<serveio::LineChannel>(
            fd, serveio::kMaxReplyLine);
    }

    serveio::LineChannel &channel() { return *channel_; }

    /** Round trip: one request line, one parsed reply. */
    JsonValue call(const std::string &request, int timeout_ms = 30000)
    {
        EXPECT_TRUE(channel_->writeLine(request));
        std::string reply;
        const serveio::LineStatus st =
            channel_->readLine(reply, timeout_ms);
        EXPECT_EQ(st, serveio::LineStatus::Ok)
            << serveio::lineStatusName(st) << " for " << request;
        JsonValue doc = parseJson(reply);
        EXPECT_TRUE(doc.isObject()) << reply;
        return doc;
    }

    JsonValue callOk(const std::string &request, int timeout_ms = 30000)
    {
        JsonValue doc = call(request, timeout_ms);
        const JsonValue *ok = doc.find("ok");
        EXPECT_TRUE(ok && ok->boolean) << request;
        return doc;
    }

    /** Hard-closes the socket: the peer simply vanishes. */
    void vanish() { channel_.reset(); }

  private:
    std::unique_ptr<serveio::LineChannel> channel_;
};

std::string
openLine(const std::string &session)
{
    return "{\"op\":\"open\",\"session\":\"" + session
        + "\",\"grid\":\"fig5\"}";
}

std::string
opLine(const std::string &op, const std::string &session)
{
    return "{\"op\":\"" + op + "\",\"session\":\"" + session + "\"}";
}

/** Sums mispredictions across a wait reply's cells (parity digest). */
uint64_t
waitDigest(const JsonValue &done)
{
    const JsonValue &cells = done.at("cells");
    EXPECT_FALSE(cells.items.empty());
    uint64_t digest = 0;
    for (const JsonValue &item : cells.items) {
        GridCheckpoint::RestoredCell cell;
        decodeCellRecord(item.text, cells.items.size(), cell);
        digest += cell.result.sim.stats.mispredictions();
    }
    return digest;
}

TEST(Daemon, MalformedLinesGetTypedErrorsWithoutCollateral)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    LiveDaemon live(ServeLimits{});

    // Garbage JSON: typed error, connection stays usable.
    {
        Client c(live);
        const JsonValue bad = c.call("this is not json");
        EXPECT_FALSE(bad.at("ok").boolean);
        EXPECT_FALSE(bad.at("error").text.empty());
        c.callOk("{\"op\":\"stats\"}"); // same connection still serves
    }

    // Embedded NUL: typed error, then the connection is closed.
    {
        Client c(live);
        std::string evil = "{\"op\":\"ping\"}";
        evil[3] = '\0';
        ASSERT_TRUE(c.channel().writeLine(evil));
        std::string reply;
        ASSERT_EQ(c.channel().readLine(reply, 5000),
                  serveio::LineStatus::Ok);
        const JsonValue doc = parseJson(reply);
        EXPECT_FALSE(doc.at("ok").boolean);
        EXPECT_NE(doc.at("error").text.find("NUL"), std::string::npos);
        EXPECT_EQ(c.channel().readLine(reply, 5000),
                  serveio::LineStatus::Eof);
    }

    // Overlong line: typed error naming the bound, then closed.
    {
        Client c(live);
        const std::string flood(serveio::kMaxRequestLine + 16, 'x');
        ASSERT_TRUE(c.channel().writeLine(flood));
        std::string reply;
        ASSERT_EQ(c.channel().readLine(reply, 5000),
                  serveio::LineStatus::Ok);
        const JsonValue doc = parseJson(reply);
        EXPECT_FALSE(doc.at("ok").boolean);
        EXPECT_NE(doc.at("error").text.find("exceeds"),
                  std::string::npos);
        EXPECT_EQ(c.channel().readLine(reply, 5000),
                  serveio::LineStatus::Eof);
    }

    // None of the abuse above harmed the server: a full session still
    // serves cleanly on a fresh connection.
    Client c(live);
    c.callOk(openLine("after"));
    c.callOk(opLine("start", "after"));
    const JsonValue done = c.callOk(opLine("wait", "after"));
    EXPECT_TRUE(done.at("failures").items.empty());
    c.callOk("{\"op\":\"shutdown\"}");
    live.join();
}

TEST(Daemon, HandshakeTimeoutClosesSilentConnections)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ServeLimits limits;
    limits.idleTimeoutMs = 150;
    limits.heartbeatMs = 50;
    LiveDaemon live(limits);

    // Connect and say nothing: the daemon must hang up on its own,
    // with a typed reply first.
    Client silent(live);
    std::string reply;
    ASSERT_EQ(silent.channel().readLine(reply, 5000),
              serveio::LineStatus::Ok);
    const JsonValue doc = parseJson(reply);
    EXPECT_FALSE(doc.at("ok").boolean);
    EXPECT_NE(doc.at("error").text.find("idle timeout"),
              std::string::npos);
    EXPECT_EQ(silent.channel().readLine(reply, 5000),
              serveio::LineStatus::Eof);

    Client c(live);
    c.callOk("{\"op\":\"shutdown\"}");
    live.join();
}

TEST(Daemon, VanishedClientLeaseIsReclaimedSiblingUnaffected)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    // Clean single-session reference digest for the sibling's cells.
    uint64_t want = 0;
    {
        LiveDaemon ref(ServeLimits{});
        Client c(ref);
        c.callOk(openLine("ref"));
        c.callOk(opLine("start", "ref"));
        want = waitDigest(c.callOk(opLine("wait", "ref")));
        c.callOk("{\"op\":\"shutdown\"}");
        ref.join();
    }

    ServeLimits limits;
    limits.idleTimeoutMs = 250;
    limits.heartbeatMs = 50;
    LiveDaemon live(limits);

    // The victim starts a session and vanishes without collecting it.
    Client victim(live);
    victim.callOk(openLine("victim"));
    victim.callOk(opLine("start", "victim"));
    victim.vanish();

    // A sibling serves to completion with byte-equal results.
    Client sibling(live);
    sibling.callOk(openLine("sib"));
    sibling.callOk(opLine("start", "sib"));
    const JsonValue done = sibling.callOk(opLine("wait", "sib"));
    EXPECT_TRUE(done.at("failures").items.empty());
    EXPECT_EQ(waitDigest(done), want);

    // The reaper reclaims the abandoned lease and surfaces it.
    bool reclaimed = false;
    JsonValue stats;
    for (int i = 0; i < 200 && !reclaimed; ++i) {
        stats = sibling.callOk("{\"op\":\"stats\"}");
        reclaimed = stats.at("sessions_expired").number >= 1.0;
        if (!reclaimed)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(reclaimed);
    const JsonValue &records = stats.at("expired");
    ASSERT_FALSE(records.items.empty());
    EXPECT_EQ(records.items.front().at("session").text, "victim");
    EXPECT_NE(records.items.front().at("error").text.find("lease"),
              std::string::npos);
    // The victim's name is gone (slot reclaimed, name reusable).
    const JsonValue ghost = sibling.call(opLine("snapshot", "victim"));
    EXPECT_FALSE(ghost.at("ok").boolean);

    sibling.callOk("{\"op\":\"shutdown\"}");
    live.join();
}

TEST(Daemon, ConnDropVanishesTheReplyAfterTheWork)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);
    // Drop the connection exactly when k1's wait reply is due: the
    // session ran, the results exist, the ack never arrives.
    ScopedEnv fault("EV8_FAULT_SPEC", "conn_drop/k1/wait");
    LiveDaemon live(ServeLimits{});

    Client doomed(live);
    doomed.callOk(openLine("k1"));
    doomed.callOk(opLine("start", "k1"));
    ASSERT_TRUE(doomed.channel().writeLine(opLine("wait", "k1")));
    std::string reply;
    EXPECT_EQ(doomed.channel().readLine(reply, 30000),
              serveio::LineStatus::Eof);

    // The server is not wedged: the session finished server-side and a
    // fresh connection can still read everything.
    Client c(live);
    const JsonValue stats = c.callOk("{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_done").number, 1.0);
    const JsonValue done = c.callOk(opLine("wait", "k1"));
    EXPECT_TRUE(done.at("failures").items.empty());
    c.callOk("{\"op\":\"shutdown\"}");
    live.join();
}

TEST(Daemon, ExternalStopDrainsInFlightAndRefusesNewSessions)
{
    // A session long enough to still be running when the stop lands.
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", "200000");
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    // As in bench_serve, a signal handler is the flag's only writer.
    g_stopSignal = 0;
    struct sigaction handler = {};
    struct sigaction saved = {};
    handler.sa_handler = onStopSignal;
    sigemptyset(&handler.sa_mask);
    ASSERT_EQ(::sigaction(SIGUSR1, &handler, &saved), 0);
    LiveDaemon live(ServeLimits{}, /*drain_ms=*/30000, &g_stopSignal);

    Client worker(live);
    worker.callOk(openLine("inflight"));
    worker.callOk(opLine("start", "inflight"));

    Client late(live); // connected before the stop, open comes after
    live.signal(SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    // Admission is closed with a typed refusal...
    const JsonValue refused = late.call(openLine("late"));
    EXPECT_FALSE(refused.at("ok").boolean);
    EXPECT_TRUE(refused.at("draining").boolean);

    // ...while the in-flight session drains to a complete result.
    const JsonValue done = worker.callOk(opLine("wait", "inflight"));
    EXPECT_TRUE(done.at("failures").items.empty());
    EXPECT_EQ(done.at("state").text, "done");

    live.join();
    EXPECT_TRUE(live.daemon().drainedClean());
    ::sigaction(SIGUSR1, &saved, nullptr);
}

} // namespace
} // namespace ev8
