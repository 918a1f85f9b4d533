/**
 * @file
 * Session-layer tests for the prediction server, all in-process over
 * handle():
 *
 *  - for every registered grid, a served session's cell results are
 *    identical to a direct batch runGrid() of the same grid, and
 *    every grid's row labels are unique;
 *  - snapshots report live structured state;
 *  - protocol errors (unknown grid/session, duplicate open, admission
 *    limit, wait before start) come back as {"ok":false,...};
 *  - an injected session_drop kills exactly the targeted session's
 *    cells as structured CellFailures while a sibling session on the
 *    same server completes clean;
 *  - a drain deadline cancels a running session between cell groups:
 *    the cells not yet run fail with the deadline reason, the ones
 *    that ran keep their exact records;
 *  - a lone session fanned out over two workers returns the same cell
 *    bytes as on one, and the stats op counts running sessions;
 *  - the EV8_SERVE_* env knobs parse strictly (garbage exits 2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "serve/grids.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/transport.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

constexpr const char *kTinyScale = "3000";

/** handle() round trip that must succeed. */
JsonValue
callOk(PredictionServer &server, const std::string &request)
{
    const std::string reply = server.handle(request);
    JsonValue doc = parseJson(reply);
    EXPECT_TRUE(doc.isObject()) << reply;
    const JsonValue *ok = doc.find("ok");
    EXPECT_TRUE(ok && ok->kind == JsonValue::Kind::Bool) << reply;
    EXPECT_TRUE(ok->boolean) << reply;
    return doc;
}

/** handle() round trip that must fail; returns the error message. */
std::string
callErr(PredictionServer &server, const std::string &request)
{
    const std::string reply = server.handle(request);
    const JsonValue doc = parseJson(reply);
    EXPECT_TRUE(doc.isObject()) << reply;
    const JsonValue *ok = doc.find("ok");
    EXPECT_TRUE(ok && !ok->boolean) << reply;
    const JsonValue *err = doc.find("error");
    return err && err->isString() ? err->text : std::string();
}

std::string
openReq(const std::string &session, bool timing = false,
        const std::string &grid = "fig5")
{
    ServeRequest req;
    req.op = "open";
    req.session = session;
    req.grid = grid;
    req.wantEvents = false;
    req.wantMetrics = true;
    req.timing = timing;
    return encodeRequest(req);
}

std::string
sessionReq(const std::string &op, const std::string &session)
{
    ServeRequest req;
    req.op = op;
    req.session = session;
    return req.session.empty() ? std::string() : encodeRequest(req);
}

/** Opens, starts and waits @p session; returns the wait reply. */
JsonValue
runSession(PredictionServer &server, const std::string &session)
{
    callOk(server, openReq(session));
    callOk(server, sessionReq("start", session));
    return callOk(server, sessionReq("wait", session));
}

/** Decodes a wait reply's cells into index order. */
std::vector<CellOutput>
decodeCells(const JsonValue &done, size_t expect)
{
    const JsonValue &cells = done.at("cells");
    EXPECT_TRUE(cells.isArray());
    EXPECT_EQ(cells.items.size(), expect);
    std::vector<CellOutput> out(expect);
    for (const JsonValue &item : cells.items) {
        CellOutput cell;
        const size_t idx = decodeCellRecord(item.text, expect, cell);
        out[idx] = std::move(cell);
    }
    return out;
}

/**
 * Serve parity for every registered grid: a served session's cells
 * must be identical to a direct batch runGrid() over the same
 * definition.
 */
class ServeParity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ServeParity, ServedCellsMatchDirectBatchRun)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    const GridSpec *grid = findGrid(GetParam());
    ASSERT_NE(grid, nullptr);

    // Direct batch reference over the same grid definition.
    SuiteRunner reference(3000, 2);
    const size_t nbench = reference.size();
    MetricRegistry registry;
    SimConfig config;
    config.metrics = &registry;
    const GridOutcome direct =
        reference.runGrid(buildGridRows(*grid, config));
    ASSERT_TRUE(direct.ok());

    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("s1", false, GetParam()));
    callOk(server, sessionReq("start", "s1"));
    const JsonValue done = callOk(server, sessionReq("wait", "s1"));
    const auto cells =
        decodeCells(done, grid->rows.size() * nbench);
    EXPECT_TRUE(done.at("failures").items.empty());

    for (size_t i = 0; i < cells.size(); ++i) {
        const BenchResult &got = cells[i].result;
        const BenchResult &want =
            direct.results[i / nbench][i % nbench];
        EXPECT_EQ(got.bench, want.bench) << i;
        EXPECT_FALSE(got.failed) << i;
        EXPECT_EQ(got.sim.stats.lookups(), want.sim.stats.lookups())
            << i;
        EXPECT_EQ(got.sim.stats.mispredictions(),
                  want.sim.stats.mispredictions())
            << i;
        EXPECT_EQ(got.sim.condBranches, want.sim.condBranches) << i;
        EXPECT_EQ(got.sim.fetchBlocks, want.sim.fetchBlocks) << i;
    }
    EXPECT_EQ(server.failedCellsTotal(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ServeParity, ::testing::ValuesIn(knownGrids()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(Serve, GridRowsCarryTheirInformationVectors)
{
    const GridSpec *fig7 = findGrid("fig7");
    ASSERT_NE(fig7, nullptr);
    ASSERT_EQ(fig7->rows.size(), 5u);

    const SimConfig &ghist = fig7->rows[0].config;
    EXPECT_EQ(ghist.history, HistoryMode::Ghist);

    const SimConfig &nopath = fig7->rows[1].config;
    EXPECT_EQ(nopath.history, HistoryMode::LghistNoPath);
    EXPECT_EQ(nopath.historyAge, 0u);

    const SimConfig &path = fig7->rows[2].config;
    EXPECT_EQ(path.history, HistoryMode::LghistPath);
    EXPECT_EQ(path.historyAge, 0u);

    const SimConfig &old3 = fig7->rows[3].config;
    EXPECT_EQ(old3.history, HistoryMode::LghistPath);
    EXPECT_EQ(old3.historyAge, 3u);
    EXPECT_FALSE(old3.assignBanks);

    const SimConfig &ev8 = fig7->rows[4].config;
    EXPECT_EQ(ev8.history, HistoryMode::LghistPath);
    EXPECT_EQ(ev8.historyAge, 3u);
    EXPECT_TRUE(ev8.assignBanks);

    // Fig. 9's "no path" row: the EV8 vector without the path bit,
    // still three blocks old and banked.
    const GridSpec *fig9 = findGrid("fig9");
    ASSERT_NE(fig9, nullptr);
    ASSERT_EQ(fig9->rows.size(), 6u);
    const SimConfig &fig9NoPath = fig9->rows[2].config;
    EXPECT_EQ(fig9->rows[2].label, "no path");
    EXPECT_EQ(fig9NoPath.history, HistoryMode::LghistNoPath);
    EXPECT_EQ(fig9NoPath.historyAge, 3u);
    EXPECT_TRUE(fig9NoPath.assignBanks);

    // Fig. 8 rows all run under the EV8 vector; the three table sizes
    // must be strictly decreasing in storage.
    const GridSpec *fig8 = findGrid("fig8");
    ASSERT_NE(fig8, nullptr);
    ASSERT_EQ(fig8->rows.size(), 3u);
    uint64_t prev = UINT64_MAX;
    for (const GridRow &row : fig8->rows) {
        EXPECT_EQ(row.config.history, HistoryMode::LghistPath);
        EXPECT_TRUE(row.config.assignBanks);
        const uint64_t bits = row.factory()->storageBits();
        EXPECT_LT(bits, prev) << row.label;
        prev = bits;
    }

    // Every registry row is uninstrumented and uniquely labelled:
    // labels feed the checkpoint grid hash and CellFailure::rowLabel,
    // so a duplicate would make two rows indistinguishable.
    for (const std::string &id : knownGrids()) {
        SCOPED_TRACE(id);
        const GridSpec *grid = findGrid(id);
        ASSERT_NE(grid, nullptr);
        EXPECT_FALSE(grid->rows.empty());
        std::set<std::string> labels;
        for (const GridRow &row : grid->rows) {
            EXPECT_TRUE(labels.insert(row.label).second) << row.label;
            EXPECT_EQ(row.config.metrics, nullptr) << row.label;
            EXPECT_EQ(row.config.events, nullptr) << row.label;
            EXPECT_FALSE(row.config.forceGenericKernel) << row.label;
        }
    }
}

TEST(Serve, SnapshotReportsStructuredLiveState)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);

    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("snap"));

    // Before start: open state, nothing done.
    JsonValue snap = callOk(server, sessionReq("snapshot", "snap"));
    EXPECT_EQ(snap.at("state").text, "open");
    EXPECT_EQ(snap.at("cells_done").number, 0.0);

    callOk(server, sessionReq("start", "snap"));
    callOk(server, sessionReq("wait", "snap"));

    snap = callOk(server, sessionReq("snapshot", "snap"));
    EXPECT_EQ(snap.at("state").text, "done");
    const double total = snap.at("cells_total").number;
    EXPECT_EQ(snap.at("cells_done").number, total);
    EXPECT_GT(total, 0.0);
    EXPECT_EQ(snap.at("failures").number, 0.0);
    EXPECT_FALSE(snap.at("expired").boolean);
}

TEST(Serve, ProtocolErrorsAreStructured)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);

    ServeLimits limits;
    limits.maxSessions = 2;
    PredictionServer server(limits, 2);

    // Unknown grid lists the registered ones.
    {
        ServeRequest req;
        req.op = "open";
        req.session = "x";
        req.grid = "nope";
        const std::string err = callErr(server, encodeRequest(req));
        EXPECT_NE(err.find("unknown grid"), std::string::npos);
        EXPECT_NE(err.find("fig5"), std::string::npos);
    }

    // Unknown session, for every per-session op.
    for (const char *op : {"start", "snapshot", "wait"}) {
        const std::string err =
            callErr(server, sessionReq(op, "ghost"));
        EXPECT_NE(err.find("unknown session"), std::string::npos) << op;
    }

    // Malformed request line.
    EXPECT_FALSE(callErr(server, "this is not json").empty());
    EXPECT_NE(callErr(server, "{\"op\":\"frobnicate\"}").find("unknown"),
              std::string::npos);

    callOk(server, openReq("a"));

    // Wait before start is an error, not a hang.
    EXPECT_NE(callErr(server, sessionReq("wait", "a"))
                  .find("never started"),
              std::string::npos);

    // Duplicate session name.
    EXPECT_NE(callErr(server, openReq("a")).find("already"),
              std::string::npos);

    // Admission control: the limit refuses, it does not queue.
    callOk(server, openReq("b"));
    const std::string err = callErr(server, openReq("c"));
    EXPECT_NE(err.find("session limit"), std::string::npos);

    // Run the admitted sessions out so the dtor join is quick.
    callOk(server, sessionReq("start", "a"));
    callOk(server, sessionReq("start", "b"));
    callOk(server, sessionReq("wait", "a"));
    callOk(server, sessionReq("wait", "b"));
}

TEST(Serve, DeliveredSessionsRetireToAdmitNewClients)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    ServeLimits limits;
    limits.maxSessions = 2;
    PredictionServer server(limits, 2);

    // Sequential clients far past the admission limit: every wait
    // delivers the full payload, so each open past the limit retires
    // a finished session instead of refusing admission.
    for (int i = 0; i < 5; ++i)
        runSession(server, "seq" + std::to_string(i));

    const JsonValue stats = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_opened").number, 5.0);
    EXPECT_EQ(stats.at("sessions_done").number, 5.0);
    // At least the opens beyond the limit forced a retirement.
    EXPECT_GE(stats.at("sessions_retired").number, 3.0);

    // A retired session is gone: its per-session ops say so, and its
    // name is free for reuse.
    EXPECT_NE(callErr(server, sessionReq("wait", "seq0"))
                  .find("unknown session"),
              std::string::npos);
    runSession(server, "seq0");

    // Sessions that never delivered results are not retirable: two
    // undelivered opens pin the table and the third is refused.
    callOk(server, openReq("pin0"));
    callOk(server, openReq("pin1"));
    EXPECT_NE(callErr(server, openReq("pin2")).find("session limit"),
              std::string::npos);
    for (const char *pinned : {"pin0", "pin1"}) {
        callOk(server, sessionReq("start", pinned));
        callOk(server, sessionReq("wait", pinned));
    }
}

TEST(Serve, DeliveredSessionNameIsImmediatelyReusable)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    ServeLimits limits;
    PredictionServer server(limits, 2);

    // A reconnecting client reopens its default session name right
    // after collecting results -- well below the admission limit, so
    // only the collision path (not capacity pressure) can retire it.
    runSession(server, "s1");
    runSession(server, "s1");

    const JsonValue stats = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_opened").number, 2.0);
    EXPECT_GE(stats.at("sessions_retired").number, 1.0);

    // A live (undelivered) session still blocks its name.
    callOk(server, openReq("s1"));
    EXPECT_NE(callErr(server, openReq("s1")).find("already exists"),
              std::string::npos);
    callOk(server, sessionReq("start", "s1"));
    callOk(server, sessionReq("wait", "s1"));
}

TEST(Serve, SessionDropFailsOnlyTheTargetedSession)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noWait("EV8_RETRY_BASE_MS", "0");
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    // Clean reference for the surviving session's cells.
    std::vector<CellOutput> clean;
    {
        ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
        PredictionServer server(ServeLimits{}, 2);
        const JsonValue done = runSession(server, "doomed");
        clean = decodeCells(done, done.at("cells").items.size());
    }

    // Kill every cell of session "doomed" permanently; "healthy" runs
    // on the same server and must not see a single occurrence.
    ScopedEnv fault("EV8_FAULT_SPEC", "session_drop/doomed/+*");
    PredictionServer server(ServeLimits{}, 2);

    callOk(server, openReq("doomed"));
    callOk(server, openReq("healthy"));
    callOk(server, sessionReq("start", "doomed"));
    callOk(server, sessionReq("start", "healthy"));
    const JsonValue doomed = callOk(server, sessionReq("wait", "doomed"));
    const JsonValue healthy =
        callOk(server, sessionReq("wait", "healthy"));

    // Every doomed cell is a structured CellFailure...
    const size_t n = clean.size();
    const JsonValue &failures = doomed.at("failures");
    ASSERT_EQ(failures.items.size(), n);
    const CellFailure f = readFailure(failures.items.front());
    EXPECT_EQ(f.row, 0u);
    EXPECT_GE(f.attempts, 1u);
    EXPECT_NE(f.error.find("session"), std::string::npos);

    // ...and the sibling's cells equal a fault-free run exactly.
    const auto survived = decodeCells(healthy, n);
    EXPECT_TRUE(healthy.at("failures").items.empty());
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(survived[i].result.sim.stats.mispredictions(),
                  clean[i].result.sim.stats.mispredictions())
            << i;
        EXPECT_EQ(survived[i].result.sim.stats.lookups(),
                  clean[i].result.sim.stats.lookups())
            << i;
    }

    EXPECT_EQ(server.failedCellsTotal(), n);
}

TEST(Serve, ShutdownOpFlagsTheServer)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    PredictionServer server(ServeLimits{}, 2);
    EXPECT_FALSE(server.shutdownRequested());
    callOk(server, "{\"op\":\"shutdown\"}");
    EXPECT_TRUE(server.shutdownRequested());
    // Opens after shutdown are refused.
    EXPECT_FALSE(callErr(server, openReq("late")).empty());
}

TEST(Serve, StatsOpReportsCountersAndLimits)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);
    PredictionServer server(ServeLimits{}, 2);
    runSession(server, "s1");
    const JsonValue stats = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_opened").number, 1.0);
    EXPECT_EQ(stats.at("sessions_done").number, 1.0);
    EXPECT_EQ(stats.at("sessions_running").number, 0.0);
    EXPECT_EQ(stats.at("jobs").number, 2.0);

    // sessions_running counts the sessions in state Running: an opened
    // but unstarted session is not one; a started session held in
    // retry backoff (one failed attempt of its first cell) is.
    const std::string spec = "session_drop/=held/g0/r0/"
        + specint95Suite().front().profile.name + "+1";
    ScopedEnv fault("EV8_FAULT_SPEC", spec.c_str());
    ScopedEnv slow("EV8_RETRY_BASE_MS", "300");
    callOk(server, openReq("idle"));
    callOk(server, openReq("held"));
    callOk(server, sessionReq("start", "held"));
    const JsonValue busy = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(busy.at("sessions_running").number, 1.0);
    const JsonValue done = callOk(server, sessionReq("wait", "held"));
    EXPECT_TRUE(done.at("failures").items.empty());
    const JsonValue after = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(after.at("sessions_running").number, 0.0);
    EXPECT_EQ(after.at("sessions_done").number, 2.0);
}

TEST(Serve, LoneSessionCellsMatchAcrossPoolWidths)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    // The same session on one worker and fanned out over two: the
    // reply's cell records must be byte-identical.
    JsonValue replies[2];
    for (const unsigned jobs : {1u, 2u}) {
        PredictionServer server(ServeLimits{}, jobs);
        callOk(server, openReq("lone", false, "fig8"));
        callOk(server, sessionReq("start", "lone"));
        replies[jobs - 1] = callOk(server, sessionReq("wait", "lone"));
        EXPECT_TRUE(replies[jobs - 1].at("failures").items.empty());
    }
    const JsonValue &serial = replies[0].at("cells");
    const JsonValue &fanned = replies[1].at("cells");
    ASSERT_FALSE(serial.items.empty());
    ASSERT_EQ(serial.items.size(), fanned.items.size());
    for (size_t i = 0; i < serial.items.size(); ++i)
        EXPECT_EQ(serial.items[i].text, fanned.items[i].text) << i;
}

TEST(Serve, SessionCellsFeedTheEngineTallies)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    // A served session's cells count in the same engine telemetry as a
    // batch grid's: worker busy time and one duration per cell.
    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("tallied", false, "fig8"));
    callOk(server, sessionReq("start", "tallied"));
    const JsonValue reply = callOk(server, sessionReq("wait", "tallied"));
    const size_t cells = reply.at("cells").items.size();
    ASSERT_GT(cells, 0u);

    const ExperimentEngine &engine = server.runner().engine();
    EXPECT_GT(engine.poolBusyNs(), 0u);
    EXPECT_EQ(engine.cellDurations().count(), cells);
}

TEST(Serve, SessionCellsFeedTheGridTallies)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv lanes("EV8_FUSED_LANES", nullptr);

    // A served session's groups run through the engine's one
    // group-execution path, so they count as grid cells and fused
    // jobs, and their wall is the pool-utilization denominator.
    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("grid", false, "fig8"));
    callOk(server, sessionReq("start", "grid"));
    const JsonValue reply = callOk(server, sessionReq("wait", "grid"));
    const size_t cells = reply.at("cells").items.size();
    ASSERT_GT(cells, 0u);

    const ExperimentEngine &engine = server.runner().engine();
    EXPECT_EQ(engine.gridCellCount(), cells);
    EXPECT_GT(engine.gridWallNs(), 0u);
    MetricRegistry registry;
    engine.publishMetrics(registry, "engine");
    // fig8's rows fuse per benchmark: every cell rides a fused walk.
    EXPECT_GT(registry.counter("engine.fused_jobs").value(), 0u);
    EXPECT_EQ(registry.counter("engine.fused_lane_cells").value(), cells);

    // Two sessions at once: both count their cells, and their shared
    // time counts once in the utilization denominator, so the grid
    // wall grows by no more than the span that covered both.
    const uint64_t wallBefore = engine.gridWallNs();
    const auto start = std::chrono::steady_clock::now();
    callOk(server, openReq("left", false, "fig8"));
    callOk(server, openReq("right", false, "fig8"));
    callOk(server, sessionReq("start", "left"));
    callOk(server, sessionReq("start", "right"));
    const JsonValue left = callOk(server, sessionReq("wait", "left"));
    const JsonValue right = callOk(server, sessionReq("wait", "right"));
    const uint64_t spanNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    EXPECT_EQ(engine.gridCellCount(), cells
                  + left.at("cells").items.size()
                  + right.at("cells").items.size());
    EXPECT_GT(engine.gridWallNs(), wallBefore);
    EXPECT_LE(engine.gridWallNs() - wallBefore, spanNs);
    EXPECT_LE(engine.poolBusyNs(), engine.jobs() * engine.gridWallNs());
}

TEST(Serve, DefaultLimitsParseStrictly)
{
    {
        ScopedEnv a("EV8_SERVE_MAX_SESSIONS", "16");
        ScopedEnv b("EV8_SERVE_IDLE_TIMEOUT_MS", "1500");
        ScopedEnv c("EV8_SERVE_HEARTBEAT_MS", "40");
        const ServeLimits limits = PredictionServer::defaultLimits();
        EXPECT_EQ(limits.maxSessions, 16u);
        EXPECT_EQ(limits.idleTimeoutMs, 1500u);
        EXPECT_EQ(limits.heartbeatMs, 40u);
    }
    {
        ScopedEnv a("EV8_SERVE_MAX_SESSIONS", nullptr);
        ScopedEnv b("EV8_SERVE_IDLE_TIMEOUT_MS", nullptr);
        ScopedEnv c("EV8_SERVE_HEARTBEAT_MS", nullptr);
        const ServeLimits limits = PredictionServer::defaultLimits();
        EXPECT_EQ(limits.maxSessions, 8u);
        EXPECT_EQ(limits.idleTimeoutMs, 0u);
        EXPECT_EQ(limits.heartbeatMs, 250u);
    }
}

/** handle() round trip that must fail; returns the whole reply. */
JsonValue
callFail(PredictionServer &server, const std::string &request)
{
    const std::string reply = server.handle(request);
    JsonValue doc = parseJson(reply);
    EXPECT_TRUE(doc.isObject()) << reply;
    const JsonValue *ok = doc.find("ok");
    EXPECT_TRUE(ok && !ok->boolean) << reply;
    return doc;
}

TEST(Serve, PingRenewsTheLeaseAndEchoesState)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("p"));
    JsonValue pong = callOk(server, sessionReq("ping", "p"));
    EXPECT_EQ(pong.at("state").text, "open");
    callOk(server, sessionReq("start", "p"));
    callOk(server, sessionReq("wait", "p"));
    pong = callOk(server, sessionReq("ping", "p"));
    EXPECT_EQ(pong.at("state").text, "done");
    EXPECT_FALSE(callErr(server, sessionReq("ping", "ghost")).empty());
}

TEST(Serve, AdmissionRefusalIsATypedBusyReply)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ServeLimits limits;
    limits.maxSessions = 1;
    PredictionServer server(limits, 2);
    callOk(server, openReq("pinned"));

    const JsonValue busy = callFail(server, openReq("refused"));
    EXPECT_TRUE(busy.at("busy").boolean);
    EXPECT_GT(busy.at("retry_after_ms").number, 0.0);
    EXPECT_NE(busy.at("error").text.find("session limit"),
              std::string::npos);

    const JsonValue stats = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_shed").number, 1.0);

    callOk(server, sessionReq("start", "pinned"));
    callOk(server, sessionReq("wait", "pinned"));
}

TEST(Serve, DrainRefusesOpensButServesExistingSessions)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("early"));
    callOk(server, sessionReq("start", "early"));

    server.beginDrain();
    EXPECT_TRUE(server.draining());
    const JsonValue refused = callFail(server, openReq("late"));
    EXPECT_TRUE(refused.at("draining").boolean);

    // The in-flight session is untouched by the drain mark.
    const JsonValue done = callOk(server, sessionReq("wait", "early"));
    EXPECT_TRUE(done.at("failures").items.empty());
    EXPECT_TRUE(server.drainWait(5000)); // nothing left: clean drain
}

TEST(Serve, HandleRejectsHostileFramingInline)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    PredictionServer server(ServeLimits{}, 2);

    std::string flood(serveio::kMaxRequestLine + 1, 'x');
    EXPECT_NE(callErr(server, flood).find("exceeds"),
              std::string::npos);

    std::string evil = "{\"op\":\"stats\"}";
    evil[4] = '\0';
    EXPECT_NE(callErr(server, evil).find("NUL"), std::string::npos);
}

TEST(Serve, LeaseExpiryReclaimsAbandonedSessions)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    ServeLimits limits;
    limits.maxSessions = 2;
    limits.idleTimeoutMs = 150;
    limits.heartbeatMs = 30;
    PredictionServer server(limits, 2);

    // One session runs to completion but is never collected; another
    // is opened and then abandoned before start. Both leases lapse.
    callOk(server, openReq("ran"));
    callOk(server, sessionReq("start", "ran"));
    callOk(server, openReq("stillborn"));

    // Pings renew "ran"'s lease until it is done, however slow the
    // build, so its lease lapses only after a clean finish.
    bool done = false;
    for (int i = 0; i < 3000 && !done; ++i) {
        done = callOk(server, sessionReq("ping", "ran")).at("state").text
            == "done";
        if (!done)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_TRUE(done);

    JsonValue stats;
    bool reclaimed = false;
    for (int i = 0; i < 400 && !reclaimed; ++i) {
        stats = callOk(server, "{\"op\":\"stats\"}");
        reclaimed = stats.at("sessions_expired").number >= 2.0;
        if (!reclaimed)
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ASSERT_TRUE(reclaimed);

    const JsonValue &records = stats.at("expired");
    ASSERT_EQ(records.items.size(), 2u);
    for (const JsonValue &rec : records.items) {
        EXPECT_NE(rec.at("error").text.find("lease expired"),
                  std::string::npos);
        if (rec.at("session").text == "ran") {
            // Completed cleanly, merely abandoned: no failed cells.
            EXPECT_EQ(rec.at("cells_failed").number, 0.0);
        } else {
            // Never started: every cell failed structurally.
            EXPECT_EQ(rec.at("session").text, "stillborn");
            EXPECT_GT(rec.at("cells_failed").number, 0.0);
        }
    }

    // Both slots are reclaimed: two fresh sessions are admitted and a
    // retired name is reusable.
    runSession(server, "ran");
    runSession(server, "fresh");
}

TEST(Serve, WaitersPinTheLeaseAgainstExpiry)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);

    ServeLimits limits;
    limits.idleTimeoutMs = 60; // shorter than any real session run
    limits.heartbeatMs = 20;
    PredictionServer server(limits, 2);

    // A blocked wait() renews by pinning: even though the run takes
    // much longer than the idle timeout, the session must NOT expire
    // under the waiting client.
    callOk(server, openReq("pinned"));
    callOk(server, sessionReq("start", "pinned"));
    const JsonValue done = callOk(server, sessionReq("wait", "pinned"));
    EXPECT_TRUE(done.at("failures").items.empty());
    const JsonValue stats = callOk(server, "{\"op\":\"stats\"}");
    EXPECT_EQ(stats.at("sessions_expired").number, 0.0);
}

TEST(Serve, DrainDeadlineCancelsARunningSessionBetweenBenchmarks)
{
    ScopedEnv scale("EV8_BRANCHES_PER_BENCH", kTinyScale);
    ScopedEnv noCkpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv retries("EV8_RETRY_MAX", "3");

    JsonValue clean;
    {
        ScopedEnv noFault("EV8_FAULT_SPEC", nullptr);
        PredictionServer server(ServeLimits{}, 2);
        clean = runSession(server, "cut");
    }

    // Two failed attempts of each benchmark's first cell hold every
    // worker in retry backoff far past the drain deadline, however the
    // pool deals the groups; each cell heals on its next attempt, fused
    // or not.
    const std::vector<Benchmark> &suite = specint95Suite();
    std::string spec;
    for (const Benchmark &bench : suite) {
        spec += (spec.empty() ? "" : ",")
            + std::string("session_drop/=cut/g0/r0/") + bench.profile.name
            + "+2";
    }
    ScopedEnv fault("EV8_FAULT_SPEC", spec.c_str());
    ScopedEnv slow("EV8_RETRY_BASE_MS", "300");
    PredictionServer server(ServeLimits{}, 2);
    callOk(server, openReq("cut"));
    callOk(server, sessionReq("start", "cut"));
    EXPECT_FALSE(server.drainWait(50));

    const JsonValue done = callOk(server, sessionReq("wait", "cut"));
    const JsonValue snap = callOk(server, sessionReq("snapshot", "cut"));
    EXPECT_TRUE(snap.at("expired").boolean);
    const size_t total = static_cast<size_t>(snap.at("cells_total").number);
    const size_t nbench = suite.size();

    std::vector<char> failed(total, 0);
    for (const JsonValue &item : done.at("failures").items) {
        const CellFailure f = readFailure(item);
        EXPECT_NE(f.error.find("drain deadline"), std::string::npos)
            << f.error;
        size_t b = 0;
        while (b < nbench && suite[b].profile.name != f.bench)
            ++b;
        ASSERT_LT(b, nbench) << f.bench;
        failed[f.row * nbench + b] = 1;
    }

    // A cell either ran -- and then its record equals the unfaulted
    // session's byte for byte -- or failed with the deadline reason.
    const auto cells = decodeCells(done, total);
    const JsonValue &got = done.at("cells");
    const JsonValue &want = clean.at("cells");
    ASSERT_EQ(want.items.size(), total);
    size_t ran = 0;
    for (size_t i = 0; i < total; ++i) {
        if (cells[i].result.sim.condBranches == 0) {
            EXPECT_TRUE(failed[i]) << i;
            continue;
        }
        EXPECT_FALSE(failed[i]) << i;
        ++ran;
        // Records are in cell-index order in both replies.
        EXPECT_EQ(got.items[i].text, want.items[i].text) << i;
    }
    const size_t nfailed = done.at("failures").items.size();
    EXPECT_GT(ran, 0u);     // the held groups finished
    EXPECT_GT(nfailed, 0u); // the unstarted ones were cancelled
    EXPECT_EQ(ran + nfailed, total);
    EXPECT_EQ(server.failedCellsTotal(), nfailed);
}

TEST(ServeDeathTest, GarbageEnvKnobsExitUsage)
{
    {
        ScopedEnv bad("EV8_SERVE_MAX_SESSIONS", "many");
        EXPECT_EXIT(PredictionServer::defaultLimits(),
                    ::testing::ExitedWithCode(2),
                    "EV8_SERVE_MAX_SESSIONS");
    }
    {
        ScopedEnv bad("EV8_SERVE_IDLE_TIMEOUT_MS", "-1");
        EXPECT_EXIT(PredictionServer::defaultLimits(),
                    ::testing::ExitedWithCode(2),
                    "EV8_SERVE_IDLE_TIMEOUT_MS");
    }
    {
        ScopedEnv bad("EV8_SERVE_HEARTBEAT_MS", "0");
        EXPECT_EXIT(PredictionServer::defaultLimits(),
                    ::testing::ExitedWithCode(2), "EV8_SERVE_HEARTBEAT_MS");
    }
}

} // namespace
} // namespace ev8
