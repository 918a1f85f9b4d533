#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "obs/trace_span.hh"
#include "serve/transport.hh"
#include "sim/cell_executor.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"

namespace ev8
{

/**
 * One served session: a named grid run over the server's shared cached
 * BlockStreams by the shared cell core, its cell groups fanned out over
 * the engine's pool. The session's own thread owns the lease, drain and
 * Done state and waits for the groups. The session owns its outputs;
 * the pool's scheduling (sibling sessions, worker count) cannot change
 * a single byte of them.
 */
class PredictionServer::Session
{
  public:
    Session(PredictionServer &server, ServeRequest open,
            const GridSpec &grid)
        : server_(server), open_(std::move(open)), grid_(grid),
          name_(open_.session), nbench_(specint95Suite().size())
    {
        SimConfig config;
        config.forceGenericKernel = open_.forceGeneric;
        rows_ = buildGridRows(grid_, config);
        outputs_.resize(cells());
        // Per-session fault identity: lets EV8_FAULT_SPEC kill one
        // session by name ("session_drop/s1/") while its siblings'
        // occurrence counters stay untouched. The rows carry no sinks;
        // the open request says what the client will merge.
        requests_ = gridCellRequests(rows_, server_.runner(), 0, name_);
        for (CellRequest &req : requests_) {
            req.wantEvents = open_.wantEvents;
            req.wantMetrics = open_.wantMetrics;
        }
    }

    ~Session()
    {
        // A session destroyed mid-run (server teardown) finishes
        // gracefully: its thread has bounded work left.
        if (thread_.joinable())
            thread_.join();
    }

    const std::string &name() const { return name_; }
    size_t rows() const { return rows_.size(); }
    size_t benches() const { return nbench_; }
    size_t cells() const { return rows_.size() * nbench_; }

    /** Launches the session thread. Returns false when already started. */
    bool
    start()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (state_ != State::Open)
                return false;
            state_ = State::Running;
        }
        thread_ = std::thread([this] { run(); });
        return true;
    }

    /** Appends the live-progress members of a snapshot reply. */
    void
    writeSnapshot(JsonWriter &w)
    {
        ScopedSpan span(SpanPhase::Snapshot, "serve.snapshot");
        span.arg("session", name_);
        w.key("state");
        w.value(stateName());
        w.key("rows");
        w.value(static_cast<uint64_t>(rows_.size()));
        w.key("benches");
        w.value(static_cast<uint64_t>(nbench_));
        w.key("cells_total");
        w.value(static_cast<uint64_t>(cells()));
        w.key("cells_done");
        w.value(cellsDone_.load(std::memory_order_relaxed));
        w.key("failures");
        w.value(failedCells_.load(std::memory_order_relaxed));
        w.key("expired");
        w.value(wasExpired());
    }

    /**
     * Blocks until the run finishes (no-op when never started/done).
     * The blocked waiter pins the session's lease -- a client stuck in
     * "wait" IS the heartbeat, so the reaper must not expire it under
     * them -- and the lease is renewed when the wait returns.
     */
    void
    awaitDone()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        ++waiters_;
        done_.wait(lock, [&] { return state_ != State::Running; });
        --waiters_;
        lastTouch_ = std::chrono::steady_clock::now();
    }

    /** Renews the lease. Called by every client op naming the session. */
    void
    touch()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastTouch_ = std::chrono::steady_clock::now();
    }

    /**
     * Has the lease lapsed? True for a session that no client op has
     * renewed within @p timeout and no blocked waiter is pinning --
     * including one that reached Done but whose results nobody ever
     * collected (a wait reply marks delivery; without it the vanished
     * client's slot would be pinned forever).
     */
    bool
    leaseStale(std::chrono::steady_clock::time_point now,
               std::chrono::milliseconds timeout)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (state_ == State::Done && delivered_)
            return false; // already retirable; nothing to expire
        return !expired_ && waiters_ == 0
            && now - lastTouch_ > timeout;
    }

    /**
     * Force-expires the session: its remaining cells fail with
     * @p reason as structured CellFailures and it reaches Done in
     * bounded time, after which it is retirable (the vanished client's
     * thread and admission slot get reclaimed). Idempotent. A
     * session already Done just gets the expired mark -- its results
     * were computed but abandoned, and the mark makes it retirable.
     */
    void
    expire(const std::string &reason)
    {
        bool failNow = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (expired_)
                return;
            if (state_ == State::Done) {
                if (!delivered_) {
                    expired_ = true;
                    expireError_ = reason;
                }
                return;
            }
            expired_ = true;
            expireError_ = reason;
            if (state_ == State::Open) {
                // Claim the never-started session (a racing start() is
                // refused); no thread exists, so fail the cells here.
                state_ = State::Running;
                failNow = true;
            } else {
                // Running: every cell group not yet started fails with
                // the expiry reason and the session settles to Done on
                // its own (see runCells()).
                cancel_.store(true, std::memory_order_release);
            }
        }
        if (failNow) {
            const std::vector<size_t> all = allCells();
            fail(all, reason);
            tally(all);
            failures_ = mergeGrid(outputs_, rows_, nbench_).failures;
            server_.noteSessionDone();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                state_ = State::Done;
            }
            done_.notify_all();
        }
    }

    /** Was the session force-expired (lease lapse or drain deadline)? */
    bool
    wasExpired()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return expired_;
    }

    /** The expiry reason; "" when not expired. */
    std::string
    expireError()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return expired_ ? expireError_ : std::string();
    }

    const std::string &gridId() const { return grid_.id; }

    bool
    finished()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return state_ == State::Done;
    }

    bool
    running()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return state_ == State::Running;
    }

    /**
     * Finished AND either a waiter has been handed the full results
     * payload or the session was force-expired: it holds nothing a
     * client can still come back for, so admission may retire it to
     * make room (handleOpen) and the reaper may reclaim it. Once a
     * session's state is Done its threads touch no server state, so
     * destroying it under the server mutex cannot deadlock.
     */
    bool
    retirable()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return state_ == State::Done && (delivered_ || expired_);
    }

    /** Records that a wait reply carried the results (retire signal). */
    void
    markDelivered()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        delivered_ = true;
    }

    /**
     * Appends the full result members of a wait reply: one checkpoint
     * codec record per cell, in cell-index (row-major) order -- the
     * byte-exact payload the client merges -- plus the structured
     * failures.
     */
    void
    writeResults(JsonWriter &w)
    {
        w.key("cells");
        w.beginArray();
        for (size_t i = 0; i < outputs_.size(); ++i) {
            const CellOutput &out = outputs_[i];
            w.value(encodeCellRecord(i, out.result, out.metrics,
                                     out.events));
        }
        w.endArray();
        w.key("failures");
        w.beginArray();
        for (const CellFailure &f : failures_)
            writeFailure(w, f);
        w.endArray();
    }

  private:
    enum class State
    {
        Open,
        Running,
        Done,
    };

    const char *
    stateName()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        switch (state_) {
          case State::Open:
            return "open";
          case State::Running:
            return "running";
          case State::Done:
            return "done";
        }
        return "?";
    }

    /**
     * Session thread: run the grid's cell groups on the engine's pool,
     * then publish the failures and settle to Done.
     */
    void
    run()
    {
        SpanTracer::global().setThreadName("serve:" + name_);
        {
            ScopedSpan span(SpanPhase::SessionRun, "serve.session_run");
            span.arg("session", name_);
            span.arg("grid", grid_.id);
            span.arg("cells", static_cast<uint64_t>(cells()));
            runCells();
        }

        // The batch merge's failure records; the session's rows carry
        // no sinks, so the merge touches nothing else.
        failures_ = mergeGrid(outputs_, rows_, nbench_).failures;
        // Count the session done before waking its waiters, so a
        // client that sequences wait -> stats always sees itself.
        server_.noteSessionDone();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            state_ = State::Done;
        }
        done_.notify_all();
    }

    void
    runCells()
    {
        // Grouped, counted and run exactly as the batch engine runs a
        // grid, on the same pool, so sibling sessions and batch work
        // share the --jobs cap and the grid tallies.
        ExperimentEngine &engine = server_.runner_.engine();
        CellExecutor executor;
        engine.attachAccounting(executor);
        engine.runGroups(allCells(), requests_,
                         [&](const std::vector<size_t> &group) {
            // A force-expiry lands between groups: every group not yet
            // started fails with the expiry reason.
            if (cancel_.load(std::memory_order_acquire))
                fail(group, expireError());
            else
                executor.runGroup(group, requests_, outputs_);
            tally(group);
        });
    }

    /** Every cell index, in row-major order. */
    std::vector<size_t>
    allCells() const
    {
        std::vector<size_t> all(cells());
        std::iota(all.begin(), all.end(), size_t{0});
        return all;
    }

    /** Fails @p group's cells, which never ran, with @p error. */
    void
    fail(const std::vector<size_t> &group, const std::string &error)
    {
        for (const size_t i : group) {
            CellOutput &out = outputs_[i];
            out.failed = true;
            out.attempts = 0;
            out.error = error;
        }
    }

    /** Counts @p group's settled cells into the snapshot counters. */
    void
    tally(const std::vector<size_t> &group)
    {
        for (const size_t i : group) {
            if (outputs_[i].failed)
                failedCells_.fetch_add(1, std::memory_order_relaxed);
        }
        cellsDone_.fetch_add(group.size(), std::memory_order_relaxed);
    }

    PredictionServer &server_;
    const ServeRequest open_;
    const GridSpec &grid_;
    const std::string name_;
    const size_t nbench_;

    std::vector<GridRow> rows_;
    std::vector<CellRequest> requests_;
    std::vector<CellOutput> outputs_;
    std::vector<CellFailure> failures_; //!< filled once, before Done

    std::atomic<bool> cancel_{false}; //!< set by expire() while Running
    std::atomic<uint64_t> cellsDone_{0};
    std::atomic<uint64_t> failedCells_{0};

    std::mutex mutex_; //!< guards state_, delivered_, lease fields
    std::condition_variable done_;
    State state_ = State::Open;
    bool delivered_ = false;

    // Lease state (guarded by mutex_).
    std::chrono::steady_clock::time_point lastTouch_ =
        std::chrono::steady_clock::now();
    size_t waiters_ = 0;    //!< blocked awaitDone() callers (lease pin)
    bool expired_ = false;  //!< force-expired (lease lapse or drain)
    std::string expireError_;

    std::thread thread_; //!< last: uses every member above

    friend class PredictionServer;
};

ServeLimits
PredictionServer::defaultLimits()
{
    ServeLimits limits;
    limits.maxSessions = static_cast<size_t>(
        strictEnvU64("EV8_SERVE_MAX_SESSIONS", 1, 256, 8));
    limits.idleTimeoutMs =
        strictEnvU64("EV8_SERVE_IDLE_TIMEOUT_MS", 0, 3600000, 0);
    limits.heartbeatMs =
        strictEnvU64("EV8_SERVE_HEARTBEAT_MS", 10, 60000, 250);
    return limits;
}

PredictionServer::PredictionServer(ServeLimits limits, unsigned jobs)
    : limits_(limits),
      jobs_(jobs != 0 ? jobs : ExperimentEngine::defaultJobs()),
      runner_(branchesPerBenchmark(), jobs_)
{
    if (limits_.idleTimeoutMs > 0) {
        reaper_ = std::thread([this] {
            SpanTracer::global().setThreadName("serve:reaper");
            std::unique_lock<std::mutex> lock(mutex_);
            while (!reaperStop_) {
                reaperWake_.wait_for(
                    lock, std::chrono::milliseconds(limits_.heartbeatMs));
                if (reaperStop_)
                    break;
                lock.unlock();
                reapExpiredSessions();
                lock.lock();
            }
        });
    }
}

PredictionServer::PredictionServer()
    : PredictionServer(defaultLimits())
{
}

PredictionServer::~PredictionServer()
{
    if (reaper_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            reaperStop_ = true;
        }
        reaperWake_.notify_all();
        reaper_.join();
    }
    // Session destructors join their threads; clearing under no lock is
    // fine because handle() callers are gone once the owner tears the
    // server down.
    sessions_.clear();
}

bool
PredictionServer::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shutdown_;
}

void
PredictionServer::beginDrain()
{
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
}

bool
PredictionServer::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_ || shutdown_;
}

bool
PredictionServer::drainWait(uint64_t deadline_ms)
{
    beginDrain();
    const auto deadline = std::chrono::steady_clock::now()
        + std::chrono::milliseconds(deadline_ms);
    const auto allDone = [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, session] : sessions_) {
            if (!session->finished())
                return false;
        }
        return true;
    };
    while (!allDone()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            // Deadline lapsed: force-expire the stragglers (their
            // remaining cells fail as structured records) and wait for
            // them to settle -- bounded, because a cancelled session
            // starts no further cell group.
            std::vector<std::shared_ptr<Session>> laggards;
            {
                std::lock_guard<std::mutex> lock(mutex_);
                for (const auto &[name, session] : sessions_) {
                    if (!session->finished())
                        laggards.push_back(session);
                }
            }
            for (const std::shared_ptr<Session> &session : laggards) {
                session->expire("session expired by drain deadline ("
                                + std::to_string(deadline_ms) + " ms)");
            }
            while (!allDone()) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return true;
}

void
PredictionServer::reapExpiredSessions()
{
    const auto now = std::chrono::steady_clock::now();
    const std::chrono::milliseconds timeout(limits_.idleTimeoutMs);
    std::vector<std::shared_ptr<Session>> stale;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, session] : sessions_) {
            if (session->leaseStale(now, timeout))
                stale.push_back(session);
        }
    }
    // expire() outside the server mutex: the Open-state path re-enters
    // server state (noteSessionDone) and must not deadlock.
    for (const std::shared_ptr<Session> &session : stale) {
        session->expire("session lease expired: no client op within "
                        + std::to_string(limits_.idleTimeoutMs)
                        + " ms (client vanished?)");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    retireDeliveredSessions();
}

uint64_t
PredictionServer::sessionsExpired() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sessionsExpired_;
}

std::shared_ptr<PredictionServer::Session>
PredictionServer::findSession(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(name);
    return it == sessions_.end() ? nullptr : it->second;
}

void
PredictionServer::noteSessionDone()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++sessionsDone_;
}

uint64_t
PredictionServer::failedCellsTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = retiredFailedCells_;
    for (const auto &[name, session] : sessions_)
        total += session->failedCells_.load(std::memory_order_relaxed);
    return total;
}

void
PredictionServer::retireDeliveredSessions()
{
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (!it->second->retirable()) {
            ++it;
            continue;
        }
        Session &session = *it->second;
        if (session.wasExpired()) {
            // Surface the reclamation: the client vanished, so nobody
            // will ever "wait" for these failures -- the stats op's
            // expired records are where an operator finds them.
            ++sessionsExpired_;
            SessionRecord rec;
            rec.session = session.name();
            rec.grid = session.gridId();
            rec.error = session.expireError();
            rec.failedCells =
                session.failedCells_.load(std::memory_order_relaxed);
            expiredRecords_.push_back(std::move(rec));
            constexpr size_t kMaxExpiredRecords = 32;
            if (expiredRecords_.size() > kMaxExpiredRecords)
                expiredRecords_.pop_front();
        }
        // The daemon's exit fate must still see this session's
        // failures after the session object is gone.
        retiredFailedCells_ += it->second->failedCells_.load(
            std::memory_order_relaxed);
        ++sessionsRetired_;
        it = sessions_.erase(it);
    }
}

std::string
PredictionServer::handleOpen(const ServeRequest &req)
{
    ScopedSpan span(SpanPhase::Accept, "serve.accept");
    span.arg("session", req.session);
    span.arg("grid", req.grid);

    const GridSpec *grid = findGrid(req.grid);
    if (!grid) {
        std::string known;
        for (const std::string &id : knownGrids())
            known += (known.empty() ? "" : ", ") + id;
        return errorReply("unknown grid '" + req.grid + "' (known: "
                          + known + ")");
    }

    std::shared_ptr<Session> session;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_)
            return errorReply("server is shutting down");
        if (draining_) {
            return drainingReply(
                "server is draining; not admitting new sessions");
        }
        if (auto it = sessions_.find(req.session);
            it != sessions_.end()) {
            // A reconnecting client may reuse its name immediately
            // after collecting results; only a live session blocks.
            if (!it->second->retirable()) {
                return errorReply("session '" + req.session
                                  + "' already exists");
            }
            retireDeliveredSessions();
        }
        // Admission reclaims delivered sessions lazily: a long-lived
        // daemon serving sequential clients would otherwise fill the
        // session table with finished work and refuse every open past
        // maxSessions (and its RSS would grow without bound).
        if (sessions_.size() >= limits_.maxSessions)
            retireDeliveredSessions();
        if (sessions_.size() >= limits_.maxSessions) {
            ++sessionsShed_;
            return busyReply("session limit reached ("
                                 + std::to_string(limits_.maxSessions)
                                 + "); admission refused",
                             kRetryAfterMs);
        }
        session = std::make_shared<Session>(*this, req, *grid);
        sessions_.emplace(req.session, session);
        ++sessionsOpened_;
    }

    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("schema");
    w.value(kServeSchema);
    w.key("session");
    w.value(req.session);
    w.key("grid");
    w.value(grid->id);
    w.key("experiment_id");
    w.value(grid->benchId);
    w.key("title");
    w.value(grid->title);
    w.key("rows");
    w.value(static_cast<uint64_t>(session->rows()));
    w.key("benches");
    w.value(static_cast<uint64_t>(session->benches()));
    w.key("cells");
    w.value(static_cast<uint64_t>(session->cells()));
    w.endObject();
    return std::move(out).str();
}

std::string
PredictionServer::handleStart(const ServeRequest &req)
{
    const std::shared_ptr<Session> session = findSession(req.session);
    if (!session)
        return errorReply("unknown session '" + req.session + "'");
    session->touch();
    if (!session->start())
        return errorReply("session '" + req.session + "' already started");
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("session");
    w.value(req.session);
    w.key("state");
    w.value("running");
    w.endObject();
    return std::move(out).str();
}

std::string
PredictionServer::handleSnapshot(const ServeRequest &req)
{
    const std::shared_ptr<Session> session = findSession(req.session);
    if (!session)
        return errorReply("unknown session '" + req.session + "'");
    session->touch();
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("session");
    w.value(req.session);
    session->writeSnapshot(w);
    w.endObject();
    return std::move(out).str();
}

std::string
PredictionServer::handleWait(const ServeRequest &req)
{
    const std::shared_ptr<Session> session = findSession(req.session);
    if (!session)
        return errorReply("unknown session '" + req.session + "'");
    session->touch();
    session->awaitDone();
    if (!session->finished()) {
        return errorReply("session '" + req.session
                          + "' was never started");
    }
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("session");
    w.value(req.session);
    w.key("state");
    w.value("done");
    session->writeResults(w);
    w.endObject();
    // The reply below carries the full payload: from here on the
    // session is retirable when admission needs the slot.
    session->markDelivered();
    return std::move(out).str();
}

std::string
PredictionServer::handlePing(const ServeRequest &req)
{
    const std::shared_ptr<Session> session = findSession(req.session);
    if (!session)
        return errorReply("unknown session '" + req.session + "'");
    session->touch();
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("session");
    w.value(req.session);
    w.key("state");
    w.value(session->stateName());
    w.endObject();
    return std::move(out).str();
}

std::string
PredictionServer::handleStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("ok");
    w.value(true);
    w.key("schema");
    w.value(kServeSchema);
    w.key("sessions_opened");
    w.value(sessionsOpened_);
    w.key("sessions_done");
    w.value(sessionsDone_);
    w.key("sessions_retired");
    w.value(sessionsRetired_);
    w.key("sessions_expired");
    w.value(sessionsExpired_);
    w.key("sessions_shed");
    w.value(sessionsShed_);
    w.key("sessions_running");
    w.value(static_cast<uint64_t>(std::count_if(
        sessions_.begin(), sessions_.end(),
        [](const auto &entry) { return entry.second->running(); })));
    w.key("max_sessions");
    w.value(static_cast<uint64_t>(limits_.maxSessions));
    w.key("jobs");
    w.value(uint64_t{jobs_});
    w.key("idle_timeout_ms");
    w.value(limits_.idleTimeoutMs);
    w.key("heartbeat_ms");
    w.value(limits_.heartbeatMs);
    w.key("draining");
    w.value(draining_ || shutdown_);
    w.key("expired");
    w.beginArray();
    for (const SessionRecord &rec : expiredRecords_) {
        w.beginObject();
        w.key("session");
        w.value(rec.session);
        w.key("grid");
        w.value(rec.grid);
        w.key("error");
        w.value(rec.error);
        w.key("cells_failed");
        w.value(rec.failedCells);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return std::move(out).str();
}

std::string
PredictionServer::handle(const std::string &line)
{
    // Framing hygiene, enforced even on the stdio loopback (the socket
    // paths already reject these at the transport): a request line this
    // long or carrying NUL bytes is hostile, not a protocol mistake.
    if (line.size() > serveio::kMaxRequestLine) {
        return errorReply(
            "request line exceeds "
            + std::to_string(serveio::kMaxRequestLine) + " bytes");
    }
    if (line.find('\0') != std::string::npos)
        return errorReply("request line embeds a NUL byte");

    ServeRequest req;
    try {
        req = decodeRequest(line);
    } catch (const std::exception &err) {
        return errorReply(err.what());
    }
    try {
        if (req.op == "open")
            return handleOpen(req);
        if (req.op == "start")
            return handleStart(req);
        if (req.op == "snapshot")
            return handleSnapshot(req);
        if (req.op == "wait")
            return handleWait(req);
        if (req.op == "ping")
            return handlePing(req);
        if (req.op == "stats")
            return handleStats();
        // "shutdown" (decodeRequest rejected everything else)
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        std::ostringstream out;
        JsonWriter w(out);
        w.beginObject();
        w.key("ok");
        w.value(true);
        w.key("state");
        w.value("shutdown");
        w.endObject();
        return std::move(out).str();
    } catch (const std::exception &err) {
        return errorReply(err.what());
    }
}

} // namespace ev8
