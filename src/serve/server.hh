/**
 * @file
 * Prediction-as-a-service: the session layer behind bench_serve.
 *
 * A PredictionServer owns one SuiteRunner (so every session shares the
 * trace/stream disk cache and in-memory decode -- N sessions over the
 * same profile pay for one synthesis and share one immutable
 * BlockStream per benchmark) and a set of named sessions. Each session
 * is one predictor grid evaluated over the suite: like
 * ExperimentEngine::runGrid, it groups all of its cells with the same
 * fuseGroups(), reads runner().blockStream(b) directly and runs the
 * groups through the same CellExecutor -- fused lane groups,
 * retry/backoff, fault hooks -- on the runner's engine pool. That is
 * what makes a served session's cell outputs byte-identical to a batch
 * run of the same grid. The session's own thread only owns the lease,
 * drain and Done state and waits for its groups.
 *
 * Concurrency and isolation:
 *
 *  - admission control: at most `maxSessions` sessions may exist at
 *    once (EV8_SERVE_MAX_SESSIONS / --max-sessions); an open beyond the
 *    limit is refused with a typed busy reply carrying a retry-after
 *    hint -- it never queues. Before refusing, admission retires
 *    finished sessions whose results were already delivered to a
 *    waiter, so a long-lived daemon serving an unbounded sequence of
 *    clients keeps a bounded session table (and flat RSS --
 *    ci/check_serve_soak.py holds it to that).
 *  - session leases: with EV8_SERVE_IDLE_TIMEOUT_MS armed, every
 *    client op on a session renews its lease and a reaper thread
 *    (EV8_SERVE_HEARTBEAT_MS cadence) expires sessions no client has
 *    touched within the timeout -- the vanished client's thread and
 *    admission slot are reclaimed, and the expiry is surfaced as a
 *    structured CellFailure-style record in the "stats" reply. A
 *    blocked "wait" pins the lease (the waiter IS the heartbeat).
 *  - graceful drain: beginDrain() stops admitting (typed "draining"
 *    refusal) while in-flight sessions run to completion;
 *    drainWait(deadline) bounds the wait and force-expires stragglers.
 *    A force-expired running session starts no further cell group:
 *    the groups not yet started fail with the expiry reason.
 *  - `--jobs` caps cell groups in flight, across batch and served
 *    work: the engine's pool is the only scheduler, so a lone session
 *    fans out over every worker and concurrent sessions share them.
 *    Scheduling order cannot change any session's artifact -- outputs
 *    are per-session state.
 *  - a session that dies (injected session_drop faults, an expired
 *    lease, a drain deadline) records structured CellFailures for its
 *    own cells only; sibling sessions and the server keep running.
 *
 * The protocol front (protocol.hh) is transport-agnostic: handle() maps
 * one request line to one reply line, and bench_serve pumps those lines
 * over an AF_UNIX socket, a TCP socket or a stdio loopback. handle()
 * is thread-safe: connection threads may call it concurrently ("wait"
 * blocks only its caller).
 */

#ifndef EV8_SERVE_SERVER_HH
#define EV8_SERVE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/grids.hh"
#include "serve/protocol.hh"
#include "sim/suite_runner.hh"

namespace ev8
{

/** Admission and lease knobs, env-resolved once per server. */
struct ServeLimits
{
    /** Max concurrently open sessions (admission control). */
    size_t maxSessions = 8;

    /**
     * Session lease duration in ms: a session no client op has touched
     * for this long is expired and reclaimed. 0 disables leases (the
     * loopback/test default -- a vanished client then pins its slot
     * forever, so any networked daemon should arm this).
     */
    uint64_t idleTimeoutMs = 0;

    /** Lease reaper cadence in ms (how promptly expiry is detected). */
    uint64_t heartbeatMs = 250;
};

class PredictionServer
{
  public:
    /**
     * Limits from the environment, strictly parsed (a set-but-invalid
     * value is stderr + exit 2, matching EV8_JOBS):
     *
     *     EV8_SERVE_MAX_SESSIONS    [1, 256]     default 8
     *     EV8_SERVE_IDLE_TIMEOUT_MS [0, 3600000] default 0 (off)
     *     EV8_SERVE_HEARTBEAT_MS    [10, 60000]  default 250
     */
    static ServeLimits defaultLimits();

    /** Retry-after hint carried by admission-refused busy replies. */
    static constexpr uint64_t kRetryAfterMs = 250;

    /**
     * @param limits admission/lease knobs (see defaultLimits()).
     * @param jobs worker threads of the runner's engine pool, which
     *        caps cell groups in flight across all sessions; 0 picks
     *        ExperimentEngine::defaultJobs(). Artifacts do not depend
     *        on it.
     */
    explicit PredictionServer(ServeLimits limits, unsigned jobs = 0);
    PredictionServer();

    /** Joins every session thread (graceful: running sessions finish). */
    ~PredictionServer();

    PredictionServer(const PredictionServer &) = delete;
    PredictionServer &operator=(const PredictionServer &) = delete;

    /**
     * Executes one protocol request line and returns the reply line
     * (no trailing newline). Never throws: protocol and server errors
     * come back as {"ok":false,...} replies -- including overlong and
     * NUL-bearing request lines, which are rejected before parsing.
     * "wait" blocks the calling thread until the session finishes.
     */
    std::string handle(const std::string &line);

    /** Has a shutdown request been accepted? The accept loop's exit. */
    bool shutdownRequested() const;

    /**
     * Stops admitting sessions: every later open is refused with a
     * typed {"ok":false,"draining":true,...} reply. In-flight sessions
     * keep running; existing clients keep their full op surface.
     */
    void beginDrain();

    /** Has beginDrain() been called (or a shutdown been accepted)? */
    bool draining() const;

    /**
     * Blocks until every session reached Done, or @p deadline_ms
     * elapsed -- in which case the stragglers are force-expired (the
     * cells of their not-yet-started groups failed as structured
     * records) and
     * waited for until they settle. Returns true when every session
     * finished on its own, false when any had to be force-expired.
     */
    bool drainWait(uint64_t deadline_ms);

    const ServeLimits &limits() const { return limits_; }
    unsigned jobs() const { return jobs_; }

    /** The shared suite runner (tests reach the trace cache via it). */
    SuiteRunner &runner() { return runner_; }

    /**
     * Cells that failed across every session so far (live count). The
     * daemon folds this into its exit code: any served failure makes
     * the process exit kExitPartial, mirroring the batch binaries.
     */
    uint64_t failedCellsTotal() const;

    /** Sessions the lease reaper has expired so far. */
    uint64_t sessionsExpired() const;

  private:
    class Session;

    /** One reclaimed-session record surfaced by the "stats" op. */
    struct SessionRecord
    {
        std::string session;
        std::string grid;
        std::string error;
        uint64_t failedCells = 0;
    };

    std::string handleOpen(const ServeRequest &req);
    std::string handleStart(const ServeRequest &req);
    std::string handleSnapshot(const ServeRequest &req);
    std::string handleWait(const ServeRequest &req);
    std::string handlePing(const ServeRequest &req);
    std::string handleStats();

    /** Locked lookup; null when @p name is unknown. */
    std::shared_ptr<Session> findSession(const std::string &name);

    /**
     * Erases every done-and-delivered (or done-and-expired) session,
     * folding its failure count into retiredFailedCells_ and recording
     * expired sessions for the "stats" op. Caller holds mutex_; safe
     * because a retirable session's threads touch no server state
     * (see Session::retirable()).
     */
    void retireDeliveredSessions();

    /** One lease-reaper sweep: expire stale sessions, retire done ones. */
    void reapExpiredSessions();

    /** Session completion tap (the "stats" op's sessions_done). */
    void noteSessionDone();

    const ServeLimits limits_;
    const unsigned jobs_;
    SuiteRunner runner_;

    mutable std::mutex mutex_; //!< guards sessions_, counters, shutdown_
    std::map<std::string, std::shared_ptr<Session>> sessions_;
    bool shutdown_ = false;
    bool draining_ = false;

    // Lease reaper (started only when idleTimeoutMs > 0).
    std::thread reaper_;
    std::condition_variable reaperWake_; //!< waits on mutex_
    bool reaperStop_ = false;

    // Lifetime counters for the "stats" op.
    uint64_t sessionsOpened_ = 0;
    uint64_t sessionsDone_ = 0;
    uint64_t sessionsRetired_ = 0;
    uint64_t sessionsExpired_ = 0;
    uint64_t sessionsShed_ = 0;

    /** Most recent expired-session records (bounded; stats surfaces). */
    std::deque<SessionRecord> expiredRecords_;

    // Failures carried by sessions that have since been retired; the
    // daemon's exit fate (failedCellsTotal) must not forget them.
    uint64_t retiredFailedCells_ = 0;
};

} // namespace ev8

#endif // EV8_SERVE_SERVER_HH
