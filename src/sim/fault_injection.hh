/**
 * @file
 * Deterministic fault injection for the experiment engine and its
 * storage layers.
 *
 * Robustness claims ("a failing cell no longer aborts the grid", "a
 * torn cache write regenerates cleanly", "a killed run resumes
 * byte-identically") are only testable if faults can be produced on
 * demand, at an exact site, on an exact run -- and reproduced. The
 * injector provides that: named fault points compiled into the
 * production code paths, armed by the EV8_FAULT_SPEC environment
 * variable, firing deterministically by per-key occurrence count (and
 * optionally by a seeded hash when probabilistic firing is asked for).
 * With no spec armed every hook is a single vector-emptiness check.
 *
 * Spec grammar (comma-separated entries, no whitespace):
 *
 *     EV8_FAULT_SPEC := entry (',' entry)*
 *     entry          := "seed=" N
 *                     | point ['/' keysub] ['@' first] ['+' count] ['~' prob]
 *     point          := job | die | cache_read | cache_write
 *                     | cache_rename | cache_short_write
 *                     | ckpt_read | ckpt_write | ckpt_corrupt
 *                     | session_drop
 *                     | sidecar_read | sidecar_write
 *                     | conn_drop | slow_peer
 *
 *  - keysub selects which keys the entry applies to: a substring match
 *    against the site's key (a grid cell key like "g0/r2/gcc", or a
 *    cache/checkpoint file path). A keysub starting with '=' requires
 *    an exact key match. Empty matches every key.
 *  - first (default 1) is the 1-based occurrence at which the entry
 *    starts firing; occurrences are counted per (entry, exact key), so
 *    firing is independent of thread interleaving.
 *  - count (default 1) is how many consecutive occurrences fire; '*'
 *    means every occurrence from @p first on (a permanent fault).
 *  - prob in [0,1] gates each would-fire occurrence by a hash of
 *    (seed, entry, key, occurrence) -- deterministic pseudo-randomness,
 *    identical across runs and thread schedules.
 *
 * Examples:
 *
 *     job/=g0/r0/gcc+*          the (row 0, gcc) cell of the first grid
 *                               batch fails permanently
 *     cache_read/+2             the first two attempted cache-file reads
 *                               (any key) fail
 *     die/=g3/r0/compress@1     SIGKILL the process when batch 3 first
 *                               schedules (row 0, compress)
 *     seed=7,job~0.1            every cell fails with probability 0.1
 *
 * What fires where:
 *
 *  - job:               the experiment engine throws InjectedFault
 *                       before running the cell (a fused group throws
 *                       if any of its lanes' keys match, which forces
 *                       the per-cell fallback)
 *  - die:               the engine prints one stderr line and raises
 *                       SIGKILL -- a real, unhandled kill, for
 *                       checkpoint/resume tests
 *  - cache_read:        TraceCache fails an attempted cache-file read
 *  - cache_write:       TraceCache fails a cache-file write
 *  - cache_short_write: TraceCache truncates the temp file to half its
 *                       size before the atomic rename (a torn write
 *                       that survives the rename discipline)
 *  - cache_rename:      TraceCache fails after writing the temp file
 *                       but before renaming it (a crash-before-rename,
 *                       leaving .tmp litter)
 *  - ckpt_read:         GridCheckpoint fails loading its journal
 *  - ckpt_write:        GridCheckpoint fails appending a record
 *  - ckpt_corrupt:      GridCheckpoint writes a torn (half) record
 *  - session_drop:      a served session's cell body throws
 *                       (consulted only for served cells, so batch
 *                       grids never burn its occurrences); keys are
 *                       "<session>/g0/r<row>/<bench>"
 *  - sidecar_read:      TraceCache fails an attempted phase-map sidecar
 *                       read (the map is rebuilt from the stream)
 *  - sidecar_write:     TraceCache fails a phase-map sidecar write (the
 *                       in-memory map stays valid; only caching is lost)
 *  - conn_drop:         the serve daemon closes the client connection
 *                       after handling the matched request, before the
 *                       reply is written -- the peer simply vanishes;
 *                       keys are "<session>/<op>" ("-" when the
 *                       request names no session)
 *  - slow_peer:         the serve daemon sleeps for a deterministic
 *                       pause before writing the matched reply -- a
 *                       glacial network, timing-only; same keys as
 *                       conn_drop
 *
 * Note that the engine's fused path consumes one occurrence per armed
 * key at the fused attempt and more during the per-cell fallback and
 * retries: a one-shot "job" fault is healed by the retry machinery (by
 * design -- that is the transient-fault scenario); use '+*' to make a
 * cell fail permanently.
 */

#ifndef EV8_SIM_FAULT_INJECTION_HH
#define EV8_SIM_FAULT_INJECTION_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ev8
{

/** The exception an armed "job"/"cache_*"/"ckpt_*" fault point throws. */
class InjectedFault : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The named fault points compiled into the production paths. */
enum class FaultPoint
{
    Job,             //!< experiment cell body
    Die,             //!< SIGKILL the process (checkpoint/resume tests)
    CacheRead,       //!< trace/stream cache file read
    CacheWrite,      //!< trace/stream cache file write
    CacheRename,     //!< crash between temp write and atomic rename
    CacheShortWrite, //!< truncate the temp file before the rename
    CkptRead,        //!< checkpoint journal load
    CkptWrite,       //!< checkpoint record append
    CkptCorrupt,     //!< checkpoint record torn mid-write
    SessionDrop,     //!< served session cell body (serve/server.hh)
    SidecarRead,     //!< phase-map sidecar file read (trace cache)
    SidecarWrite,    //!< phase-map sidecar file write (trace cache)
    ConnDrop,        //!< serve daemon drops the client connection
    SlowPeer,        //!< serve daemon delays one reply (timing only)
};

class FaultInjector
{
  public:
    /** An injector with no armed faults (every hook is a no-op). */
    FaultInjector() = default;

    /**
     * Parses @p spec (see file comment). Throws std::invalid_argument
     * with a human-readable message on malformed input. An empty spec
     * arms nothing.
     */
    explicit FaultInjector(const std::string &spec);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Any entries armed? The hot-path fast-out. */
    bool enabled() const { return !entries_.empty(); }

    /**
     * Counts one occurrence of @p key at @p point against every
     * matching entry and reports whether any of them fires. Occurrence
     * counters are per (entry, exact key), so the answer depends only
     * on how many times this (point, key) pair has been consulted --
     * never on thread scheduling. Thread-safe.
     */
    bool fires(FaultPoint point, const std::string &key);

    /** Throws InjectedFault when fires(point, key). */
    void maybeThrow(FaultPoint point, const std::string &key);

    /**
     * The Die point: when fires(Die, key), prints one stderr line and
     * raises SIGKILL -- the process dies unhandled, exactly like an OOM
     * kill or a cluster preemption.
     */
    void maybeKill(const std::string &key);

    /** The spec spelling of @p point ("job", "cache_read", ...). */
    static const char *pointName(FaultPoint point);

    /**
     * The process-wide injector, parsed from EV8_FAULT_SPEC. A
     * malformed spec is a hard usage error: message to stderr, exit 2
     * (matching EV8_JOBS). Re-reads the environment variable on each
     * call and re-parses when it changed, so tests can re-arm between
     * runs; do not change EV8_FAULT_SPEC while a grid is in flight.
     */
    static FaultInjector &global();

  private:
    struct Entry
    {
        FaultPoint point = FaultPoint::Job;
        std::string keySub;    //!< "" = any; leading '=' = exact match
        uint64_t first = 1;    //!< 1-based occurrence that starts firing
        uint64_t count = 1;    //!< consecutive firing occurrences
        bool permanent = false; //!< '+*': fire forever from @p first
        double prob = 1.0;     //!< per-occurrence firing probability
    };

    bool matches(const Entry &entry, FaultPoint point,
                 const std::string &key) const;

    std::vector<Entry> entries_;
    uint64_t seed_ = 0;

    std::mutex mutex_; //!< guards occurrences_
    std::map<std::pair<size_t, std::string>, uint64_t> occurrences_;
};

} // namespace ev8

#endif // EV8_SIM_FAULT_INJECTION_HH
