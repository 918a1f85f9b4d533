/**
 * @file
 * Thread-safe, once-per-profile trace cache with an optional persistent
 * on-disk layer.
 *
 * Trace synthesis dominates a bench binary's startup and every
 * experiment grid replays the same eight suite traces, so traces are
 * generated exactly once per (profile, branch budget) key no matter how
 * many worker threads ask concurrently: the first caller generates (or
 * loads), everyone else blocks on the same std::once_flag and then
 * shares the immutable Trace.
 *
 * Most callers want the pre-decoded BlockStream, not the Trace. A
 * stream() miss synthesizes straight into a BlockStreamBuilder, so the
 * 24-byte-per-record Trace is never materialized: it is neither held
 * nor persisted, and a cold process holds only the stream. A miss
 * decodes from a Trace only when one is already at hand: get() was
 * called for the key (table2, table3, the banking ablation), or a
 * .ev8t file for it is on disk.
 *
 * The disk layer (enabled by EV8_TRACE_CACHE_DIR or an explicit
 * directory argument) persists built streams (.ev8s) and the traces
 * get() generates (.ev8t, in the trace_io binary format) so repeated
 * bench invocations skip synthesis entirely. Cache keys are
 * collision-proofed against staleness on three axes:
 *
 *  - a content hash over *every* field of the WorkloadProfile (name,
 *    seed, program shape, behaviour mix and tuning), so editing a
 *    benchmark's calibration invalidates its cached trace;
 *  - the branch budget, so rescaled runs never alias;
 *  - kFormatVersion, bumped whenever trace generation semantics or the
 *    serialized format change, so old cache directories age out instead
 *    of silently corrupting experiments.
 *
 * Unreadable, truncated or mismatched cache files are regenerated (and
 * rewritten) rather than trusted; disk writes go through a temp file +
 * atomic rename so concurrent processes cannot observe torn files.
 *
 * Failure semantics: the disk layer is strictly best-effort. A cache
 * directory that cannot be created or written degrades the cache to
 * in-memory operation with a single stderr warning (diskDisabled());
 * individual read/write failures are counted (readErrorCount(),
 * writeErrorCount()), warned about once each, and never propagate --
 * the experiment regenerates whatever the disk could not supply. The
 * cache_read/cache_write/cache_rename/cache_short_write points of
 * sim/fault_injection.hh exercise exactly these paths.
 */

#ifndef EV8_SIM_TRACE_CACHE_HH
#define EV8_SIM_TRACE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "sim/block_stream.hh"
#include "sim/phase/phase_map.hh"
#include "trace/trace.hh"
#include "workloads/synthetic_program.hh"

namespace ev8
{

class MetricRegistry;  // obs/metrics.hh
enum class FaultPoint; // sim/fault_injection.hh

class TraceCache
{
  public:
    /**
     * Bump when generateTrace() semantics or the on-disk encoding
     * change: stale files from older builds must miss, not load.
     */
    static constexpr unsigned kFormatVersion = 1;

    /**
     * Bump when fetch-block decode semantics (FetchBlockBuilder) or the
     * BlockStream on-disk encoding change. Stream cache file names carry
     * both versions: a stream is only as valid as the trace it was
     * decoded from.
     */
    static constexpr unsigned kStreamFormatVersion = 2;

    /** EV8_TRACE_CACHE_DIR, or "" (disk layer disabled). */
    static std::string defaultDir();

    /**
     * Stable content hash over every profile field. Two profiles that
     * could generate different traces hash differently.
     */
    static uint64_t profileHash(const WorkloadProfile &profile);

    /**
     * @param dir on-disk cache directory; "" keeps the cache in-memory
     *        only. A non-empty directory is probed up front (created if
     *        absent, then a probe file is written and removed); if the
     *        probe fails the cache warns once on stderr and degrades to
     *        in-memory operation instead of failing every experiment
     *        that touches it.
     */
    explicit TraceCache(std::string dir = defaultDir());

    TraceCache(const TraceCache &) = delete;
    TraceCache &operator=(const TraceCache &) = delete;

    /**
     * The trace of @p profile at @p branches dynamic conditional
     * branches. Thread-safe; the returned reference stays valid for the
     * cache's lifetime.
     */
    const Trace &get(const WorkloadProfile &profile, uint64_t branches);

    /**
     * The pre-decoded fetch-block stream of @p profile at @p branches.
     * Built exactly once per key (same once_flag discipline as get()):
     * from a warm .ev8s file, else by decoding the key's Trace if get()
     * holds it or a .ev8t file exists, else by synthesizing straight
     * into the builder. Thread-safe; the reference stays valid for the
     * cache's lifetime.
     */
    const BlockStream &stream(const WorkloadProfile &profile,
                              uint64_t branches);

    /**
     * The phase map of @p profile's stream at @p branches, tiled at
     * @p window_branches per window and classified with at most
     * @p max_phases phases. Built exactly once per key (once_flag) and
     * persisted as a `phase-...` sidecar next to the .ev8s file when
     * the disk layer is on: content-hash keyed, atomic temp-file +
     * rename writes, trust-but-verify reads. A stale or corrupt
     * sidecar is discarded (readErrorCount()) and rebuilt from the
     * stream; the sidecar_read/sidecar_write fault points exercise
     * both paths. Thread-safe; the reference stays valid for the
     * cache's lifetime.
     */
    const PhaseMap &phases(const WorkloadProfile &profile,
                           uint64_t branches, uint64_t window_branches,
                           uint32_t max_phases);

    /**
     * The cache file this (profile, budget) key maps to, or "" when the
     * disk layer is disabled. Exposed for tests and tooling.
     */
    std::string filePath(const WorkloadProfile &profile,
                         uint64_t branches) const;

    /** Like filePath(), for the pre-decoded block stream (.ev8s). */
    std::string streamFilePath(const WorkloadProfile &profile,
                               uint64_t branches) const;

    /** Like filePath(), for the phase-map sidecar (.ev8p). */
    std::string phaseFilePath(const WorkloadProfile &profile,
                              uint64_t branches,
                              uint64_t window_branches,
                              uint32_t max_phases) const;

    const std::string &dir() const { return dir_; }

    /**
     * Synthesis runs by this cache, into either sink: a Trace (a get()
     * miss) or a BlockStreamBuilder (a stream() miss with no Trace at
     * hand). Exported as trace_cache.traces_generated.
     */
    uint64_t generatedCount() const { return generated_.load(); }

    /** Traces read from the on-disk layer (.ev8t). */
    uint64_t diskHitCount() const { return diskHits_.load(); }

    /** Block streams built by this cache (stream disk misses). */
    uint64_t decodedCount() const { return decoded_.load(); }

    /** Block streams served from the on-disk layer. */
    uint64_t streamDiskHitCount() const { return streamDiskHits_.load(); }

    /** Trace lookups answered (hits + generations). */
    uint64_t traceRequestCount() const { return traceRequests_.load(); }

    /** Stream lookups answered (hits + decodes). */
    uint64_t
    streamRequestCount() const
    {
        return streamRequests_.load();
    }

    /**
     * A disk layer was requested but its directory proved unusable, so
     * the cache fell back to in-memory operation. The bench harness
     * exports this as the trace_cache.disk_disabled metric.
     */
    bool diskDisabled() const { return diskDisabled_; }

    /** Cache files that failed to read or verify (then regenerated). */
    uint64_t readErrorCount() const { return readErrors_.load(); }

    /** Cache file writes that failed (results stayed in memory). */
    uint64_t writeErrorCount() const { return writeErrors_.load(); }

    /**
     * Publishes the cache's request/hit/generate counters (plus the
     * read_errors/write_errors fault tallies) under @p prefix (e.g.
     * "trace_cache.stream_requests"): the stream-layer view of how much
     * decode work grid fusion and the once-per-key discipline avoided.
     * Requested explicitly by the bench harness (EV8_CACHE_METRICS)
     * because the values legitimately differ between cold/warm cache
     * runs of otherwise identical experiments.
     */
    void publishMetrics(MetricRegistry &registry,
                        const std::string &prefix) const;

  private:
    struct Entry
    {
        std::once_flag once;
        Trace trace;
    };

    struct StreamEntry
    {
        std::once_flag once;
        BlockStream stream;
    };

    struct PhaseEntry
    {
        std::once_flag once;
        PhaseMap map;
    };

    /**
     * The key's verified .ev8t file, or nullopt when the disk layer is
     * off, the file is absent, or it fails to read or verify (counted
     * by noteReadError()). Counts a disk hit on success.
     */
    std::optional<Trace> readTraceDisk(const WorkloadProfile &profile,
                                       uint64_t branches) const;

    /** The .ev8t file, else synthesis (then persisted as .ev8t). */
    Trace load(const WorkloadProfile &profile, uint64_t branches) const;

    /** Waits for (or runs) @p entry's once-only load. */
    const Trace &resolve(Entry &entry, const WorkloadProfile &profile,
                         uint64_t branches);

    /**
     * The key's Trace if get() has ever been asked for it (waiting for
     * a load in flight), else nullptr; never starts a new entry.
     */
    const Trace *heldTrace(const WorkloadProfile &profile,
                           uint64_t branches);

    BlockStream loadStream(const WorkloadProfile &profile,
                           uint64_t branches);
    PhaseMap loadPhases(const WorkloadProfile &profile,
                        uint64_t branches, uint64_t window_branches,
                        uint32_t max_phases);

    /**
     * Best-effort persist: @p write fills a temp file that is atomically
     * renamed to @p path. Any failure (including injected faults) is
     * counted, warned about once, and swallowed. @p write_point is the
     * fault-injection hook consulted before the write (CacheWrite for
     * trace/stream files, SidecarWrite for phase sidecars).
     */
    void persist(const std::string &path,
                 const std::function<void(const std::string &)> &write,
                 FaultPoint write_point) const;

    void noteReadError(const std::string &path,
                       const std::string &why) const;
    void noteWriteError(const std::string &path,
                        const std::string &why) const;

    std::string dir_;
    bool diskDisabled_ = false;
    mutable std::mutex mutex_;   //!< guards entries_ map shape only
    std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<Entry>>
        entries_;
    std::map<std::pair<uint64_t, uint64_t>, std::unique_ptr<StreamEntry>>
        streamEntries_;
    std::map<std::tuple<uint64_t, uint64_t, uint64_t, uint32_t>,
             std::unique_ptr<PhaseEntry>>
        phaseEntries_;
    mutable std::atomic<uint64_t> generated_{0};
    mutable std::atomic<uint64_t> diskHits_{0};
    mutable std::atomic<uint64_t> decoded_{0};
    mutable std::atomic<uint64_t> streamDiskHits_{0};
    mutable std::atomic<uint64_t> traceRequests_{0};
    mutable std::atomic<uint64_t> streamRequests_{0};
    mutable std::atomic<uint64_t> readErrors_{0};
    mutable std::atomic<uint64_t> writeErrors_{0};
    mutable std::atomic<bool> warnedRead_{false};
    mutable std::atomic<bool> warnedWrite_{false};
};

} // namespace ev8

#endif // EV8_SIM_TRACE_CACHE_HH
