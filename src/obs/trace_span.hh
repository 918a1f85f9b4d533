/**
 * @file
 * Low-overhead span tracing for the experiment engine. A SpanTracer
 * collects begin/end scoped spans (category, name, free-form JSON args)
 * into per-thread lock-free buffers that are flushed once at run end
 * into a Chrome trace_event timeline (see trace_writer.hh), loadable in
 * Perfetto or chrome://tracing.
 *
 * Gate discipline matches the rest of the obs layer: recording is off
 * by default and a disabled ScopedSpan costs two clock reads plus one
 * relaxed atomic add (no allocation, no locking). The clock reads feed
 * the always-on coarse per-phase wall-time totals that back the JSON
 * export's telemetry block, so phase attribution works even when no
 * timeline is being recorded.
 *
 * Thread safety: each thread appends to its own chunked buffer. An
 * entry is published with a release store of the chunk's `used` count
 * after the slot is fully written; collect() reads `used` with acquire
 * ordering, so it may be called concurrently with recording and sees
 * only complete entries. Chunk-list growth and thread registration take
 * a mutex, but only once per 256 spans / once per thread.
 */

#ifndef EV8_OBS_TRACE_SPAN_HH
#define EV8_OBS_TRACE_SPAN_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ev8
{

/**
 * The fixed span categories. Every span belongs to one; the enum also
 * names the always-on coarse phase accumulators exported in the JSON
 * telemetry block. Names are stable (CI validates them).
 */
enum class SpanPhase : uint8_t
{
    GridSetup,   //!< checkpoint restore + fused grouping before dispatch
    Cell,        //!< one (row, benchmark) cell execution attempt
    FusedWalk,   //!< one fused multi-lane BlockStream walk
    FusedDemote, //!< a fused group falling back to per-cell execution
    Decode,      //!< trace -> BlockStream decode
    CacheLoad,   //!< trace-cache disk probe/load (hit or miss)
    Checkpoint,  //!< checkpoint journal write / restore
    Merge,       //!< submission-order merge of per-job outputs
    Accept,      //!< serve: accepting/admitting a client session
    SessionRun,  //!< serve: one session's cell grid, end to end
    Snapshot,    //!< serve: building a live session snapshot reply
    None,        //!< sentinel: not a phase, never accumulated
};

constexpr size_t kSpanPhaseCount = static_cast<size_t>(SpanPhase::None);

/** Stable category/phase name ("cell", "fused.walk", ...). */
const char *spanPhaseName(SpanPhase phase);

/** One completed span as stored in the per-thread buffers. */
struct SpanEvent
{
    uint64_t startNs = 0; //!< tracer-epoch-relative start
    uint64_t durNs = 0;
    uint32_t tid = 0;     //!< tracer-assigned small thread id
    SpanPhase phase = SpanPhase::None;
    std::string name;
    std::string args;     //!< pre-serialized JSON object body ("" = none)
};

/** A registered recording thread, for timeline metadata. */
struct SpanThreadInfo
{
    uint32_t tid = 0;
    std::string name; //!< "main", "worker-3", ...
};

/** Coarse always-on accumulation for one phase. */
struct SpanPhaseTotal
{
    uint64_t count = 0;
    uint64_t wallNs = 0;
};

class SpanTracer
{
  public:
    SpanTracer();
    ~SpanTracer();

    SpanTracer(const SpanTracer &) = delete;
    SpanTracer &operator=(const SpanTracer &) = delete;

    /** The process-wide tracer every ScopedSpan records into. */
    static SpanTracer &global();

    /** Starts buffering full span events (--trace-out). */
    void enable() { enabled_.store(true, std::memory_order_relaxed); }
    void disable() { enabled_.store(false, std::memory_order_relaxed); }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Nanoseconds since the tracer's construction (steady clock). */
    uint64_t nowNs() const;

    /**
     * Appends one completed span to the calling thread's buffer.
     * Lock-free except on chunk growth / first call per thread. No-op
     * when recording is disabled. @p args is either empty or the inner
     * body of a JSON object (without braces).
     */
    void record(SpanPhase phase, std::string name, std::string args,
                uint64_t start_ns, uint64_t dur_ns);

    /** Adds to the always-on coarse totals (any thread, any time). */
    void
    addPhase(SpanPhase phase, uint64_t dur_ns)
    {
        if (phase == SpanPhase::None)
            return;
        auto &total = phases_[static_cast<size_t>(phase)];
        total.count.fetch_add(1, std::memory_order_relaxed);
        total.ns.fetch_add(dur_ns, std::memory_order_relaxed);
    }

    /** Names the calling thread in the emitted timeline. */
    void setThreadName(const std::string &name);

    /**
     * Snapshots every published span, sorted by start time. Safe to
     * call while other threads record (sees only complete entries).
     */
    std::vector<SpanEvent> collect() const;

    /** Registered threads, by tid. */
    std::vector<SpanThreadInfo> threads() const;

    /** Coarse totals for every phase, indexed by SpanPhase. */
    std::array<SpanPhaseTotal, kSpanPhaseCount> phaseTotals() const;

    /**
     * Drops all buffered spans, thread registrations and phase totals.
     * Test/run-boundary API: callers must ensure no thread is recording
     * concurrently (worker threads joined or quiescent).
     */
    void clear();

  private:
    static constexpr size_t kChunkSize = 256;

    struct Chunk
    {
        std::atomic<size_t> used{0};
        std::array<SpanEvent, kChunkSize> events;
    };

    struct ThreadBuf
    {
        uint32_t tid = 0;
        std::string name;
        Chunk *cur = nullptr; //!< owner-thread fast-path cursor
        mutable std::mutex mutex; //!< guards chunks growth vs. collect
        std::vector<std::unique_ptr<Chunk>> chunks;
    };

    struct PhaseAtomic
    {
        std::atomic<uint64_t> count{0};
        std::atomic<uint64_t> ns{0};
    };

    ThreadBuf &threadBuf();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    std::array<PhaseAtomic, kSpanPhaseCount> phases_;

    mutable std::mutex mutex_; //!< guards bufs_ registration
    std::vector<std::unique_ptr<ThreadBuf>> bufs_;

    /** Bumped by clear(); invalidates the thread_local buffer cache. */
    std::atomic<uint64_t> epochGen_{0};
};

/**
 * RAII span: construction stamps the start, destruction computes the
 * duration, feeds the coarse phase totals, and -- when the tracer was
 * recording at construction -- appends a full SpanEvent. Destruction on
 * exception unwind still closes the span, so an injected cell fault
 * cannot leave a dangling begin.
 *
 * The default name is the phase name; rename()/arg() refine it and are
 * no-ops (no allocation) when not recording.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(SpanPhase phase, const char *name = nullptr)
        : phase_(phase), staticName_(name),
          recording_(SpanTracer::global().enabled()),
          startNs_(SpanTracer::global().nowNs())
    {}

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        SpanTracer &tracer = SpanTracer::global();
        const uint64_t dur = tracer.nowNs() - startNs_;
        tracer.addPhase(phase_, dur);
        if (recording_) {
            tracer.record(phase_,
                          name_.empty()
                              ? std::string(staticName_
                                                ? staticName_
                                                : spanPhaseName(phase_))
                              : std::move(name_),
                          std::move(args_), startNs_, dur);
        }
    }

    bool recording() const { return recording_; }

    /** Replaces the span's display name (dynamic labels). */
    void
    rename(std::string name)
    {
        if (recording_)
            name_ = std::move(name);
    }

    /** Adds a string argument to the span's args object. */
    void arg(const char *key, const std::string &value);

    /** Adds an unsigned integer argument. */
    void arg(const char *key, uint64_t value);

  private:
    void appendKey(const char *key);

    SpanPhase phase_;
    const char *staticName_;
    bool recording_;
    uint64_t startNs_;
    std::string name_;
    std::string args_;
};

} // namespace ev8

#endif // EV8_OBS_TRACE_SPAN_HH
