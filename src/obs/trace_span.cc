#include "obs/trace_span.hh"

#include <algorithm>
#include <cstdio>

#include "obs/json.hh"

namespace ev8
{

const char *
spanPhaseName(SpanPhase phase)
{
    switch (phase) {
      case SpanPhase::GridSetup: return "grid.setup";
      case SpanPhase::Cell: return "cell";
      case SpanPhase::FusedWalk: return "fused.walk";
      case SpanPhase::FusedDemote: return "fused.demote";
      case SpanPhase::Decode: return "decode";
      case SpanPhase::CacheLoad: return "cache.load";
      case SpanPhase::Checkpoint: return "checkpoint";
      case SpanPhase::Merge: return "merge";
      case SpanPhase::Accept: return "serve.accept";
      case SpanPhase::SessionRun: return "serve.session_run";
      case SpanPhase::Snapshot: return "serve.snapshot";
      case SpanPhase::None: break;
    }
    return "none";
}

SpanTracer::SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

SpanTracer::~SpanTracer() = default;

SpanTracer &
SpanTracer::global()
{
    static SpanTracer tracer;
    return tracer;
}

uint64_t
SpanTracer::nowNs() const
{
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

namespace
{

struct ThreadBufCache
{
    void *buf = nullptr;    //!< SpanTracer::ThreadBuf*
    const void *owner = nullptr; //!< the tracer the cache belongs to
    uint64_t gen = 0;       //!< tracer epochGen_ at registration
};

thread_local ThreadBufCache tl_cache;

} // namespace

SpanTracer::ThreadBuf &
SpanTracer::threadBuf()
{
    // clear() bumps epochGen_, invalidating cached pointers into the
    // buffers it destroyed.
    if (tl_cache.buf && tl_cache.owner == this
        && tl_cache.gen == epochGen_.load(std::memory_order_acquire))
        return *static_cast<ThreadBuf *>(tl_cache.buf);
    std::lock_guard<std::mutex> lock(mutex_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->tid = static_cast<uint32_t>(bufs_.size());
    char name[32];
    std::snprintf(name, sizeof(name), "thread-%u", buf->tid);
    buf->name = name;
    bufs_.push_back(std::move(buf));
    tl_cache.buf = bufs_.back().get();
    tl_cache.owner = this;
    tl_cache.gen = epochGen_.load(std::memory_order_relaxed);
    return *bufs_.back();
}

void
SpanTracer::record(SpanPhase phase, std::string name, std::string args,
                   uint64_t start_ns, uint64_t dur_ns)
{
    if (!enabled())
        return;
    ThreadBuf &buf = threadBuf();
    Chunk *chunk = buf.cur;
    if (!chunk
        || chunk->used.load(std::memory_order_relaxed) == kChunkSize) {
        auto fresh = std::make_unique<Chunk>();
        std::lock_guard<std::mutex> lock(buf.mutex);
        buf.chunks.push_back(std::move(fresh));
        chunk = buf.cur = buf.chunks.back().get();
    }
    const size_t slot = chunk->used.load(std::memory_order_relaxed);
    SpanEvent &event = chunk->events[slot];
    event.startNs = start_ns;
    event.durNs = dur_ns;
    event.tid = buf.tid;
    event.phase = phase;
    event.name = std::move(name);
    event.args = std::move(args);
    chunk->used.store(slot + 1, std::memory_order_release);
}

void
SpanTracer::setThreadName(const std::string &name)
{
    ThreadBuf &buf = threadBuf();
    std::lock_guard<std::mutex> lock(mutex_);
    buf.name = name;
}

std::vector<SpanEvent>
SpanTracer::collect() const
{
    std::vector<SpanEvent> events;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &buf : bufs_) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        for (const auto &chunk : buf->chunks) {
            const size_t used =
                chunk->used.load(std::memory_order_acquire);
            for (size_t i = 0; i < used; ++i)
                events.push_back(chunk->events[i]);
        }
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return a.startNs < b.startNs;
                     });
    return events;
}

std::vector<SpanThreadInfo>
SpanTracer::threads() const
{
    std::vector<SpanThreadInfo> out;
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(bufs_.size());
    for (const auto &buf : bufs_)
        out.push_back(SpanThreadInfo{buf->tid, buf->name});
    return out;
}

std::array<SpanPhaseTotal, kSpanPhaseCount>
SpanTracer::phaseTotals() const
{
    std::array<SpanPhaseTotal, kSpanPhaseCount> out{};
    for (size_t i = 0; i < kSpanPhaseCount; ++i) {
        out[i].count = phases_[i].count.load(std::memory_order_relaxed);
        out[i].wallNs = phases_[i].ns.load(std::memory_order_relaxed);
    }
    return out;
}

void
SpanTracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    bufs_.clear();
    epochGen_.fetch_add(1, std::memory_order_release);
    for (auto &phase : phases_) {
        phase.count.store(0, std::memory_order_relaxed);
        phase.ns.store(0, std::memory_order_relaxed);
    }
}

void
ScopedSpan::appendKey(const char *key)
{
    if (!args_.empty())
        args_ += ',';
    args_ += '"';
    args_ += key;
    args_ += "\":";
}

void
ScopedSpan::arg(const char *key, const std::string &value)
{
    if (!recording_)
        return;
    appendKey(key);
    args_ += '"';
    args_ += escapeJson(value);
    args_ += '"';
}

void
ScopedSpan::arg(const char *key, uint64_t value)
{
    if (!recording_)
        return;
    appendKey(key);
    args_ += std::to_string(value);
}

} // namespace ev8
