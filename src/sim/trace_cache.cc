#include "sim/trace_cache.hh"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>

#include "common/hash.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/fault_injection.hh"

namespace ev8
{

std::string
TraceCache::defaultDir()
{
    const char *env = std::getenv("EV8_TRACE_CACHE_DIR");
    return env ? env : "";
}

uint64_t
TraceCache::profileHash(const WorkloadProfile &profile)
{
    // Every field that can influence the generated trace feeds the
    // hash. When WorkloadProfile grows a field, add it here (and bump
    // kFormatVersion if older caches could now alias).
    ContentHash h;
    h.str(profile.name);
    h.u64(profile.seed);

    const ProgramShape &s = profile.shape;
    h.u64(s.numFunctions);
    h.u64(s.minBlocksPerFunction);
    h.u64(s.maxBlocksPerFunction);
    h.u64(s.minBlockInstrs);
    h.u64(s.maxBlockInstrs);
    h.f64(s.condFraction);
    h.f64(s.jumpFraction);
    h.f64(s.callFraction);
    h.f64(s.loopBackFraction);
    h.u64(s.maxLoopSpan);
    h.f64(s.driverCallFraction);
    h.u64(s.maxCalleesPerSite);
    h.u64(s.driverDispatchWidth);
    h.f64(s.dispatchSwitchChance);
    h.u64(s.textBase);

    const BehaviorMix &m = profile.mix;
    h.f64(m.biased);
    h.f64(m.loop);
    h.f64(m.pattern);
    h.f64(m.globalCorrelated);
    h.f64(m.pathCorrelated);
    h.f64(m.random);

    const BehaviorTuning &t = profile.tuning;
    h.f64(t.biasedNotTakenSkew);
    h.f64(t.biasedStrength);
    h.f64(t.biasedNoise);
    h.u64(t.loopMinTrip);
    h.u64(t.loopMaxTrip);
    h.f64(t.loopReroll);
    h.u64(t.patternMinLen);
    h.u64(t.patternMaxLen);
    h.f64(t.patternNotTakenSkew);
    h.u64(t.corrMinDepth);
    h.u64(t.corrMaxDepth);
    h.u64(t.corrTaps);
    h.f64(t.corrNoise);
    h.f64(t.corrAndWeight);
    h.f64(t.corrXorWeight);
    h.f64(t.corrOrWeight);

    return h.value();
}

TraceCache::TraceCache(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        return;
    // Probe the disk layer now instead of failing (or warning) once per
    // cache miss later: create the directory, then prove it is writable
    // with a throwaway probe file.
    try {
        namespace fs = std::filesystem;
        fs::create_directories(dir_);
        const std::string probe =
            dir_ + "/.ev8-probe." + std::to_string(::getpid());
        {
            std::ofstream out(probe,
                              std::ios::binary | std::ios::trunc);
            out << "probe";
            out.flush();
            if (!out)
                throw std::runtime_error("probe file not writable");
        }
        std::error_code ec;
        fs::remove(probe, ec);
    } catch (const std::exception &err) {
        std::fprintf(stderr,
                     "ev8: trace cache: directory '%s' is unusable "
                     "(%s); falling back to in-memory caching\n",
                     dir_.c_str(), err.what());
        dir_.clear();
        diskDisabled_ = true;
    }
}

void
TraceCache::noteReadError(const std::string &path,
                          const std::string &why) const
{
    readErrors_.fetch_add(1, std::memory_order_relaxed);
    if (!warnedRead_.exchange(true)) {
        std::fprintf(stderr,
                     "ev8: trace cache: discarding unreadable cache "
                     "file '%s' (%s); regenerating (further read "
                     "errors reported only in metrics)\n",
                     path.c_str(), why.c_str());
    }
}

void
TraceCache::noteWriteError(const std::string &path,
                           const std::string &why) const
{
    writeErrors_.fetch_add(1, std::memory_order_relaxed);
    if (!warnedWrite_.exchange(true)) {
        std::fprintf(stderr,
                     "ev8: trace cache: cannot persist cache file "
                     "'%s' (%s); continuing in memory (further write "
                     "errors reported only in metrics)\n",
                     path.c_str(), why.c_str());
    }
}

void
TraceCache::persist(
    const std::string &path,
    const std::function<void(const std::string &)> &write,
    FaultPoint write_point) const
{
    // Best effort: a read-only or full cache directory must not fail
    // the experiment. Temp file + rename keeps concurrent processes
    // from ever reading a torn file; a failure between the two (a
    // crash, or the injected cache_rename fault) leaves only temp-file
    // litter, never a truncated cache entry under the real name.
    try {
        namespace fs = std::filesystem;
        FaultInjector &faults = FaultInjector::global();
        fs::create_directories(dir_);
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        faults.maybeThrow(write_point, path);
        write(tmp);
        if (faults.fires(FaultPoint::CacheShortWrite, path)) {
            // Publish a torn file under the real name: the verifying
            // reader must reject and regenerate it.
            fs::resize_file(tmp, fs::file_size(tmp) / 2);
        }
        faults.maybeThrow(FaultPoint::CacheRename, path);
        fs::rename(tmp, path);
    } catch (const std::exception &err) {
        noteWriteError(path, err.what());
    }
}

std::string
TraceCache::streamFilePath(const WorkloadProfile &profile,
                           uint64_t branches) const
{
    if (dir_.empty())
        return "";
    char tail[96];
    std::snprintf(tail, sizeof(tail), "-%016llx-b%llu-v%u-s%u.ev8s",
                  static_cast<unsigned long long>(profileHash(profile)),
                  static_cast<unsigned long long>(branches),
                  kFormatVersion, kStreamFormatVersion);
    return dir_ + "/" + profile.name + tail;
}

BlockStream
synthesizeBlockStream(const SyntheticProgram &program, std::string name,
                      uint64_t branches, uint64_t run_seed)
{
    BlockStreamBuilder builder(std::move(name), program.startPc(),
                               branches);
    program.run(branches, run_seed,
                [&builder](std::span<const BranchRecord> batch) {
                    for (const BranchRecord &rec : batch)
                        builder.feed(rec);
                });
    return builder.finish();
}

const Trace *
TraceCache::heldTrace(const WorkloadProfile &profile, uint64_t branches)
{
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find({profileHash(profile), branches});
        if (it == entries_.end())
            return nullptr;
        entry = it->second.get();
    }
    return &resolve(*entry, profile, branches);
}

const Trace &
TraceCache::resolve(Entry &entry, const WorkloadProfile &profile,
                    uint64_t branches)
{
    std::call_once(entry.once, [&] {
        entry.trace = generateTrace(profile, branches);
        generated_.fetch_add(1, std::memory_order_relaxed);
    });
    return entry.trace;
}

BlockStream
TraceCache::loadStream(const WorkloadProfile &profile, uint64_t branches)
{
    const std::string path = streamFilePath(profile, branches);
    ScopedSpan span(SpanPhase::CacheLoad);
    span.rename("cache:stream:" + profile.name);
    span.arg("kind", "stream");
    span.arg("bench", profile.name);

    if (!path.empty()) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec) && !ec) {
            try {
                FaultInjector::global().maybeThrow(
                    FaultPoint::CacheRead, path);
                BlockStream stream = readBlockStreamFile(path);
                // Trust but verify: the branch count is the budget the
                // key encodes, so a torn or hand-edited file cannot
                // masquerade as a full-length stream.
                if (stream.name() == profile.name
                    && stream.branches() == branches) {
                    streamDiskHits_.fetch_add(
                        1, std::memory_order_relaxed);
                    span.arg("hit", uint64_t{1});
                    return stream;
                }
                noteReadError(path, "key/content mismatch");
            } catch (const std::exception &err) {
                noteReadError(path, err.what());
            }
        }
    }

    // Stream miss. A Trace someone already asked get() for is decoded,
    // never synthesized a second time. Otherwise synthesis feeds the
    // builder directly, so the Trace never exists.
    span.arg("hit", uint64_t{0});
    BlockStream stream;
    if (const Trace *held = heldTrace(profile, branches)) {
        stream = decodeBlockStream(*held);
    } else {
        ScopedSpan synth(SpanPhase::Decode);
        synth.rename("synthesize:" + profile.name);
        synth.arg("bench", profile.name);
        stream = synthesizeBlockStream(SyntheticProgram(profile),
                                       profile.name, branches);
        generated_.fetch_add(1, std::memory_order_relaxed);
    }
    decoded_.fetch_add(1, std::memory_order_relaxed);

    if (!path.empty()) {
        persist(path, [&](const std::string &tmp) {
            writeBlockStreamFile(tmp, stream);
        }, FaultPoint::CacheWrite);
    }
    return stream;
}

std::string
TraceCache::phaseFilePath(const WorkloadProfile &profile,
                          uint64_t branches, uint64_t window_branches,
                          uint32_t max_phases) const
{
    if (dir_.empty())
        return "";
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  "-%016llx-b%llu-w%llu-p%u-v%u.ev8p",
                  static_cast<unsigned long long>(profileHash(profile)),
                  static_cast<unsigned long long>(branches),
                  static_cast<unsigned long long>(window_branches),
                  max_phases, PhaseMap::kFormatVersion);
    return dir_ + "/phase-" + profile.name + tail;
}

PhaseMap
TraceCache::loadPhases(const WorkloadProfile &profile, uint64_t branches,
                       uint64_t window_branches, uint32_t max_phases)
{
    const std::string path =
        phaseFilePath(profile, branches, window_branches, max_phases);
    ScopedSpan span(SpanPhase::CacheLoad);
    span.rename("cache:phases:" + profile.name);
    span.arg("kind", "phases");
    span.arg("bench", profile.name);

    if (!path.empty()) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec) && !ec) {
            try {
                FaultInjector::global().maybeThrow(
                    FaultPoint::SidecarRead, path);
                PhaseMap map = readPhaseMapFile(path);
                // Trust but verify: the name encodes the content key,
                // but a torn write or a hand-edited sidecar must be
                // rejected and rebuilt, never poison the sampler.
                if (map.name == profile.name
                    && map.branches == branches
                    && map.windowBranches == window_branches
                    && map.maxPhases == max_phases) {
                    span.arg("hit", uint64_t{1});
                    return map;
                }
                noteReadError(path, "key/content mismatch");
            } catch (const std::exception &err) {
                noteReadError(path, err.what());
            }
        }
    }

    // Sidecar miss: rebuild from the stream (which has its own cache
    // layers, so a warm .ev8s still skips synthesis and decode).
    span.arg("hit", uint64_t{0});
    PhaseMap map = buildPhaseMap(stream(profile, branches),
                                 window_branches, max_phases);

    if (!path.empty()) {
        persist(path, [&](const std::string &tmp) {
            writePhaseMapFile(tmp, map);
        }, FaultPoint::SidecarWrite);
    }
    return map;
}

const PhaseMap &
TraceCache::phases(const WorkloadProfile &profile, uint64_t branches,
                   uint64_t window_branches, uint32_t max_phases)
{
    PhaseEntry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<PhaseEntry> &slot =
            phaseEntries_[{profileHash(profile), branches,
                           window_branches, max_phases}];
        if (!slot)
            slot = std::make_unique<PhaseEntry>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        entry->map = loadPhases(profile, branches, window_branches,
                                max_phases);
    });
    return entry->map;
}

void
TraceCache::publishMetrics(MetricRegistry &registry,
                           const std::string &prefix) const
{
    registry.counter(prefix + ".trace_requests")
        .inc(traceRequests_.load());
    registry.counter(prefix + ".traces_generated")
        .inc(generated_.load());
    registry.counter(prefix + ".stream_requests")
        .inc(streamRequests_.load());
    registry.counter(prefix + ".streams_decoded").inc(decoded_.load());
    registry.counter(prefix + ".stream_disk_hits")
        .inc(streamDiskHits_.load());
    registry.counter(prefix + ".read_errors").inc(readErrors_.load());
    registry.counter(prefix + ".write_errors").inc(writeErrors_.load());
}

const BlockStream &
TraceCache::stream(const WorkloadProfile &profile, uint64_t branches)
{
    ++streamRequests_;
    StreamEntry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<StreamEntry> &slot =
            streamEntries_[{profileHash(profile), branches}];
        if (!slot)
            slot = std::make_unique<StreamEntry>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        entry->stream = loadStream(profile, branches);
    });
    return entry->stream;
}

const Trace &
TraceCache::get(const WorkloadProfile &profile, uint64_t branches)
{
    ++traceRequests_;
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<Entry> &slot =
            entries_[{profileHash(profile), branches}];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }
    return resolve(*entry, profile, branches);
}

} // namespace ev8
