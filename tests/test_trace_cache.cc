/**
 * @file
 * Tests for the trace cache: once-per-key generation (also under
 * concurrency), the persistent disk layer, and the staleness armour --
 * version-stamped file names keyed on a full profile-content hash, with
 * corrupt or mismatched files regenerated rather than trusted.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/block_stream.hh"
#include "sim/phase/phase_map.hh"
#include "sim/trace_cache.hh"
#include "trace/trace_io.hh"
#include "workloads/suite.hh"

#include "scoped_env.hh"
#include "temp_path.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kTinyBranches = 2000;

WorkloadProfile
testProfile()
{
    return findBenchmark("gcc").profile;
}

/** A scratch cache directory, removed on scope exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &leaf)
        : path_(uniqueTempPath(leaf, ""))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }

    ~ScratchDir() { std::filesystem::remove_all(path_); }

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

std::string
serialize(const Trace &trace)
{
    std::ostringstream out;
    writeTrace(out, trace);
    return out.str();
}

TEST(TraceCache, GeneratesOncePerKey)
{
    TraceCache cache("");
    const Trace &a = cache.get(testProfile(), kTinyBranches);
    const Trace &b = cache.get(testProfile(), kTinyBranches);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.generatedCount(), 1u);
    EXPECT_EQ(a.stats().dynamicCondBranches, kTinyBranches);
}

TEST(TraceCache, DistinctBudgetsAreDistinctEntries)
{
    TraceCache cache("");
    const Trace &small = cache.get(testProfile(), kTinyBranches);
    const Trace &large = cache.get(testProfile(), 2 * kTinyBranches);
    EXPECT_NE(&small, &large);
    EXPECT_EQ(cache.generatedCount(), 2u);
    EXPECT_EQ(large.stats().dynamicCondBranches, 2 * kTinyBranches);
}

TEST(TraceCache, ConcurrentGetSynthesizesExactlyOnce)
{
    TraceCache cache("");
    std::vector<const Trace *> seen(8, nullptr);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < seen.size(); ++t) {
        threads.emplace_back([&cache, &seen, t] {
            seen[t] = &cache.get(testProfile(), kTinyBranches);
        });
    }
    for (auto &t : threads)
        t.join();
    for (const Trace *trace : seen)
        EXPECT_EQ(trace, seen[0]);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCache, ProfileHashCoversContentNotJustName)
{
    const WorkloadProfile base = testProfile();
    const uint64_t h0 = TraceCache::profileHash(base);

    WorkloadProfile reseeded = base;
    reseeded.seed += 1;
    EXPECT_NE(TraceCache::profileHash(reseeded), h0);

    WorkloadProfile reshaped = base;
    reshaped.shape.condFraction += 0.01;
    EXPECT_NE(TraceCache::profileHash(reshaped), h0);

    // Same content hashes the same, through an independent copy.
    EXPECT_EQ(TraceCache::profileHash(testProfile()), h0);
}

TEST(TraceCache, FilePathCarriesVersionStampAndBudget)
{
    TraceCache cache("/tmp/ev8-cache-naming-test");
    const std::string path = cache.filePath(testProfile(), kTinyBranches);
    EXPECT_NE(path.find("gcc-"), std::string::npos) << path;
    EXPECT_NE(path.find("-b2000-"), std::string::npos) << path;
    const std::string stamp =
        "-v" + std::to_string(TraceCache::kFormatVersion) + ".ev8t";
    EXPECT_NE(path.find(stamp), std::string::npos) << path;

    TraceCache memory_only("");
    EXPECT_EQ(memory_only.filePath(testProfile(), kTinyBranches), "");
}

TEST(TraceCache, DiskLayerPersistsAndReloads)
{
    ScratchDir dir("ev8_trace_cache_disk");

    TraceCache writer(dir.str());
    const Trace &generated = writer.get(testProfile(), kTinyBranches);
    EXPECT_EQ(writer.generatedCount(), 1u);
    EXPECT_EQ(writer.diskHitCount(), 0u);
    const std::string path =
        writer.filePath(testProfile(), kTinyBranches);
    ASSERT_TRUE(std::filesystem::exists(path)) << path;

    // A fresh cache over the same directory loads instead of
    // regenerating, and serves the identical trace bytes.
    TraceCache reader(dir.str());
    const Trace &loaded = reader.get(testProfile(), kTinyBranches);
    EXPECT_EQ(reader.generatedCount(), 0u);
    EXPECT_EQ(reader.diskHitCount(), 1u);
    EXPECT_EQ(serialize(loaded), serialize(generated));
}

TEST(TraceCache, ChangedProfileRegeneratesInsteadOfReusingStaleFile)
{
    ScratchDir dir("ev8_trace_cache_stale");

    TraceCache first(dir.str());
    first.get(testProfile(), kTinyBranches);
    EXPECT_EQ(first.generatedCount(), 1u);

    // Recalibrate the benchmark: same name, different behaviour. The
    // content hash moves, so the old file must not satisfy the new key.
    WorkloadProfile edited = testProfile();
    edited.shape.condFraction += 0.01;
    EXPECT_NE(first.filePath(edited, kTinyBranches),
              first.filePath(testProfile(), kTinyBranches));

    TraceCache second(dir.str());
    const Trace &regenerated = second.get(edited, kTinyBranches);
    EXPECT_EQ(second.diskHitCount(), 0u) << "stale file reused";
    EXPECT_EQ(second.generatedCount(), 1u);
    EXPECT_EQ(regenerated.stats().dynamicCondBranches, kTinyBranches);

    // Both variants now coexist on disk under distinct names.
    EXPECT_TRUE(std::filesystem::exists(
        second.filePath(edited, kTinyBranches)));
    EXPECT_TRUE(std::filesystem::exists(
        second.filePath(testProfile(), kTinyBranches)));
}

TEST(TraceCache, StreamDecodedOncePerKeyAndMatchesDirectDecode)
{
    TraceCache cache("");
    const BlockStream &a = cache.stream(testProfile(), kTinyBranches);
    const BlockStream &b = cache.stream(testProfile(), kTinyBranches);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.decodedCount(), 1u);
    EXPECT_EQ(cache.streamDiskHitCount(), 0u);
    EXPECT_EQ(a.branches(), kTinyBranches);
    EXPECT_TRUE(a
                == decodeBlockStream(cache.get(testProfile(),
                                               kTinyBranches)));
}

TEST(TraceCache, StreamFilePathCarriesBothVersionStamps)
{
    TraceCache cache("/tmp/ev8-cache-naming-test");
    const std::string path =
        cache.streamFilePath(testProfile(), kTinyBranches);
    EXPECT_NE(path.find("gcc-"), std::string::npos) << path;
    EXPECT_NE(path.find("-b2000-"), std::string::npos) << path;
    const std::string stamp = "-v"
        + std::to_string(TraceCache::kFormatVersion) + "-s"
        + std::to_string(TraceCache::kStreamFormatVersion) + ".ev8s";
    EXPECT_NE(path.find(stamp), std::string::npos) << path;

    TraceCache memory_only("");
    EXPECT_EQ(memory_only.streamFilePath(testProfile(), kTinyBranches),
              "");
}

TEST(TraceCache, WarmStreamDiskLayerSkipsSynthesisAndDecode)
{
    ScratchDir dir("ev8_stream_cache_disk");

    TraceCache writer(dir.str());
    const BlockStream &decoded =
        writer.stream(testProfile(), kTinyBranches);
    EXPECT_EQ(writer.decodedCount(), 1u);
    EXPECT_EQ(writer.generatedCount(), 1u);
    const std::string path =
        writer.streamFilePath(testProfile(), kTinyBranches);
    ASSERT_TRUE(std::filesystem::exists(path)) << path;

    // A fresh cache over the warm directory serves the identical stream
    // without synthesizing the trace or re-decoding it.
    TraceCache reader(dir.str());
    const BlockStream &loaded =
        reader.stream(testProfile(), kTinyBranches);
    EXPECT_EQ(reader.streamDiskHitCount(), 1u);
    EXPECT_EQ(reader.decodedCount(), 0u);
    EXPECT_EQ(reader.generatedCount(), 0u);
    EXPECT_TRUE(loaded == decoded);
}

TEST(TraceCache, CorruptStreamFileIsRedecoded)
{
    ScratchDir dir("ev8_stream_cache_corrupt");

    TraceCache writer(dir.str());
    const BlockStream expected =
        writer.stream(testProfile(), kTinyBranches);
    const std::string path =
        writer.streamFilePath(testProfile(), kTinyBranches);

    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << "EV8Sgarbage-not-a-stream";
    }

    TraceCache reader(dir.str());
    const BlockStream &recovered =
        reader.stream(testProfile(), kTinyBranches);
    EXPECT_EQ(reader.streamDiskHitCount(), 0u);
    EXPECT_EQ(reader.decodedCount(), 1u);
    EXPECT_TRUE(recovered == expected);

    // The re-decode also healed the on-disk copy.
    EXPECT_TRUE(readBlockStreamFile(path) == expected);
}

TEST(TraceCache, CorruptCacheFileIsRegenerated)
{
    ScratchDir dir("ev8_trace_cache_corrupt");

    TraceCache writer(dir.str());
    const std::string expected = serialize(
        writer.get(testProfile(), kTinyBranches));
    const std::string path =
        writer.filePath(testProfile(), kTinyBranches);

    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << "EV8Tgarbage-not-a-trace";
    }

    TraceCache reader(dir.str());
    const Trace &recovered = reader.get(testProfile(), kTinyBranches);
    EXPECT_EQ(reader.diskHitCount(), 0u);
    EXPECT_EQ(reader.generatedCount(), 1u);
    EXPECT_EQ(serialize(recovered), expected);

    // The regeneration also healed the on-disk copy.
    EXPECT_EQ(serialize(readTraceFile(path)), expected);
}

TEST(TraceCacheFaults, UnusableDirectoryDegradesToMemoryOperation)
{
    ScratchDir dir("ev8_trace_cache_unusable");
    // A cache rooted under a regular file: the construction probe must
    // fail (create_directories cannot make a directory there), whatever
    // the process's privileges -- a chmod-based test is a no-op for
    // root.
    const std::string file = dir.str() + "/plain-file";
    std::ofstream(file) << "x";

    TraceCache cache(file + "/sub");
    EXPECT_TRUE(cache.diskDisabled());
    EXPECT_TRUE(cache.dir().empty());
    EXPECT_EQ(cache.filePath(testProfile(), kTinyBranches), "");

    // And it still serves traces, purely from memory.
    const Trace &trace = cache.get(testProfile(), kTinyBranches);
    EXPECT_EQ(trace.stats().dynamicCondBranches, kTinyBranches);
    EXPECT_EQ(cache.generatedCount(), 1u);
}

TEST(TraceCacheFaults, InjectedReadFaultRegeneratesAndCounts)
{
    ScratchDir dir("ev8_trace_cache_read_fault");
    std::string expected;
    {
        TraceCache writer(dir.str());
        expected = serialize(writer.get(testProfile(), kTinyBranches));
    }

    // Every cache file's first read attempt fails.
    ScopedEnv spec("EV8_FAULT_SPEC", "cache_read/+1");
    TraceCache reader(dir.str());
    const Trace &recovered = reader.get(testProfile(), kTinyBranches);
    EXPECT_EQ(serialize(recovered), expected);
    EXPECT_EQ(reader.diskHitCount(), 0u);
    EXPECT_EQ(reader.generatedCount(), 1u);
    EXPECT_GE(reader.readErrorCount(), 1u);
    EXPECT_FALSE(reader.diskDisabled()); // read faults never disable disk
}

TEST(TraceCacheFaults, InjectedWriteFaultKeepsResultsInMemory)
{
    ScratchDir dir("ev8_trace_cache_write_fault");
    ScopedEnv spec("EV8_FAULT_SPEC", "cache_write+*");
    TraceCache cache(dir.str());
    const Trace &trace = cache.get(testProfile(), kTinyBranches);
    EXPECT_EQ(trace.stats().dynamicCondBranches, kTinyBranches);
    EXPECT_GE(cache.writeErrorCount(), 1u);
    EXPECT_FALSE(std::filesystem::exists(
        cache.filePath(testProfile(), kTinyBranches)));
}

TEST(TraceCacheFaults, CrashBeforeRenameLeavesNoVisibleCacheFile)
{
    ScratchDir dir("ev8_trace_cache_rename_fault");
    std::string path;
    {
        // The temp file is written, then the "crash" hits before the
        // atomic rename: the final path must never appear.
        ScopedEnv spec("EV8_FAULT_SPEC", "cache_rename+*");
        TraceCache cache(dir.str());
        cache.get(testProfile(), kTinyBranches);
        path = cache.filePath(testProfile(), kTinyBranches);
        EXPECT_FALSE(std::filesystem::exists(path)) << path;
        EXPECT_GE(cache.writeErrorCount(), 1u);
    }
    // A later fault-free cache simply regenerates and heals the disk.
    TraceCache healed(dir.str());
    healed.get(testProfile(), kTinyBranches);
    EXPECT_EQ(healed.generatedCount(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path));
}

TEST(TraceCacheFaults, TornStreamWriteIsRejectedOnReloadAndHealed)
{
    ScratchDir dir("ev8_stream_cache_torn");
    BlockStream expected;
    std::string path;
    {
        // The .ev8s stream file is truncated to half its size before
        // the rename: a torn write that survives the rename discipline.
        ScopedEnv spec("EV8_FAULT_SPEC", "cache_short_write/.ev8s+*");
        TraceCache writer(dir.str());
        expected = writer.stream(testProfile(), kTinyBranches);
        path = writer.streamFilePath(testProfile(), kTinyBranches);
        ASSERT_TRUE(std::filesystem::exists(path)) << path;
    }
    // The truncated file must fail verification mid-read and be
    // re-decoded -- never crash, never serve garbage.
    TraceCache reader(dir.str());
    const BlockStream &recovered =
        reader.stream(testProfile(), kTinyBranches);
    EXPECT_TRUE(recovered == expected);
    EXPECT_EQ(reader.streamDiskHitCount(), 0u);
    EXPECT_GE(reader.readErrorCount(), 1u);
    // And the reload healed the on-disk copy.
    EXPECT_TRUE(readBlockStreamFile(path) == expected);
}

constexpr uint64_t kPhaseWindow = 256;
constexpr uint32_t kPhaseCap = 4;

TEST(TraceCachePhases, SidecarPersistsAndReloads)
{
    ScratchDir dir("ev8_phase_sidecar_roundtrip");
    PhaseMap expected;
    std::string path;
    {
        TraceCache writer(dir.str());
        expected = writer.phases(testProfile(), kTinyBranches,
                                 kPhaseWindow, kPhaseCap);
        path = writer.phaseFilePath(testProfile(), kTinyBranches,
                                    kPhaseWindow, kPhaseCap);
        ASSERT_TRUE(std::filesystem::exists(path)) << path;
    }
    TraceCache reader(dir.str());
    const PhaseMap &loaded = reader.phases(testProfile(), kTinyBranches,
                                           kPhaseWindow, kPhaseCap);
    EXPECT_EQ(loaded, expected);
    EXPECT_EQ(reader.readErrorCount(), 0u);
}

TEST(TraceCachePhases, BuiltOncePerKeyAndDistinctPerKnobs)
{
    TraceCache cache("");
    const PhaseMap &a =
        cache.phases(testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    const PhaseMap &b =
        cache.phases(testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    EXPECT_EQ(&a, &b);
    // A different window budget or phase cap is a different map.
    const PhaseMap &c = cache.phases(testProfile(), kTinyBranches,
                                     2 * kPhaseWindow, kPhaseCap);
    EXPECT_NE(&a, &c);
    EXPECT_NE(a.windows.size(), c.windows.size());
}

TEST(TraceCachePhases, CorruptSidecarIsRebuiltAndHealed)
{
    ScratchDir dir("ev8_phase_sidecar_corrupt");
    PhaseMap expected;
    std::string path;
    {
        TraceCache writer(dir.str());
        expected = writer.phases(testProfile(), kTinyBranches,
                                 kPhaseWindow, kPhaseCap);
        path = writer.phaseFilePath(testProfile(), kTinyBranches,
                                    kPhaseWindow, kPhaseCap);
    }
    {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        out << "EV8Pgarbage-not-a-phase-map";
    }
    TraceCache reader(dir.str());
    const PhaseMap &recovered = reader.phases(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    EXPECT_EQ(recovered, expected);
    EXPECT_GE(reader.readErrorCount(), 1u);
    // The rebuild healed the on-disk copy.
    EXPECT_EQ(readPhaseMapFile(path), expected);
}

TEST(TraceCachePhases, StaleKeyMismatchSidecarIsRejected)
{
    ScratchDir dir("ev8_phase_sidecar_stale");
    TraceCache writer(dir.str());
    const PhaseMap expected = writer.phases(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    const std::string path = writer.phaseFilePath(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);

    // A well-formed sidecar whose *content* disagrees with the key its
    // filename claims (window budget swapped) -- e.g. a hand-copied
    // file. Must be rejected by verification, not trusted.
    PhaseMap impostor = expected;
    impostor.windowBranches = 2 * kPhaseWindow;
    writePhaseMapFile(path, impostor);

    TraceCache reader(dir.str());
    const PhaseMap &recovered = reader.phases(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    EXPECT_EQ(recovered, expected);
    EXPECT_GE(reader.readErrorCount(), 1u);
}

TEST(TraceCachePhases, SidecarReadFaultRebuildsWithoutPoisoningExactPath)
{
    ScratchDir dir("ev8_phase_sidecar_read_fault");
    PhaseMap expected;
    BlockStream stream;
    {
        TraceCache writer(dir.str());
        expected = writer.phases(testProfile(), kTinyBranches,
                                 kPhaseWindow, kPhaseCap);
        stream = writer.stream(testProfile(), kTinyBranches);
    }

    // Every sidecar read attempt fails; the stream cache is untouched.
    ScopedEnv spec("EV8_FAULT_SPEC", "sidecar_read+*");
    TraceCache reader(dir.str());
    const PhaseMap &rebuilt = reader.phases(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    EXPECT_EQ(rebuilt, expected);
    EXPECT_GE(reader.readErrorCount(), 1u);
    // The exact path still loads from its own disk layer: the sidecar
    // fault never forces trace regeneration or stream re-decode.
    EXPECT_TRUE(reader.stream(testProfile(), kTinyBranches) == stream);
    EXPECT_EQ(reader.streamDiskHitCount(), 1u);
    EXPECT_EQ(reader.generatedCount(), 0u);
}

TEST(TraceCachePhases, SidecarWriteFaultKeepsMapInMemory)
{
    ScratchDir dir("ev8_phase_sidecar_write_fault");
    ScopedEnv spec("EV8_FAULT_SPEC", "sidecar_write+*");
    TraceCache cache(dir.str());
    const PhaseMap &map = cache.phases(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap);
    EXPECT_EQ(map.branches, kTinyBranches);
    EXPECT_GE(cache.writeErrorCount(), 1u);
    EXPECT_FALSE(std::filesystem::exists(cache.phaseFilePath(
        testProfile(), kTinyBranches, kPhaseWindow, kPhaseCap)));
    // The exact-path artifacts still persisted normally.
    EXPECT_TRUE(std::filesystem::exists(
        cache.streamFilePath(testProfile(), kTinyBranches)));
}

} // namespace
} // namespace ev8
