/**
 * @file
 * End-to-end schema test for the bench artifact pipeline: spawns the
 * real bench_fig5_schemes binary with --json/--csv/--events at a small
 * branch budget and validates the emitted ev8-bench-v1 document, the
 * CSV header, and the JSONL event trace. EV8_BENCH_DIR points at the
 * build tree's bench/ directory (set by tests/CMakeLists.txt); the test
 * skips when the binary is missing.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "artifact_test_util.hh"
#include "obs/json.hh"

namespace ev8
{
namespace
{

using test_util::maskTimingDependent;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(BenchArtifacts, Fig5EmitsValidSchemaWithCountersAndTiming)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig5_schemes";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    const std::string dir = ::testing::TempDir();
    const std::string json_path = dir + "ev8_fig5_artifact.json";
    const std::string csv_path = dir + "ev8_fig5_artifact.csv";
    const std::string events_path = dir + "ev8_fig5_artifact.jsonl";
    const std::string cmd = binary + " --branches=2000 --sample=32"
                            + " --json=" + json_path
                            + " --csv=" + csv_path
                            + " --events=" + events_path
                            + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    const JsonValue doc = parseJson(slurp(json_path));
    EXPECT_EQ(doc.at("schema").text, "ev8-bench-v1");
    EXPECT_EQ(doc.at("experiment").at("id").text, "Fig. 5");
    EXPECT_DOUBLE_EQ(
        doc.at("workload").at("branches_per_benchmark").number, 2000.0);
    EXPECT_FALSE(doc.at("workload").at("benchmarks").items.empty());

    // Every scheme row reports a finite suite average and its storage.
    const auto &rows = doc.at("rows").items;
    ASSERT_GE(rows.size(), 4u);
    for (const auto &row : rows) {
        EXPECT_FALSE(row.at("label").text.empty());
        EXPECT_GT(row.at("storage_bits").number, 0.0);
        const JsonValue &amean = row.at("values").at("amean");
        ASSERT_TRUE(amean.isNumber());
        EXPECT_TRUE(std::isfinite(amean.number));
        EXPECT_GT(amean.number, 0.0);
    }

    // The registry made it into the artifact: simulator tallies plus
    // the per-bank 2Bc-gskew conflict counters.
    const JsonValue &counters = doc.at("metrics").at("counters");
    EXPECT_GT(counters.at("sim.fetch_blocks").number, 0.0);
    EXPECT_GT(counters.at("sim.cond_branches").number, 0.0);
    bool saw_bank_conflicts[4] = {};
    for (const auto &[name, value] : counters.members) {
        for (int k = 0; k < 4; ++k) {
            const std::string tail = ".bank" + std::to_string(k)
                                     + ".conflicts";
            if (name.size() > tail.size()
                && name.compare(name.size() - tail.size(), tail.size(),
                                tail) == 0
                && name.rfind("pred.", 0) == 0) {
                saw_bank_conflicts[k] = true;
                (void)value;
            }
        }
    }
    for (int k = 0; k < 4; ++k)
        EXPECT_TRUE(saw_bank_conflicts[k]) << "missing bank" << k;

    // Simulator timing is per walk: the "timing" block is a constant
    // all-zero stub, and the telemetry's walk / cell spans carry the
    // wall time.
    for (const char *phase : {"lookup", "update", "history"}) {
        const JsonValue &t = doc.at("timing").at(phase);
        EXPECT_EQ(t.at("calls").number, 0.0) << phase;
        EXPECT_EQ(t.at("ns").number, 0.0) << phase;
        EXPECT_EQ(t.at("ns_per_call").number, 0.0) << phase;
    }
    const JsonValue &phases = doc.at("telemetry").at("phases");
    EXPECT_TRUE(phases.at("fused.walk").at("wall_ns").number > 0.0
                || phases.at("cell").at("wall_ns").number > 0.0);

    // CSV: golden header and one line per JSON row.
    std::istringstream csv(slurp(csv_path));
    std::string header;
    ASSERT_TRUE(std::getline(csv, header));
    EXPECT_EQ(header.rfind("label,storage_bits,", 0), 0u) << header;
    size_t csv_rows = 0;
    for (std::string line; std::getline(csv, line);)
        csv_rows += !line.empty();
    EXPECT_EQ(csv_rows, rows.size());

    // JSONL events: non-empty, one parseable object per line, labelled
    // with a benchmark name.
    std::istringstream events(slurp(events_path));
    size_t event_lines = 0;
    for (std::string line; std::getline(events, line);) {
        const JsonValue event = parseJson(line);
        EXPECT_FALSE(event.at("bench").text.empty());
        EXPECT_EQ(event.at("pc").text.rfind("0x", 0), 0u);
        ++event_lines;
    }
    EXPECT_GT(event_lines, 0u);
#endif
}

TEST(BenchArtifacts, TimingFlagChangesNoArtifactByte)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig5_schemes";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    // --no-timing is accepted and has no effect: with and without it
    // every artifact byte (telemetry masked) matches.
    const std::string dir = ::testing::TempDir();
    auto artifacts = [&](const std::string &tag, const char *flag) {
        const std::string base = dir + "ev8_fig5_timing_" + tag;
        const std::string cmd =
            binary + " --branches=2000 --sample=16 --jobs=2" + flag
            + " --json=" + base + ".json"
            + " --csv=" + base + ".csv"
            + " --events=" + base + ".jsonl"
            + " > /dev/null 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return std::array<std::string, 3>{
            maskTimingDependent(slurp(base + ".json")),
            slurp(base + ".csv"), slurp(base + ".jsonl")};
    };

    const auto plain = artifacts("on", "");
    const auto untimed = artifacts("off", " --no-timing");
    ASSERT_FALSE(plain[0].empty());
    ASSERT_FALSE(plain[2].empty()) << "no events sampled";
    for (int k = 0; k < 3; ++k)
        EXPECT_EQ(plain[k], untimed[k]) << "--no-timing changed artifact "
                                        << k;
#endif
}

TEST(BenchArtifacts, ParallelRunsAreByteIdenticalToSerial)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig6_history_length";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    // --no-timing keeps wall-clock noise out of the JSON; everything
    // else the binary emits must not depend on the worker count.
    const std::string dir = ::testing::TempDir();
    auto artifacts = [&](const std::string &tag, unsigned jobs) {
        const std::string base = dir + "ev8_fig6_det_" + tag;
        const std::string cmd =
            binary + " --branches=2000 --sample=16 --no-timing"
            + " --jobs=" + std::to_string(jobs)
            + " --json=" + base + ".json"
            + " --csv=" + base + ".csv"
            + " --events=" + base + ".jsonl"
            + " > /dev/null 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return std::array<std::string, 3>{slurp(base + ".json"),
                                          slurp(base + ".csv"),
                                          slurp(base + ".jsonl")};
    };

    const auto serial = artifacts("j1", 1);
    const auto parallel = artifacts("j8", 8);
    ASSERT_FALSE(serial[0].empty());
    ASSERT_FALSE(serial[2].empty()) << "no events sampled";
    // The telemetry block is wall-clock data, masked by design; every
    // other JSON byte must match.
    EXPECT_EQ(maskTimingDependent(serial[0]),
              maskTimingDependent(parallel[0]))
        << "JSON differs across --jobs";
    EXPECT_EQ(serial[1], parallel[1]) << "CSV differs across --jobs";
    EXPECT_EQ(serial[2], parallel[2]) << "JSONL differs across --jobs";
#endif
}

TEST(BenchArtifacts, GenericKernelIsByteIdenticalToDevirtualized)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig6_history_length";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    // The production walk must be a pure speed change: forcing the
    // oracle through EV8_GENERIC_KERNEL has to reproduce every
    // artifact byte.
    const std::string dir = ::testing::TempDir();
    auto artifacts = [&](const std::string &tag, const char *env) {
        const std::string base = dir + "ev8_fig6_kern_" + tag;
        const std::string cmd =
            std::string(env)
            + binary + " --branches=2000 --sample=16 --no-timing"
            + " --jobs=1"
            + " --json=" + base + ".json"
            + " --csv=" + base + ".csv"
            + " --events=" + base + ".jsonl"
            + " > /dev/null 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return std::array<std::string, 3>{slurp(base + ".json"),
                                          slurp(base + ".csv"),
                                          slurp(base + ".jsonl")};
    };

    const auto fast = artifacts("devirt", "EV8_GENERIC_KERNEL=0 ");
    const auto generic = artifacts("generic", "EV8_GENERIC_KERNEL=1 ");
    ASSERT_FALSE(fast[0].empty());
    ASSERT_FALSE(fast[2].empty()) << "no events sampled";
    EXPECT_EQ(maskTimingDependent(fast[0]),
              maskTimingDependent(generic[0]))
        << "JSON differs across kernels";
    EXPECT_EQ(fast[1], generic[1]) << "CSV differs across kernels";
    EXPECT_EQ(fast[2], generic[2]) << "JSONL differs across kernels";
#endif
}

TEST(BenchArtifacts, FusedRunsAreByteIdenticalToPerCell)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig6_history_length";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    // Grid fusion is a pure speed change: EV8_FUSED_LANES=1 (one walk
    // per cell) and the default (one walk per fused lane group) must emit
    // identical artifact bytes at any worker count.
    const std::string dir = ::testing::TempDir();
    auto artifacts = [&](const std::string &tag, const char *env,
                         unsigned jobs) {
        const std::string base = dir + "ev8_fig6_fused_" + tag;
        const std::string cmd =
            std::string(env)
            + binary + " --branches=2000 --sample=16 --no-timing"
            + " --jobs=" + std::to_string(jobs)
            + " --json=" + base + ".json"
            + " --csv=" + base + ".csv"
            + " --events=" + base + ".jsonl"
            + " > /dev/null 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return std::array<std::string, 3>{slurp(base + ".json"),
                                          slurp(base + ".csv"),
                                          slurp(base + ".jsonl")};
    };

    auto percell = artifacts("percell_j1", "EV8_FUSED_LANES=1 ", 1);
    auto fused_j1 = artifacts("fused_j1", "EV8_FUSED_LANES=64 ", 1);
    auto fused_j4 = artifacts("fused_j4", "EV8_FUSED_LANES=64 ", 4);
    auto narrow = artifacts("fused_l2", "EV8_FUSED_LANES=2 ", 1);
    ASSERT_FALSE(percell[0].empty());
    ASSERT_FALSE(percell[2].empty()) << "no events sampled";
    for (auto *run : {&percell, &fused_j1, &fused_j4, &narrow})
        (*run)[0] = maskTimingDependent((*run)[0]);
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(percell[k], fused_j1[k])
            << "fused --jobs=1 changed artifact " << k;
        EXPECT_EQ(percell[k], fused_j4[k])
            << "fused --jobs=4 changed artifact " << k;
        EXPECT_EQ(percell[k], narrow[k])
            << "lane cap 2 changed artifact " << k;
    }
#endif
}

TEST(BenchArtifacts, BadJobsValueIsARejectedHardError)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig6_history_length";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    for (const char *bad : {"0", "-1", "4x", "garbage", "4097"}) {
        const std::string cmd = binary + " --jobs=" + bad
                                + " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        ASSERT_TRUE(WIFEXITED(status)) << cmd;
        EXPECT_EQ(WEXITSTATUS(status), 2) << cmd;
    }
#endif
}

TEST(BenchArtifacts, BadSweepLengthsAreARejectedHardError)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_sweep_history";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    // Non-numbers, empty tokens, negatives and lengths past the 64-bit
    // history register exit 2; a valid list still runs.
    auto status_of = [&](const char *lengths) {
        const std::string cmd = std::string("EV8_SWEEP_LENGTHS='")
                                + lengths + "' " + binary
                                + " --branches=500 --jobs=1 --quiet"
                                + " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        EXPECT_TRUE(WIFEXITED(status)) << cmd;
        return WEXITSTATUS(status);
    };
    for (const char *bad : {"abc", "8,,12", "-4", "70"})
        EXPECT_EQ(status_of(bad), 2) << "EV8_SWEEP_LENGTHS=" << bad;
    EXPECT_EQ(status_of("4,8"), 0);
#endif
}

TEST(BenchArtifacts, WarmStreamCacheIsByteIdenticalToFreshDecode)
{
#ifndef EV8_BENCH_DIR
    GTEST_SKIP() << "EV8_BENCH_DIR not configured";
#else
    const std::string binary = std::string(EV8_BENCH_DIR)
                               + "/bench_fig6_history_length";
    if (!std::ifstream(binary).good())
        GTEST_SKIP() << "bench binary not built: " << binary;

    const std::string dir = ::testing::TempDir();
    const std::string cache_dir = dir + "ev8_stream_cache_e2e";
    std::system(("rm -rf " + cache_dir).c_str());

    auto artifacts = [&](const std::string &tag, bool cached) {
        const std::string base = dir + "ev8_fig6_cache_" + tag;
        const std::string env = cached
            ? "EV8_TRACE_CACHE_DIR=" + cache_dir + " "
            : std::string();
        const std::string cmd =
            env + binary + " --branches=2000 --sample=16 --no-timing"
            + " --jobs=1"
            + " --json=" + base + ".json"
            + " --csv=" + base + ".csv"
            + " --events=" + base + ".jsonl"
            + " > /dev/null 2>&1";
        EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
        return std::array<std::string, 3>{slurp(base + ".json"),
                                          slurp(base + ".csv"),
                                          slurp(base + ".jsonl")};
    };

    // Fresh decode, cold cache (fills it), warm cache (loads streams).
    auto fresh = artifacts("fresh", false);
    auto cold = artifacts("cold", true);
    auto warm = artifacts("warm", true);
    std::system(("rm -rf " + cache_dir).c_str());

    ASSERT_FALSE(fresh[0].empty());
    for (auto *run : {&fresh, &cold, &warm})
        (*run)[0] = maskTimingDependent((*run)[0]);
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(fresh[k], cold[k]) << "cold cache changed artifact " << k;
        EXPECT_EQ(fresh[k], warm[k]) << "warm cache changed artifact " << k;
    }
#endif
}

} // namespace
} // namespace ev8
