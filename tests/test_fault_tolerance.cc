/**
 * @file
 * Fault-tolerance tests for the experiment engine, at two levels:
 *
 *  - engine: a permanently failing cell is isolated into a CellFailure
 *    (the rest of the grid completes, healthy outputs byte-equal a
 *    fault-free run), transient faults heal through bounded retries,
 *    a poisoned fused group falls back to per-cell execution, and the
 *    retry knobs (EV8_RETRY_MAX / EV8_RETRY_BASE_MS) behave.
 *
 *  - end to end, spawning the real bench binaries: a partial run exits
 *    3 with a "failures" section in every artifact, a SIGKILLed run
 *    resumes from its checkpoint journal to byte-identical artifacts,
 *    a malformed EV8_FAULT_SPEC exits 2, and an unusable trace-cache
 *    directory degrades to in-memory caching without failing the run.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "artifact_test_util.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "sim/cell_executor.hh"
#include "sim/experiment.hh"
#include "sim/suite_runner.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

namespace fs = std::filesystem;

constexpr uint64_t kTinyScale = 3000;

/** A unique directory under /tmp, removed on scope exit. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/ev8-fault-test-XXXXXX";
        path_ = ::mkdtemp(tmpl);
    }

    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

size_t
benchIndex(SuiteRunner &runner, const std::string &name)
{
    for (size_t i = 0; i < runner.size(); ++i) {
        if (runner.name(i) == name)
            return i;
    }
    ADD_FAILURE() << "no benchmark named " << name;
    return 0;
}

/** Runs a two-row grid (same walk config: the rows fuse per bench). */
GridOutcome
runTwoRowGrid(SuiteRunner &runner)
{
    std::vector<GridRow> rows;
    size_t r = 0;
    for (const char *spec : {"gshare:12:8", "gshare:12:12"}) {
        GridRow row;
        row.factory = [spec] { return makePredictor(spec); };
        row.config = SimConfig::ghist();
        row.label = "row" + std::to_string(r++);
        rows.push_back(std::move(row));
    }
    return runner.runGrid(rows);
}

uint64_t
engineCounter(SuiteRunner &runner, const std::string &name)
{
    MetricRegistry registry;
    runner.engine().publishMetrics(registry, "engine");
    return registry.counter("engine." + name).value();
}

/**
 * The isolation contract: one permanently failing cell (which also
 * poisons its fused group, forcing the per-cell fallback) becomes one
 * CellFailure; every other cell -- including the failing cell's fused
 * group mates -- matches a fault-free run exactly.
 */
TEST(FaultTolerance, PermanentFaultIsolatesExactlyOneCell)
{
    ScopedEnv no_ckpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv no_wait("EV8_RETRY_BASE_MS", "0");

    GridOutcome clean;
    {
        ScopedEnv spec("EV8_FAULT_SPEC", nullptr);
        SuiteRunner runner(kTinyScale, 2);
        clean = runTwoRowGrid(runner);
        ASSERT_TRUE(clean.ok());
    }

    ScopedEnv spec("EV8_FAULT_SPEC", "job/=g0/r0/gcc+*");
    SuiteRunner runner(kTinyScale, 2);
    const size_t gcc = benchIndex(runner, "gcc");
    const GridOutcome outcome = runTwoRowGrid(runner);

    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.failures.size(), 1u);
    const CellFailure &f = outcome.failures.front();
    EXPECT_EQ(f.row, 0u);
    EXPECT_EQ(f.rowLabel, "row0");
    EXPECT_EQ(f.bench, "gcc");
    EXPECT_EQ(f.attempts, 3u); // the default EV8_RETRY_MAX
    EXPECT_NE(f.error.find("injected job fault"), std::string::npos)
        << f.error;

    // The failed cell carries the flag and an empty sim.
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_TRUE(outcome.results[0][gcc].failed);
    EXPECT_EQ(outcome.results[0][gcc].bench, "gcc");
    EXPECT_EQ(outcome.results[0][gcc].sim.stats.lookups(), 0u);

    // Every other cell is exactly what the fault-free run produced.
    for (size_t r = 0; r < 2; ++r) {
        for (size_t b = 0; b < runner.size(); ++b) {
            if (r == 0 && b == gcc)
                continue;
            const BenchResult &got = outcome.results[r][b];
            const BenchResult &want = clean.results[r][b];
            EXPECT_FALSE(got.failed) << r << "/" << got.bench;
            EXPECT_EQ(got.sim.stats.mispredictions(),
                      want.sim.stats.mispredictions())
                << r << "/" << got.bench;
            EXPECT_EQ(got.sim.stats.instructions(),
                      want.sim.stats.instructions())
                << r << "/" << got.bench;
        }
    }

    // The failure also accumulated on the runner and the engine.
    ASSERT_EQ(runner.failures().size(), 1u);
    EXPECT_EQ(runner.failures().front().bench, "gcc");
    EXPECT_EQ(engineCounter(runner, "cells_failed"), 1u);
    // The fused attempt consumed one occurrence, the fallback three:
    // two of those were retries.
    EXPECT_EQ(engineCounter(runner, "cells_retried"), 2u);

    // averageMispKI skips the failed cell instead of folding in a 0.
    const double avg = SuiteRunner::averageMispKI(outcome.results[0]);
    EXPECT_TRUE(std::isfinite(avg));
    EXPECT_GT(avg, 0.0);
}

/** A transient fault (two bad attempts) heals inside the retry budget. */
TEST(FaultTolerance, TransientFaultHealsThroughRetries)
{
    ScopedEnv no_ckpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv no_wait("EV8_RETRY_BASE_MS", "0");

    auto run_single_row = [] {
        SuiteRunner runner(kTinyScale, 2);
        std::vector<GridRow> rows;
        GridRow row;
        row.factory = [] { return makePredictor("gshare:12:10"); };
        row.config = SimConfig::ghist();
        row.label = "solo";
        rows.push_back(std::move(row));
        GridOutcome outcome = runner.runGrid(rows);
        return std::make_pair(std::move(outcome),
                              engineCounter(runner, "cells_retried"));
    };

    GridOutcome clean;
    {
        ScopedEnv spec("EV8_FAULT_SPEC", nullptr);
        clean = run_single_row().first;
        ASSERT_TRUE(clean.ok());
    }

    ScopedEnv spec("EV8_FAULT_SPEC", "job/=g0/r0/gcc@1+2");
    const auto [outcome, retried] = run_single_row();
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(retried, 2u);
    for (size_t b = 0; b < clean.results[0].size(); ++b) {
        EXPECT_EQ(outcome.results[0][b].sim.stats.mispredictions(),
                  clean.results[0][b].sim.stats.mispredictions())
            << clean.results[0][b].bench;
    }
}

/** EV8_RETRY_MAX=1 means a single attempt: fail fast, no retries. */
TEST(FaultTolerance, RetryMaxCapsAttempts)
{
    ScopedEnv no_ckpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv no_wait("EV8_RETRY_BASE_MS", "0");
    ScopedEnv max("EV8_RETRY_MAX", "1");
    ScopedEnv spec("EV8_FAULT_SPEC", "job/=g0/r0/gcc+*");

    SuiteRunner runner(kTinyScale, 2);
    std::vector<GridRow> rows;
    GridRow row;
    row.factory = [] { return makePredictor("gshare:12:10"); };
    row.config = SimConfig::ghist();
    rows.push_back(std::move(row));
    const GridOutcome outcome = runner.runGrid(rows);
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures.front().attempts, 1u);
    EXPECT_EQ(engineCounter(runner, "cells_retried"), 0u);
}

TEST(FaultTolerance, RetryKnobsParseAndDefault)
{
    {
        ScopedEnv max("EV8_RETRY_MAX", nullptr);
        ScopedEnv base("EV8_RETRY_BASE_MS", nullptr);
        EXPECT_EQ(CellExecutor::retryMax(), 3u);
        EXPECT_EQ(CellExecutor::retryBaseMs(), 10u);
    }
    {
        ScopedEnv max("EV8_RETRY_MAX", "5");
        ScopedEnv base("EV8_RETRY_BASE_MS", "0");
        EXPECT_EQ(CellExecutor::retryMax(), 5u);
        EXPECT_EQ(CellExecutor::retryBaseMs(), 0u);
    }
}

TEST(FaultToleranceDeathTest, InvalidRetryKnobsExitUsage)
{
    {
        ScopedEnv max("EV8_RETRY_MAX", "0");
        EXPECT_EXIT(CellExecutor::retryMax(),
                    ::testing::ExitedWithCode(2), "EV8_RETRY_MAX");
    }
    {
        ScopedEnv base("EV8_RETRY_BASE_MS", "fast");
        EXPECT_EXIT(CellExecutor::retryBaseMs(),
                    ::testing::ExitedWithCode(2), "EV8_RETRY_BASE_MS");
    }
}

/** SuiteRunner::run (no partial-result channel) must throw instead. */
TEST(FaultTolerance, SuiteRunThrowsWhenACellExhaustsRetries)
{
    ScopedEnv no_ckpt("EV8_CHECKPOINT_DIR", nullptr);
    ScopedEnv no_wait("EV8_RETRY_BASE_MS", "0");
    ScopedEnv spec("EV8_FAULT_SPEC", "job/=g0/r0/gcc+*");
    SuiteRunner runner(kTinyScale, 2);
    EXPECT_THROW(runner.run([] { return makePredictor("gshare:12:10"); },
                            SimConfig::ghist()),
                 std::runtime_error);
}

#ifdef EV8_BENCH_DIR

/**
 * End-to-end scenarios against the real bench binaries. Environment
 * overrides ride the command line ("VAR=x prog ..."), so nothing
 * leaks into the test process; stdout is discarded, stderr captured
 * where a warning is asserted.
 */
class BenchE2E : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fig6_ = std::string(EV8_BENCH_DIR) + "/bench_fig6_history_length";
        fig5_ = std::string(EV8_BENCH_DIR) + "/bench_fig5_schemes";
        if (!std::ifstream(fig6_).good() || !std::ifstream(fig5_).good())
            GTEST_SKIP() << "bench binaries not built";
    }

    /** Raw wait status of "env binary args" run through the shell. */
    int
    runRaw(const std::string &env, const std::string &binary,
           const std::string &args, const std::string &stderr_path = "")
    {
        const std::string redirect = "> /dev/null 2>"
            + (stderr_path.empty() ? std::string("&1") : stderr_path);
        const std::string cmd =
            env + " " + binary + " " + args + " " + redirect;
        return std::system(cmd.c_str());
    }

    int
    runExit(const std::string &env, const std::string &binary,
            const std::string &args, const std::string &stderr_path = "")
    {
        const int status = runRaw(env, binary, args, stderr_path);
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    /** Artifact flags for one run, rooted at dir/<tag>.*. */
    static std::string
    artifactArgs(const std::string &dir, const std::string &tag)
    {
        return "--branches=2000 --sample=16 --no-timing --json=" + dir
            + "/" + tag + ".json --csv=" + dir + "/" + tag
            + ".csv --events=" + dir + "/" + tag + ".jsonl";
    }

    std::string fig6_;
    std::string fig5_;
};

TEST_F(BenchE2E, PartialRunExitsThreeAndReportsTheFailure)
{
    TempDir tmp;
    const std::string cache = "EV8_TRACE_CACHE_DIR=" + tmp.path()
        + "/cache EV8_RETRY_BASE_MS=0";

    // A clean run first: exit 0, no failures section, warm cache.
    ASSERT_EQ(runExit(cache, fig6_,
                      artifactArgs(tmp.path(), "clean") + " --jobs=4"),
              0);
    const JsonValue clean = parseJson(slurp(tmp.path() + "/clean.json"));
    EXPECT_EQ(clean.find("failures"), nullptr);

    // One permanently failing cell plus transient cache-read faults:
    // the cache regenerates, the cell fails, everything else completes.
    const std::string env = cache
        + " EV8_FAULT_SPEC='job/=g0/r0/gcc+*,cache_read/+2'";
    EXPECT_EQ(runExit(env, fig6_,
                      artifactArgs(tmp.path(), "part") + " --jobs=4"),
              3);

    const JsonValue doc = parseJson(slurp(tmp.path() + "/part.json"));
    const JsonValue *failures = doc.find("failures");
    ASSERT_NE(failures, nullptr);
    ASSERT_TRUE(failures->isArray());
    ASSERT_EQ(failures->items.size(), 1u);
    const JsonValue &f = failures->items.front();
    EXPECT_EQ(f.at("row_label").text, "2Bc-gskew 256Kb L=8");
    EXPECT_EQ(f.at("bench").text, "gcc");
    EXPECT_EQ(f.at("attempts").number, 3.0);
    EXPECT_NE(f.at("error").text.find("injected job fault"),
              std::string::npos);

    const std::string csv = slurp(tmp.path() + "/part.csv");
    EXPECT_NE(csv.find("\nfailures\nrow_label,bench,attempts,error\n"),
              std::string::npos);
    EXPECT_NE(csv.find("2Bc-gskew 256Kb L=8,gcc,3,"), std::string::npos);

    const std::string events = slurp(tmp.path() + "/part.jsonl");
    EXPECT_NE(events.find("\"type\":\"cell_failure\""),
              std::string::npos);
}

TEST_F(BenchE2E, KilledRunResumesToByteIdenticalArtifacts)
{
    TempDir tmp;
    const std::string ckpt_dir = tmp.path() + "/ckpt";
    const std::string base = "EV8_TRACE_CACHE_DIR=" + tmp.path()
        + "/cache EV8_RETRY_BASE_MS=0";
    const std::string fault = " EV8_FAULT_SPEC='job/=g0/r0/gcc+*'";
    const std::string ckpt = " EV8_CHECKPOINT_DIR=" + ckpt_dir;

    // The reference: an uninterrupted (but equally faulty) run with no
    // checkpointing at all.
    ASSERT_EQ(runExit(base + fault, fig6_,
                      artifactArgs(tmp.path(), "ref") + " --jobs=4"),
              3);

    // The same run, checkpointed, SIGKILLed deterministically when the
    // grid's last fused group (vortex, the eighth benchmark) first
    // schedules its row-0 cell: at --jobs=4 it starts only after four
    // groups have finished and journaled their cells. Depending on
    // whether the shell exec'd the binary, the kill surfaces as a
    // signal death or as exit code 128+9.
    const std::string die_env = base
        + " EV8_FAULT_SPEC='job/=g0/r0/gcc+*,die/=g0/r0/vortex@1'"
        + ckpt;
    const int status = runRaw(
        die_env, fig6_, artifactArgs(tmp.path(), "killed") + " --jobs=4");
    const bool killed =
        (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        || (WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGKILL);
    ASSERT_TRUE(killed) << "raw wait status " << status;

    // The kill left journaled cells behind (the groups that finished
    // before vortex's started): records after each journal's header.
    ASSERT_TRUE(fs::exists(ckpt_dir));
    size_t journals = 0;
    size_t records = 0;
    for (const auto &entry : fs::directory_iterator(ckpt_dir)) {
        ++journals;
        const std::string text = slurp(entry.path().string());
        records += std::count(text.begin(), text.end(), '\n') - 1;
    }
    EXPECT_GT(journals, 0u);
    EXPECT_GT(records, 0u);

    // Resume (die disarmed, the permanent cell fault still armed):
    // finishes partial as before, and every artifact byte matches the
    // uninterrupted reference -- at the same width and at width 1.
    ASSERT_EQ(runExit(base + fault + ckpt, fig6_,
                      artifactArgs(tmp.path(), "res4") + " --jobs=4"),
              3);
    ASSERT_EQ(runExit(base + fault + ckpt, fig6_,
                      artifactArgs(tmp.path(), "res1") + " --jobs=1"),
              3);
    // JSON carries wall-clock members (telemetry, per-failure
    // attempt_ns) that legitimately differ across runs; mask those and
    // require every remaining byte to match. CSV/JSONL carry none.
    for (const char *ext : {".json", ".csv", ".jsonl"}) {
        std::string ref = slurp(tmp.path() + "/ref" + ext);
        std::string res4 = slurp(tmp.path() + "/res4" + ext);
        std::string res1 = slurp(tmp.path() + "/res1" + ext);
        ASSERT_FALSE(ref.empty()) << ext;
        if (ext == std::string(".json")) {
            ref = test_util::maskTimingDependent(std::move(ref));
            res4 = test_util::maskTimingDependent(std::move(res4));
            res1 = test_util::maskTimingDependent(std::move(res1));
        }
        EXPECT_EQ(res4, ref) << ext;
        EXPECT_EQ(res1, ref) << ext;
    }
}

TEST_F(BenchE2E, MalformedFaultSpecExitsUsage)
{
    EXPECT_EQ(runExit("EV8_FAULT_SPEC='not-a-point'", fig5_,
                      "--branches=2000"),
              2);
}

TEST_F(BenchE2E, UnusableTraceCacheDirDegradesToMemory)
{
    TempDir tmp;
    // A path under a regular file: unusable for any process, root or
    // not (a chmod-based test would be a no-op under root).
    std::ofstream(tmp.path() + "/plain-file") << "x";
    const std::string env =
        "EV8_TRACE_CACHE_DIR=" + tmp.path() + "/plain-file/sub";
    const std::string stderr_path = tmp.path() + "/stderr.txt";
    EXPECT_EQ(runExit(env, fig5_,
                      "--branches=2000 --sample=32 --json=" + tmp.path()
                          + "/out.json",
                      stderr_path),
              0);
    EXPECT_NE(slurp(stderr_path).find("falling back to in-memory"),
              std::string::npos);
    // The degraded run self-reports in its metrics.
    EXPECT_NE(slurp(tmp.path() + "/out.json")
                  .find("trace_cache.disk_disabled"),
              std::string::npos);
}

#endif // EV8_BENCH_DIR

} // namespace
} // namespace ev8
