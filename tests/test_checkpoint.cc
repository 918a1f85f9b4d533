/**
 * @file
 * Tests for the grid checkpoint journal: exact round-tripping of cell
 * records (u64s past 2^53, doubles by bit pattern, events, histograms),
 * tolerance of corrupt/torn/foreign journals, and the engine-level
 * guarantee -- a resumed grid run produces byte-identical merged
 * metrics and event streams while re-running zero cells.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/event_trace.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "predictors/factory.hh"
#include "sim/checkpoint.hh"
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
        char tmpl[] = "/tmp/ev8-ckpt-test-XXXXXX";
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

/** A cell output exercising every field the journal must round-trip. */
struct CellFixture
{
    BenchResult result;
    MetricRegistry metrics;
    std::vector<MispredictEvent> events;

    CellFixture()
    {
        result.bench = "gcc";
        // u64 values past 2^53 prove the decimal-string encoding; a
        // plain JSON number would come back rounded.
        result.sim.stats.tally((1ULL << 60) + 3, (1ULL << 54) + 1);
        result.sim.stats.setInstructions(123456789012345678ULL);
        result.sim.fetchBlocks = 42;
        result.sim.lghistBits = 7;
        result.sim.condBranches = 999;
        for (size_t i = 0; i < result.sim.branchesPerBlock.size(); ++i)
            result.sim.branchesPerBlock[i] = i * i + 1;
        result.sim.timing.lookup.calls = 10;
        result.sim.timing.lookup.ns = 1111;
        result.sim.timing.update.calls = 20;
        result.sim.timing.update.ns = 2222;
        result.sim.timing.history.calls = 30;
        result.sim.timing.history.ns = 3333;

        metrics.counter("sim.fetch_blocks").inc(12345);
        // 0.1 has no exact binary representation; the bit-pattern
        // encoding must reproduce the stored double to the last bit.
        metrics.gauge("sim.time.total_s").set(0.1);
        metrics.histogram("pred.conf", {1.0, 2.5, 10.0}).observe(0.1);
        metrics.histogram("pred.conf", {1.0, 2.5, 10.0}).observe(7.0, 3);

        MispredictEvent ev;
        ev.branchSeq = (1ULL << 55) + 9;
        ev.pc = 0x400123;
        ev.blockAddr = 0x400100;
        ev.ghist = 0xdeadbeefcafef00dULL;
        ev.indexHist = 0x123456789abcdef0ULL;
        ev.bank = 3;
        ev.taken = true;
        ev.predicted = false;
        ev.votesValid = true;
        ev.voteBim = true;
        ev.voteG1 = true;
        ev.voteMajority = true;
        events.push_back(ev);
        MispredictEvent ev2; // all-defaults event: flags byte 0
        events.push_back(ev2);
    }
};

std::string
registryJson(const MetricRegistry &metrics)
{
    std::ostringstream out;
    writeRegistryJson(out, metrics);
    return out.str();
}

void
expectSameCell(const GridCheckpoint::RestoredCell &restored,
               const CellFixture &expected)
{
    EXPECT_EQ(restored.result.bench, expected.result.bench);
    EXPECT_FALSE(restored.result.failed);
    const SimResult &a = restored.result.sim;
    const SimResult &b = expected.result.sim;
    EXPECT_EQ(a.stats.lookups(), b.stats.lookups());
    EXPECT_EQ(a.stats.mispredictions(), b.stats.mispredictions());
    EXPECT_EQ(a.stats.instructions(), b.stats.instructions());
    EXPECT_EQ(a.fetchBlocks, b.fetchBlocks);
    EXPECT_EQ(a.lghistBits, b.lghistBits);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.branchesPerBlock, b.branchesPerBlock);
    EXPECT_EQ(a.timing.lookup.calls, b.timing.lookup.calls);
    EXPECT_EQ(a.timing.lookup.ns, b.timing.lookup.ns);
    EXPECT_EQ(a.timing.update.calls, b.timing.update.calls);
    EXPECT_EQ(a.timing.update.ns, b.timing.update.ns);
    EXPECT_EQ(a.timing.history.calls, b.timing.history.calls);
    EXPECT_EQ(a.timing.history.ns, b.timing.history.ns);

    // The restored registry serializes to the same bytes.
    EXPECT_EQ(registryJson(restored.metrics),
              registryJson(expected.metrics));

    ASSERT_EQ(restored.events.size(), expected.events.size());
    for (size_t i = 0; i < restored.events.size(); ++i) {
        const MispredictEvent &x = restored.events[i];
        const MispredictEvent &y = expected.events[i];
        EXPECT_EQ(x.branchSeq, y.branchSeq) << "event " << i;
        EXPECT_EQ(x.pc, y.pc) << "event " << i;
        EXPECT_EQ(x.blockAddr, y.blockAddr) << "event " << i;
        EXPECT_EQ(x.ghist, y.ghist) << "event " << i;
        EXPECT_EQ(x.indexHist, y.indexHist) << "event " << i;
        EXPECT_EQ(x.bank, y.bank) << "event " << i;
        EXPECT_EQ(x.taken, y.taken) << "event " << i;
        EXPECT_EQ(x.predicted, y.predicted) << "event " << i;
        EXPECT_EQ(x.votesValid, y.votesValid) << "event " << i;
        EXPECT_EQ(x.voteBim, y.voteBim) << "event " << i;
        EXPECT_EQ(x.voteG0, y.voteG0) << "event " << i;
        EXPECT_EQ(x.voteG1, y.voteG1) << "event " << i;
        EXPECT_EQ(x.voteMeta, y.voteMeta) << "event " << i;
        EXPECT_EQ(x.voteMajority, y.voteMajority) << "event " << i;
    }
}

TEST(GridCheckpoint, EmptyDirDisablesTheJournal)
{
    GridCheckpoint ckpt("", 0x1234, 4);
    EXPECT_FALSE(ckpt.enabled());
    EXPECT_TRUE(ckpt.path().empty());
    EXPECT_TRUE(ckpt.load().empty());
    CellFixture cell; // append must be a harmless no-op
    ckpt.append(0, cell.result, cell.metrics, cell.events);
}

TEST(GridCheckpoint, DefaultDirReadsTheEnvironment)
{
    {
        ScopedEnv env("EV8_CHECKPOINT_DIR", "/some/dir");
        EXPECT_EQ(GridCheckpoint::defaultDir(), "/some/dir");
    }
    {
        ScopedEnv env("EV8_CHECKPOINT_DIR", nullptr);
        EXPECT_EQ(GridCheckpoint::defaultDir(), "");
    }
}

TEST(GridCheckpoint, RecordsRoundTripExactly)
{
    TempDir dir;
    CellFixture cell;
    {
        GridCheckpoint ckpt(dir.path(), 0xfeed, 4);
        ASSERT_TRUE(ckpt.enabled());
        EXPECT_TRUE(ckpt.load().empty());
        ckpt.append(2, cell.result, cell.metrics, cell.events);
    }
    GridCheckpoint reopened(dir.path(), 0xfeed, 4);
    auto restored = reopened.load();
    ASSERT_EQ(restored.size(), 1u);
    ASSERT_TRUE(restored.count(2));
    expectSameCell(restored.at(2), cell);
}

TEST(GridCheckpoint, ForeignGridHashUsesADifferentFile)
{
    TempDir dir;
    CellFixture cell;
    {
        GridCheckpoint ckpt(dir.path(), 0x1111, 4);
        ckpt.load();
        ckpt.append(0, cell.result, cell.metrics, cell.events);
    }
    // Same directory, different grid: a different file name entirely,
    // so nothing restores and the old journal is untouched.
    GridCheckpoint other(dir.path(), 0x2222, 4);
    EXPECT_NE(other.path(), GridCheckpoint(dir.path(), 0x1111, 4).path());
    EXPECT_TRUE(other.load().empty());
    GridCheckpoint original(dir.path(), 0x1111, 4);
    EXPECT_EQ(original.load().size(), 1u);
}

TEST(GridCheckpoint, MismatchedFormatHeaderStartsFresh)
{
    TempDir dir;
    CellFixture cell;
    std::string path;
    {
        GridCheckpoint ckpt(dir.path(), 0x3333, 4);
        path = ckpt.path();
        ckpt.load();
        ckpt.append(1, cell.result, cell.metrics, cell.events);
    }
    // Forge a header from a hypothetical other build: same file name,
    // wrong format field. The loader must not trust any record in it.
    {
        const std::string body = slurp(path);
        const std::string record = body.substr(body.find('\n') + 1);
        std::ofstream out(path, std::ios::trunc);
        out << "{\"schema\":\"ev8-checkpoint-v1\",\"format\":\"999\","
               "\"grid\":\"0000000000003333\",\"cells\":\"4\"}\n"
            << record;
    }
    GridCheckpoint reopened(dir.path(), 0x3333, 4);
    EXPECT_TRUE(reopened.load().empty());
    // And load() rewrote a valid header for the current format.
    const std::string fresh = slurp(path);
    EXPECT_NE(fresh.find("\"format\":\"1\""), std::string::npos) << fresh;
}

TEST(GridCheckpoint, WrongCellCountStartsFresh)
{
    TempDir dir;
    CellFixture cell;
    {
        GridCheckpoint ckpt(dir.path(), 0x4444, 4);
        ckpt.load();
        ckpt.append(0, cell.result, cell.metrics, cell.events);
    }
    // A journal written for a 4-cell batch must not feed an 8-cell one,
    // even when the file name matches (same hash, different count --
    // belt and braces; the hash normally covers the shape).
    GridCheckpoint reopened(dir.path(), 0x4444, 8);
    EXPECT_TRUE(reopened.load().empty());
}

TEST(GridCheckpoint, CorruptAndTornLinesAreSkippedIndividually)
{
    TempDir dir;
    CellFixture cell;
    std::string path;
    {
        GridCheckpoint ckpt(dir.path(), 0x5555, 4);
        path = ckpt.path();
        ckpt.load();
        ckpt.append(0, cell.result, cell.metrics, cell.events);
        ckpt.append(3, cell.result, cell.metrics, cell.events);
    }
    {
        // Garbage between records and a torn (half) record at the
        // tail, as a crash mid-append would leave.
        const std::string body = slurp(path);
        const size_t rec0 = body.find("\n{\"cell\":\"0\"");
        const size_t rec3 = body.find("\n{\"cell\":\"3\"");
        ASSERT_NE(rec0, std::string::npos);
        ASSERT_NE(rec3, std::string::npos);
        const std::string record0 =
            body.substr(rec0 + 1, rec3 - rec0 - 1);
        std::ofstream out(path, std::ios::app);
        out << "not json at all\n";
        out << "{\"cell\":\"1\",\"bench\":\"go\"}\n"; // parses, wrong shape
        out << record0.substr(0, record0.size() / 2); // torn tail
    }
    GridCheckpoint reopened(dir.path(), 0x5555, 4);
    auto restored = reopened.load();
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_TRUE(restored.count(0));
    EXPECT_TRUE(restored.count(3));
    expectSameCell(restored.at(0), cell);
}

TEST(GridCheckpoint, FirstRecordWinsOnDuplicates)
{
    TempDir dir;
    CellFixture first;
    CellFixture second;
    second.result.bench = "vortex";
    {
        GridCheckpoint ckpt(dir.path(), 0x6666, 4);
        ckpt.load();
        ckpt.append(0, first.result, first.metrics, first.events);
        ckpt.append(0, second.result, second.metrics, second.events);
    }
    GridCheckpoint reopened(dir.path(), 0x6666, 4);
    auto restored = reopened.load();
    ASSERT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored.at(0).result.bench, "gcc");
}

TEST(GridCheckpoint, UnwritableDirectoryDegradesGracefully)
{
    // A path under a regular file: create_directories must fail. (A
    // chmod-based unwritable directory is useless here -- root ignores
    // permission bits.)
    TempDir dir;
    const std::string file = dir.path() + "/plain-file";
    std::ofstream(file) << "x";
    GridCheckpoint ckpt(file + "/sub", 0x8888, 4);
    ASSERT_TRUE(ckpt.enabled());
    EXPECT_TRUE(ckpt.load().empty());
    CellFixture cell; // appends silently become no-ops, never throw
    ckpt.append(0, cell.result, cell.metrics, cell.events);
}

/** One checkpointed grid run with full observability. */
struct ObservedGrid
{
    std::vector<std::vector<BenchResult>> results;
    std::string metricsJson;
    std::string eventsJsonl;
    uint64_t resumedCells = 0;
};

ObservedGrid
observedGrid(unsigned jobs)
{
    SuiteRunner runner(kTinyScale, jobs);
    MetricRegistry metrics;
    std::ostringstream events;
    EventTraceSink sink(events, 8);

    std::vector<GridRow> rows;
    for (const char *spec : {"gshare:12:10", "2bcgskew:12:0:13:14:15"}) {
        GridRow row;
        row.factory = [spec] { return makePredictor(spec); };
        row.config = SimConfig::ghist();
        row.config.metrics = &metrics;
        row.config.events = &sink;
        row.label = spec;
        rows.push_back(std::move(row));
    }
    const GridOutcome outcome = runner.runGrid(rows);
    EXPECT_TRUE(outcome.ok());

    ObservedGrid run;
    run.results = outcome.results;
    run.resumedCells = outcome.resumedCells;
    std::ostringstream metrics_json;
    writeRegistryJson(metrics_json, metrics);
    run.metricsJson = metrics_json.str();
    run.eventsJsonl = events.str();
    return run;
}

/**
 * The tentpole guarantee, at the engine level: a second run of the same
 * grid under EV8_CHECKPOINT_DIR restores every cell from the journal --
 * zero re-simulation -- and still produces byte-identical merged
 * metrics and event streams, at any pool width. And checkpointing
 * itself must not perturb the artifacts relative to an unjournaled run.
 */
TEST(GridCheckpointResume, ResumedGridIsByteIdentical)
{
    const ObservedGrid bare = observedGrid(2); // no checkpoint dir

    TempDir dir;
    ScopedEnv env("EV8_CHECKPOINT_DIR", dir.path().c_str());
    const ObservedGrid cold = observedGrid(2);
    EXPECT_EQ(cold.resumedCells, 0u);
    const ObservedGrid warm = observedGrid(2);
    const ObservedGrid warm_serial = observedGrid(1);

    ASSERT_FALSE(cold.results.empty());
    const uint64_t cells = cold.results.size() * cold.results[0].size();
    EXPECT_EQ(warm.resumedCells, cells);
    EXPECT_EQ(warm_serial.resumedCells, cells);

    for (const ObservedGrid *other : {&cold, &warm, &warm_serial}) {
        ASSERT_EQ(other->results.size(), bare.results.size());
        for (size_t r = 0; r < bare.results.size(); ++r) {
            ASSERT_EQ(other->results[r].size(), bare.results[r].size());
            for (size_t b = 0; b < bare.results[r].size(); ++b) {
                EXPECT_EQ(other->results[r][b].bench,
                          bare.results[r][b].bench);
                EXPECT_EQ(
                    other->results[r][b].sim.stats.mispredictions(),
                    bare.results[r][b].sim.stats.mispredictions());
                EXPECT_EQ(other->results[r][b].sim.stats.instructions(),
                          bare.results[r][b].sim.stats.instructions());
            }
        }
        EXPECT_EQ(other->metricsJson, bare.metricsJson);
        EXPECT_EQ(other->eventsJsonl, bare.eventsJsonl);
    }
}

/** A different grid (other rows) maps to a different journal file. */
TEST(GridCheckpointResume, DifferentGridDoesNotResume)
{
    TempDir dir;
    ScopedEnv env("EV8_CHECKPOINT_DIR", dir.path().c_str());
    observedGrid(2);

    SuiteRunner runner(kTinyScale, 2);
    std::vector<GridRow> rows;
    GridRow row;
    row.factory = [] { return makePredictor("bimodal:10"); };
    row.config = SimConfig::ghist();
    row.label = "bimodal";
    rows.push_back(std::move(row));
    const GridOutcome outcome = runner.runGrid(rows);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.resumedCells, 0u);
}

} // namespace
} // namespace ev8
