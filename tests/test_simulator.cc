/**
 * @file
 * Tests for the trace-driven simulator: information-vector plumbing
 * (ghist vs. lghist, aging, path registers, banks) and accounting.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "frontend/bank_scheduler.hh"
#include "frontend/fetch_block_util.hh"
#include "frontend/lghist.hh"
#include "sim/simulator.hh"
#include "workloads/synthetic_program.hh"

namespace ev8
{
namespace
{

BranchRecord
rec(uint64_t pc, uint64_t target, BranchType type, bool taken)
{
    return BranchRecord{pc, target, type, taken};
}

/** Probe predictor: records every snapshot it sees, predicts not-taken. */
class ProbePredictor : public ConditionalBranchPredictor
{
  public:
    bool
    predict(const BranchSnapshot &snap) override
    {
        seen.push_back(snap);
        return false;
    }
    void update(const BranchSnapshot &, bool taken, bool) override
    {
        outcomes.push_back(taken);
    }
    uint64_t storageBits() const override { return 0; }
    std::string name() const override { return "probe"; }

    std::vector<BranchSnapshot> seen;
    std::vector<bool> outcomes;
};

Trace
tinyTrace()
{
    // Three conditional branches across two fetch blocks plus a taken
    // jump between them.
    Trace t("tiny", 0x1000);
    t.append(rec(0x1004, 0x2000, BranchType::Conditional, false));
    t.append(rec(0x1008, 0x2000, BranchType::Conditional, true));
    t.append(rec(0x2004, 0x3000, BranchType::Conditional, false));
    t.append(rec(0x2008, 0x1000, BranchType::Unconditional, true));
    return t;
}

TEST(Simulator, CountsBranchesAndInstructions)
{
    ProbePredictor probe;
    const Trace t = tinyTrace();
    const SimResult r = simulateTrace(t, probe, SimConfig::ghist());
    EXPECT_EQ(r.condBranches, 3u);
    EXPECT_EQ(r.stats.lookups(), 3u);
    EXPECT_EQ(r.stats.instructions(), t.instructionCount());
    // Probe predicts not-taken: exactly the taken branch mispredicts.
    EXPECT_EQ(r.stats.mispredictions(), 1u);
}

TEST(Simulator, GhistModePassesPerBranchHistory)
{
    ProbePredictor probe;
    simulateTrace(tinyTrace(), probe, SimConfig::ghist());
    ASSERT_EQ(probe.seen.size(), 3u);
    EXPECT_EQ(probe.seen[0].hist.indexHist, 0u);
    // Second branch sees the first's outcome (NT = 0).
    EXPECT_EQ(probe.seen[1].hist.indexHist, 0b0u);
    // Third sees NT, T -> 0b01.
    EXPECT_EQ(probe.seen[2].hist.indexHist, 0b01u);
    // ghist mirror matches.
    EXPECT_EQ(probe.seen[2].hist.ghist, 0b01u);
}

TEST(Simulator, BlockAddressAndPcPlumbed)
{
    ProbePredictor probe;
    simulateTrace(tinyTrace(), probe, SimConfig::ghist());
    EXPECT_EQ(probe.seen[0].pc, 0x1004u);
    EXPECT_EQ(probe.seen[0].blockAddr, 0x1000u);
    EXPECT_EQ(probe.seen[2].pc, 0x2004u);
    EXPECT_EQ(probe.seen[2].blockAddr, 0x2000u);
}

TEST(Simulator, PathRegistersHoldPreviousBlocks)
{
    ProbePredictor probe;
    // Block chain: 0x1000 (taken to 0x2000), 0x2000 (jump to 0x1000),
    // 0x1000 ... with conditional branches in each 0x1000 block.
    Trace t("path", 0x1000);
    for (int i = 0; i < 4; ++i) {
        t.append(rec(0x1004, 0x2000, BranchType::Unconditional, true));
        t.append(rec(0x2004, 0x1000, BranchType::Conditional, true));
    }
    simulateTrace(t, probe, SimConfig::ev8());
    ASSERT_GE(probe.seen.size(), 3u);
    // The branch in the second 0x2000 block: previous block (Z) is the
    // 0x1000 block, before that (Y) the previous 0x2000 block.
    const BranchSnapshot &s = probe.seen[1];
    EXPECT_EQ(s.blockAddr, 0x2000u);
    EXPECT_EQ(s.hist.pathZ, 0x1000u);
    EXPECT_EQ(s.hist.pathY, 0x2000u);
    EXPECT_EQ(s.hist.pathX, 0x1000u);
}

TEST(Simulator, LghistAgingMatchesReferenceModel)
{
    // Cross-check the simulator's aged lghist against an independently
    // maintained reference built from the fetch-block sequence.
    const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "aging";
        p.seed = 123;
        p.shape.numFunctions = 4;
        p.shape.minBlocksPerFunction = 6;
        p.shape.maxBlocksPerFunction = 16;
        p.mix.biased = 0.6;
        p.mix.random = 0.4;
        return p;
    }();
    const Trace t = generateTrace(profile, 3000);

    for (unsigned age : {0u, 3u}) {
        SimConfig cfg;
        cfg.history = HistoryMode::LghistPath;
        cfg.historyAge = age;
        ProbePredictor probe;
        simulateTrace(t, probe, cfg);

        // Reference: walk fetch blocks, maintain lghist, record the
        // aged view visible to each conditional branch.
        const auto blocks = buildFetchBlocks(t);
        LghistTracker lghist(true);
        std::deque<uint64_t> posts; // post-update register per block
        std::vector<uint64_t> expected;
        for (const auto &block : blocks) {
            uint64_t view = 0;
            if (posts.size() >= age + 1)
                view = posts[posts.size() - (age + 1)];
            for (unsigned i = 0; i < block.numBranches; ++i)
                expected.push_back(view);
            lghist.onBlock(block);
            posts.push_back(lghist.value());
        }

        ASSERT_EQ(probe.seen.size(), expected.size()) << "age " << age;
        for (size_t i = 0; i < expected.size(); ++i) {
            ASSERT_EQ(probe.seen[i].hist.indexHist, expected[i])
                << "age " << age << " branch " << i;
        }
    }
}

TEST(Simulator, LghistNoPathDiffersFromPath)
{
    const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "paths";
        p.seed = 5;
        p.shape.numFunctions = 3;
        p.shape.minBlocksPerFunction = 6;
        p.shape.maxBlocksPerFunction = 12;
        p.mix.random = 1.0;
        p.mix.biased = 0.0;
        return p;
    }();
    const Trace t = generateTrace(profile, 2000);

    SimConfig with_path;
    with_path.history = HistoryMode::LghistPath;
    SimConfig no_path;
    no_path.history = HistoryMode::LghistNoPath;

    ProbePredictor a, b;
    simulateTrace(t, a, with_path);
    simulateTrace(t, b, no_path);
    ASSERT_EQ(a.seen.size(), b.seen.size());
    bool any_diff = false;
    for (size_t i = 0; i < a.seen.size(); ++i)
        any_diff |= a.seen[i].hist.indexHist != b.seen[i].hist.indexHist;
    EXPECT_TRUE(any_diff) << "path bit had no effect";
}

TEST(Simulator, BankAssignmentConflictFree)
{
    const WorkloadProfile profile = [] {
        WorkloadProfile p;
        p.name = "banks";
        p.seed = 9;
        p.shape.numFunctions = 4;
        p.shape.minBlocksPerFunction = 6;
        p.shape.maxBlocksPerFunction = 14;
        p.mix.biased = 0.7;
        p.mix.random = 0.3;
        return p;
    }();
    const Trace t = generateTrace(profile, 5000);
    ProbePredictor probe;
    simulateTrace(t, probe, SimConfig::ev8());
    // Banks are always valid and all four get used over a long run.
    // (Per-pair conflict-freedom is proven at the BankScheduler level;
    // snapshots alone cannot delimit dynamic block instances, since a
    // one-block loop legitimately re-banks the same address.)
    bool used[4] = {};
    for (const auto &s : probe.seen) {
        ASSERT_LT(s.bank, 4u);
        used[s.bank] = true;
    }
    EXPECT_TRUE(used[0] && used[1] && used[2] && used[3]);
}

TEST(Simulator, LghistRatioMatchesTable3Definition)
{
    ProbePredictor probe;
    const Trace t = tinyTrace();
    const SimResult r = simulateTrace(t, probe, SimConfig::ev8());
    // tiny trace: block 0x1000 has 2 cond branches, block 0x2000 has 1;
    // both insert one lghist bit each.
    EXPECT_EQ(r.lghistBits, 2u);
    EXPECT_EQ(r.condBranches, 3u);
    EXPECT_DOUBLE_EQ(r.lghistRatio(), 1.5);
}

TEST(Simulator, FetchBlocksCounted)
{
    ProbePredictor probe;
    const SimResult r =
        simulateTrace(tinyTrace(), probe, SimConfig::ghist());
    EXPECT_GE(r.fetchBlocks, 2u);
}

} // namespace
} // namespace ev8
