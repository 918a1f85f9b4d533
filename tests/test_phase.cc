/**
 * @file
 * Unit tests for the phase-classification layer under the stratified
 * sampler: windowed feature extraction, the leader-follower
 * classifier, the PhaseMap tiling invariants and its serialization
 * round-trip, and the sample planner's allocation guarantees. These
 * are the properties the extrapolation math relies on -- windows tile
 * the stream exactly, everything is a pure deterministic function of
 * (trace content, spec), and a corrupt sidecar is rejected rather
 * than trusted.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/block_stream.hh"
#include "sim/phase/classifier.hh"
#include "sim/phase/features.hh"
#include "sim/phase/phase_map.hh"
#include "sim/phase/sample_plan.hh"
#include "trace/trace_io.hh"
#include "workloads/suite.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kBranches = 20000;
constexpr uint64_t kWindow = 1024;
constexpr uint32_t kMaxPhases = 8;

const BlockStream &
testStream()
{
    static const BlockStream stream = decodeBlockStream(
        generateTrace(findBenchmark("gcc").profile, kBranches));
    return stream;
}

const PhaseMap &
testMap()
{
    static const PhaseMap map =
        buildPhaseMap(testStream(), kWindow, kMaxPhases);
    return map;
}

SampleSpec
testSpec()
{
    SampleSpec spec;
    spec.active = true;
    spec.windowBranches = kWindow;
    spec.warmupBranches = kWindow;
    spec.seed = 1;
    spec.maxPhases = kMaxPhases;
    return spec;
}

TEST(PhaseFeatures, DistanceIsSymmetricAndZeroOnSelf)
{
    const BlockStream &s = testStream();
    const size_t mid = s.blocks() / 2;
    WindowFeatureExtractor x;
    const WindowFeatures a = x.extract(s, 0, mid);
    const WindowFeatures b = x.extract(s, mid, s.blocks());
    EXPECT_DOUBLE_EQ(featureDistance(a, a), 0.0);
    EXPECT_DOUBLE_EQ(featureDistance(b, b), 0.0);
    EXPECT_DOUBLE_EQ(featureDistance(a, b), featureDistance(b, a));
}

TEST(PhaseFeatures, ScalarFeaturesAreNormalized)
{
    const BlockStream &s = testStream();
    const WindowFeatures f =
        WindowFeatureExtractor().extract(s, 0, s.blocks());
    EXPECT_GE(f.takenRate, 0.0);
    EXPECT_LE(f.takenRate, 1.0);
    EXPECT_GE(f.transitionRate, 0.0);
    EXPECT_LE(f.transitionRate, 1.0);
    EXPECT_GE(f.entropy, 0.0);
    EXPECT_LE(f.entropy, 1.0);
    double l1 = 0.0;
    for (double bin : f.signature) {
        EXPECT_GE(bin, 0.0);
        l1 += bin;
    }
    EXPECT_NEAR(l1, 1.0, 1e-9);
}

TEST(PhaseFeatures, ExtractionIsDeterministic)
{
    const BlockStream &s = testStream();
    // One extractor reused across windows, as buildPhaseMap does: a
    // window in between must leave no trace in the next one.
    WindowFeatureExtractor x;
    const WindowFeatures a = x.extract(s, 0, s.blocks());
    (void)x.extract(s, 0, s.blocks() / 3);
    const WindowFeatures b = x.extract(s, 0, s.blocks());
    EXPECT_DOUBLE_EQ(featureDistance(a, b), 0.0);
    EXPECT_DOUBLE_EQ(
        featureDistance(a, WindowFeatureExtractor().extract(s, 0,
                                                            s.blocks())),
        0.0);
}

TEST(PhaseClassifier, FoundsDistinctPhasesForDistantFeatures)
{
    PhaseClassifier c(4);
    WindowFeatures lo;
    lo.takenRate = 0.1;
    lo.signature[0] = 1.0;
    WindowFeatures hi;
    hi.takenRate = 0.9;
    hi.signature[1] = 1.0;
    EXPECT_EQ(c.classify(lo), 0u);
    EXPECT_EQ(c.classify(hi), 1u);
    EXPECT_EQ(c.phases(), 2u);
    // Repeats rejoin their founders.
    EXPECT_EQ(c.classify(lo), 0u);
    EXPECT_EQ(c.classify(hi), 1u);
    EXPECT_EQ(c.phases(), 2u);
}

TEST(PhaseClassifier, NearbyFeaturesJoinTheirLeader)
{
    PhaseClassifier c(4);
    WindowFeatures base;
    base.takenRate = 0.5;
    base.signature[0] = 1.0;
    WindowFeatures near = base;
    near.takenRate = 0.501;
    EXPECT_EQ(c.classify(base), 0u);
    EXPECT_EQ(c.classify(near), 0u);
    EXPECT_EQ(c.phases(), 1u);
}

TEST(PhaseClassifier, CapForcesJoinOfNearestLeader)
{
    PhaseClassifier c(2);
    for (int i = 0; i < 8; ++i) {
        WindowFeatures f;
        f.takenRate = 0.1 * i;
        f.signature[static_cast<size_t>(i) % kPhaseSignatureBins] = 1.0;
        const uint32_t id = c.classify(f);
        EXPECT_LT(id, 2u);
    }
    EXPECT_LE(c.phases(), 2u);
}

TEST(PhaseMapTest, WindowsTileTheStreamExactly)
{
    const BlockStream &s = testStream();
    const PhaseMap &map = testMap();

    ASSERT_FALSE(map.windows.empty());
    EXPECT_EQ(map.name, s.name());
    EXPECT_EQ(map.branches, s.branches());
    EXPECT_EQ(map.instructions, s.instructions());
    EXPECT_EQ(map.windowBranches, kWindow);
    EXPECT_EQ(map.maxPhases, kMaxPhases);
    EXPECT_GE(map.phases, 1u);
    EXPECT_LE(map.phases, kMaxPhases);

    // Per-block instruction counts include the tail instructions after
    // the last CTI, which Trace::instructionCount() excludes -- the
    // tiling invariant is against the block sums.
    uint64_t block_instrs = 0;
    for (size_t b = 0; b < s.blocks(); ++b)
        block_instrs += s.blockInstrs(b);

    uint64_t branches = 0, instrs = 0, next_block = 0, next_branch = 0;
    for (const PhaseWindow &w : map.windows) {
        EXPECT_EQ(w.blockBegin, next_block);
        EXPECT_EQ(w.branchBegin, next_branch);
        EXPECT_LT(w.blockBegin, w.blockEnd);
        EXPECT_LT(w.phaseId, map.phases);
        next_block = w.blockEnd;
        next_branch += w.branches;
        branches += w.branches;
        instrs += w.instrs;
    }
    EXPECT_EQ(next_block, s.blocks());
    EXPECT_EQ(branches, s.branches());
    EXPECT_EQ(instrs, block_instrs);
}

TEST(PhaseMapTest, WindowsRespectTheBranchBudget)
{
    const PhaseMap &map = testMap();
    // Block alignment can overshoot a window by at most one block's
    // branches; only the final window may run short (the remainder).
    for (size_t i = 0; i + 1 < map.windows.size(); ++i)
        EXPECT_GE(map.windows[i].branches, kWindow);
}

TEST(PhaseMapTest, BuildIsDeterministic)
{
    const PhaseMap again = buildPhaseMap(testStream(), kWindow, kMaxPhases);
    EXPECT_EQ(again, testMap());
}

TEST(PhaseMapTest, SerializationRoundTrips)
{
    std::stringstream buf;
    writePhaseMap(buf, testMap());
    const PhaseMap back = readPhaseMap(buf);
    EXPECT_EQ(back, testMap());
}

TEST(PhaseMapTest, RejectsGarbageAndTruncation)
{
    std::stringstream garbage("not a phase map at all");
    EXPECT_THROW(readPhaseMap(garbage), TraceIoError);

    std::stringstream buf;
    writePhaseMap(buf, testMap());
    const std::string bytes = buf.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(readPhaseMap(truncated), TraceIoError);
}

TEST(PhaseMapTest, RejectsFlippedVersion)
{
    std::stringstream buf;
    writePhaseMap(buf, testMap());
    std::string bytes = buf.str();
    // The u32 version follows the 4-byte magic; poke its low byte.
    bytes[4] = static_cast<char>(bytes[4] + 1);
    std::stringstream bumped(bytes);
    EXPECT_THROW(readPhaseMap(bumped), TraceIoError);
}

TEST(SamplePlanTest, PlanIsDeterministicAndSorted)
{
    const SampleSpec spec = testSpec();
    const SamplePlan a = buildSamplePlan(testMap(), spec, 4096);
    const SamplePlan b = buildSamplePlan(testMap(), spec, 4096);

    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].index, b.windows[i].index);
        EXPECT_EQ(a.windows[i].blockBegin, b.windows[i].blockBegin);
    }
    EXPECT_TRUE(std::is_sorted(
        a.windows.begin(), a.windows.end(),
        [](const SampledWindow &x, const SampledWindow &y) {
            return x.blockBegin < y.blockBegin;
        }));
}

TEST(SamplePlanTest, TotalsReproduceTheStream)
{
    const SamplePlan plan = buildSamplePlan(testMap(), testSpec(), 4096);
    EXPECT_EQ(plan.phases, testMap().phases);
    EXPECT_EQ(plan.windowsTotal, testMap().windows.size());
    EXPECT_EQ(plan.totalBranches, testStream().branches());
    EXPECT_EQ(plan.totalInstructions, testStream().instructions());

    uint64_t branches = 0, instrs = 0, windows = 0;
    ASSERT_EQ(plan.totals.size(), plan.phases);
    for (const SamplePlan::PhaseTotals &t : plan.totals) {
        windows += t.windows;
        branches += t.branches;
        instrs += t.instrs;
    }
    EXPECT_EQ(windows, plan.windowsTotal);
    EXPECT_EQ(branches, plan.totalBranches);
    // Window instrs count post-CTI tails the trace-level total omits.
    EXPECT_GE(instrs, plan.totalInstructions);
}

TEST(SamplePlanTest, BudgetRoughlyMet)
{
    const uint64_t budget = 4096;
    const SamplePlan plan = buildSamplePlan(testMap(), testSpec(), budget);
    ASSERT_FALSE(plan.windows.empty());
    // Allocation rounds to whole windows: within one window of target
    // on each side (and never more than the whole stream).
    EXPECT_GE(plan.measuredBranches() + 2 * kWindow, budget);
    EXPECT_LE(plan.measuredBranches(), testStream().branches());
}

TEST(SamplePlanTest, TinyBudgetStillSelectsOneWindow)
{
    const SamplePlan plan = buildSamplePlan(testMap(), testSpec(), 1);
    EXPECT_EQ(plan.windows.size(), 1u);
}

TEST(SamplePlanTest, OversizedBudgetSelectsEveryWindow)
{
    const SamplePlan plan = buildSamplePlan(
        testMap(), testSpec(), testStream().branches() * 2);
    EXPECT_EQ(plan.windows.size(), testMap().windows.size());
    EXPECT_EQ(plan.measuredBranches(), testStream().branches());
}

TEST(SamplePlanTest, EveryPhaseRepresentedWhenBudgetAllows)
{
    const PhaseMap &map = testMap();
    const uint64_t budget =
        static_cast<uint64_t>(map.phases) * 2 * kWindow;
    const SamplePlan plan = buildSamplePlan(map, testSpec(), budget);

    std::vector<bool> seen(map.phases, false);
    for (const SampledWindow &w : plan.windows) {
        ASSERT_LT(w.phaseId, map.phases);
        seen[w.phaseId] = true;
    }
    for (uint32_t p = 0; p < map.phases; ++p)
        EXPECT_TRUE(seen[p]) << "phase " << p << " unrepresented";
}

TEST(SamplePlanTest, WarmupPrefixPrecedesEachWindow)
{
    const SamplePlan plan = buildSamplePlan(testMap(), testSpec(), 4096);
    for (const SampledWindow &w : plan.windows) {
        EXPECT_LE(w.warmupBlockBegin, w.blockBegin);
        EXPECT_LT(w.blockBegin, w.blockEnd);
    }
    EXPECT_EQ(plan.warmupBranches, testSpec().warmupBranches);
}

TEST(SamplePlanTest, SeedMovesInPhasePlacement)
{
    SampleSpec other = testSpec();
    other.seed = 99;
    const SamplePlan a = buildSamplePlan(testMap(), testSpec(), 4096);
    const SamplePlan b = buildSamplePlan(testMap(), other, 4096);
    // Same allocation sizes (seed only shifts which representatives
    // are picked inside each phase).
    EXPECT_EQ(a.windows.size(), b.windows.size());
    EXPECT_EQ(b.seed, 99u);
}

} // namespace
} // namespace ev8
