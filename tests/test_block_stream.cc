/**
 * @file
 * Tests for pre-decoded block streams and the simulation walk built on
 * them: decode equivalence against FetchBlockBuilder, serialization
 * round-trips with hostile-input rejection, and the load-bearing
 * property of the whole hot-path overhaul -- stream simulation (the
 * production walk or the oracle) is bit-for-bit the same simulation as
 * the per-trace loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/random.hh"
#include "frontend/fetch_block.hh"
#include "obs/event_trace.hh"
#include "predictors/factory.hh"
#include "sim/block_stream.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "trace/varint.hh"
#include "workloads/suite.hh"

#include "temp_path.hh"

namespace ev8
{
namespace
{

constexpr uint64_t kBranches = 4000;

const Trace &
testTrace()
{
    static const Trace trace =
        generateTrace(findBenchmark("gcc").profile, kBranches);
    return trace;
}

std::vector<FetchBlock>
builderBlocks(const Trace &trace)
{
    std::vector<FetchBlock> blocks;
    auto sink = [&blocks](const FetchBlock &b) { blocks.push_back(b); };
    FetchBlockBuilder builder;
    builder.begin(trace.startPc());
    for (const auto &rec : trace.records())
        builder.feed(rec, sink);
    builder.flush(sink);
    return blocks;
}

TEST(BlockStream, DecodeMatchesFetchBlockBuilderExactly)
{
    const Trace &trace = testTrace();
    const BlockStream stream = decodeBlockStream(trace);
    const std::vector<FetchBlock> blocks = builderBlocks(trace);

    ASSERT_EQ(stream.blocks(), blocks.size());
    EXPECT_EQ(stream.name(), trace.name());
    EXPECT_EQ(stream.instructions(), trace.instructionCount());

    uint64_t total_branches = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const FetchBlock &ref = blocks[b];
        EXPECT_EQ(stream.blockAddr(b), ref.address);
        EXPECT_EQ(stream.blockInstrs(b), ref.numInstrs());
        EXPECT_EQ(stream.blockEndPc(b), ref.endPc);
        EXPECT_EQ(stream.blockEndsTaken(b), ref.endsTaken);
        ASSERT_EQ(stream.numBranches(b), ref.numBranches);
        for (unsigned k = 0; k < ref.numBranches; ++k) {
            EXPECT_EQ(stream.branchPc(b, k), ref.branches[k].pc);
            EXPECT_EQ(stream.branchTakenIn(b, k), ref.branches[k].taken);
        }
        total_branches += ref.numBranches;
    }
    EXPECT_EQ(stream.branches(), total_branches);
    EXPECT_EQ(stream.branches(), kBranches);
}

TEST(BlockStream, DecodeIsDeterministic)
{
    EXPECT_TRUE(decodeBlockStream(testTrace())
                == decodeBlockStream(testTrace()));
}

TEST(BlockStream, SerializationRoundTrips)
{
    // Through every reader: the istream, the byte-span and the file
    // overload.
    const BlockStream original = decodeBlockStream(testTrace());
    std::stringstream buffer;
    writeBlockStream(buffer, original);
    const std::string bytes = buffer.str();
    EXPECT_TRUE(readBlockStream(buffer) == original);
    EXPECT_TRUE(readBlockStream(std::string_view(bytes)) == original);

    const std::string path =
        uniqueTempPath("ev8_block_stream_roundtrip", ".ev8s");
    writeBlockStreamFile(path, original);
    const BlockStream from_file = readBlockStreamFile(path);
    std::filesystem::remove(path);
    EXPECT_TRUE(from_file == original);
}

TEST(BlockStream, RejectsBadMagicAndTruncation)
{
    {
        std::stringstream bad("EV8Xgarbage");
        EXPECT_THROW(readBlockStream(bad), TraceIoError);
    }

    const Trace small = generateTrace(findBenchmark("gcc").profile, 64);
    std::stringstream buffer;
    writeBlockStream(buffer, decodeBlockStream(small));
    const std::string bytes = buffer.str();
    ASSERT_NO_THROW(readBlockStream(std::string_view(bytes)));
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
        std::stringstream truncated(bytes.substr(0, cut));
        EXPECT_THROW(readBlockStream(truncated), TraceIoError)
            << "cut at byte " << cut << " of " << bytes.size();
    }
}

TEST(BlockStream, BranchBeginIsThePrefixSumAtCheckpointEdges)
{
    const BlockStream stream = decodeBlockStream(testTrace());
    ASSERT_GT(stream.blocks(), 2 * BlockStream::kCheckpointBlocks);
    std::vector<uint64_t> prefix{0};
    for (size_t b = 0; b < stream.blocks(); ++b)
        prefix.push_back(prefix.back() + stream.numBranches(b));
    for (size_t b : {size_t{0}, size_t{63}, size_t{64}, size_t{65},
                     stream.blocks()})
        EXPECT_EQ(stream.branchBegin(b), prefix[b]) << "block " << b;
    for (size_t b = 0; b <= stream.blocks(); ++b)
        ASSERT_EQ(stream.branchBegin(b), prefix[b]) << "block " << b;
    EXPECT_EQ(stream.branchBegin(stream.blocks()), stream.branches());
}

TEST(BlockStream, ShapeTableHoldsTheDistinctBlocksInFirstSeenOrder)
{
    const BlockStream stream = decodeBlockStream(testTrace());
    std::vector<BlockShape> seen;
    for (size_t b = 0; b < stream.blocks(); ++b) {
        const BlockShape &s = stream.blockShape(b);
        if (std::find(seen.begin(), seen.end(), s) == seen.end())
            seen.push_back(s);
    }
    ASSERT_EQ(stream.shapes(), seen.size());
    // A dynamic stream revisits a small static set.
    EXPECT_LT(stream.shapes() * 4, stream.blocks());
}

/**
 * A trace whose block addresses span more than 2^32 bytes and which
 * holds more than 65,536 distinct block shapes (so shape ids need
 * three-byte varints), with varying block lengths, branch counts and
 * outcomes, and a second pass that revisits early blocks.
 */
Trace
wideTrace()
{
    constexpr uint64_t kBlocks = 70000;
    constexpr uint64_t kStride = 0x10020; // 32-byte aligned rows
    auto row = [](uint64_t i) { return 0x1000 + i * kStride; };
    Trace trace("wide", row(0));
    auto visit = [&](uint64_t i, uint64_t next) {
        const unsigned last = static_cast<unsigned>(i % 8);
        if (last >= 2) {
            trace.append(BranchRecord{row(i), row(next),
                                      BranchType::Conditional,
                                      (i / 8) % 3 == 0});
            if ((i / 8) % 3 == 0)
                return; // taken: the block ended early
        }
        trace.append(BranchRecord{row(i) + last * kInstrBytes, row(next),
                                  BranchType::Conditional, true});
    };
    for (uint64_t i = 0; i + 1 < kBlocks; ++i)
        visit(i, i + 1);
    visit(kBlocks - 1, 0);
    for (uint64_t i = 0; i < 2000; ++i)
        visit(i, i + 1);
    return trace;
}

TEST(BlockStream, WideAddressesAndManyShapesRoundTripAndWalkLikeTheTrace)
{
    const Trace trace = wideTrace();
    const BlockStream stream = decodeBlockStream(trace);
    EXPECT_GT(stream.shapes(), 65536u);
    EXPECT_LT(stream.shapes(), stream.blocks());

    std::stringstream buffer;
    writeBlockStream(buffer, stream);
    const BlockStream back = readBlockStream(buffer);
    EXPECT_TRUE(back == stream);
    uint64_t max_addr = 0;
    for (size_t b = 0; b < back.blocks(); ++b)
        max_addr = std::max(max_addr, back.blockAddr(b));
    EXPECT_GT(max_addr, uint64_t{1} << 32);

    SimConfig config;
    config.history = HistoryMode::LghistPath;
    config.historyAge = 3;
    config.assignBanks = true;
    PredictorPtr a = make2BcGskew512K();
    PredictorPtr b = make2BcGskew512K();
    const SimResult from_trace = simulateTrace(trace, *a, config);
    const SimResult from_stream = simulateStream(back, *b, config);
    EXPECT_EQ(from_stream.fetchBlocks, from_trace.fetchBlocks);
    EXPECT_EQ(from_stream.condBranches, from_trace.condBranches);
    EXPECT_EQ(from_stream.lghistBits, from_trace.lghistBits);
    EXPECT_EQ(from_stream.branchesPerBlock, from_trace.branchesPerBlock);
    EXPECT_EQ(from_stream.stats.mispredictions(),
              from_trace.stats.mispredictions());
    EXPECT_EQ(from_stream.stats.instructions(),
              from_trace.stats.instructions());
}

TEST(BlockStream, ReservationCoversEverySuiteProfile)
{
    // The builder reserves kBlocksPerBranchReserve ids per expected
    // branch; a profile exceeding it would reallocate (and copy) its id
    // array near the end of every synthesis.
    for (const Benchmark &bench : specint95Suite()) {
        const BlockStream stream = decodeBlockStream(
            generateTrace(bench.profile, 200000));
        const double ratio = static_cast<double>(stream.blocks())
            / static_cast<double>(stream.branches());
        EXPECT_LE(ratio,
                  double(BlockStreamBuilder::kBlocksPerBranchReserve))
            << bench.profile.name;
    }
}

/**
 * A v2 file: a header claiming the given counts, then @p payload (the
 * shape table, the ids and the branch bytes).
 */
std::string
streamHeader(uint64_t blocks, uint64_t branches, uint64_t shapes,
             const std::string &payload)
{
    std::ostringstream out;
    out.write("EV8S", 4);
    putU32(out, 2);
    putU32(out, 3);
    out.write("gcc", 3);
    putVarint(out, 1000); // instructions
    putVarint(out, blocks);
    putVarint(out, branches);
    putVarint(out, shapes);
    out << payload;
    return out.str();
}

/** Shape 0: delta 0, 8 instructions, not taken, 1 branch. */
const std::string kShape("\x00\x10\x01", 3);

TEST(BlockStream, LyingHeaderCountsFailAfterBoundedAllocation)
{
    // One valid block (shape 0, one branch in slot 0), under headers
    // claiming far more than the file holds. Reserving the claimed
    // counts would throw std::length_error or bad_alloc rather than
    // TraceIoError.
    const std::string block = kShape + std::string("\x00\x00", 2);
    EXPECT_NO_THROW(readBlockStream(streamHeader(1, 1, 1, block)));
    EXPECT_THROW(readBlockStream(streamHeader(uint64_t{1} << 62, 1, 1,
                                              block)),
                 TraceIoError);
    EXPECT_THROW(readBlockStream(streamHeader(1, 0xffffffffu, 1, block)),
                 TraceIoError);
    EXPECT_THROW(readBlockStream(streamHeader(uint64_t{1} << 40,
                                              0xffffffffu, 1, block)),
                 TraceIoError);
    EXPECT_THROW(readBlockStream(streamHeader(uint64_t{1} << 41, 1,
                                              uint64_t{1} << 40, block)),
                 TraceIoError);
}

TEST(BlockStream, BranchCountBeyond32BitsIsRejectedFromTheHeader)
{
    // Branch indices are 32-bit: 2^32 branches would wrap them. The
    // header alone must be rejected, before any block is read.
    try {
        readBlockStream(streamHeader(1, uint64_t{1} << 32, 1, ""));
        FAIL() << "2^32 branches accepted";
    } catch (const TraceIoError &err) {
        EXPECT_NE(std::string(err.what()).find("2^32"), std::string::npos)
            << err.what();
    }
}

/** Expects readBlockStream(@p bytes) to throw a message containing
 *  @p what. */
void
expectRejected(const std::string &bytes, const std::string &what)
{
    try {
        readBlockStream(std::string_view(bytes));
        ADD_FAILURE() << "accepted; expected: " << what;
    } catch (const TraceIoError &err) {
        EXPECT_NE(std::string(err.what()).find(what), std::string::npos)
            << err.what() << " (expected: " << what << ")";
    }
}

/** The given bytes as a string (string literals stop at a NUL). */
std::string
raw(std::initializer_list<uint8_t> bytes)
{
    return std::string(bytes.begin(), bytes.end());
}

TEST(BlockStream, RejectsMalformedShapesIdsAndCounts)
{
    const std::string branch = raw({0x00});
    const std::string shape1 = raw({0x10, 0x05, 0x00}); // +8 B, 2, taken
    // Shape id equal to the shape count.
    expectRejected(streamHeader(1, 1, 1, kShape + raw({1}) + branch),
                   "out of range");
    // A later shape used before an earlier one.
    expectRejected(streamHeader(2, 1, 2,
                                kShape + shape1 + raw({1, 0}) + branch),
                   "out of order");
    // A shape no block uses.
    expectRejected(streamHeader(2, 2, 2,
                                kShape + shape1 + raw({0, 0}) + branch
                                    + branch),
                   "unused block shape");
    // The same shape listed twice.
    expectRejected(streamHeader(2, 2, 2,
                                kShape + kShape + raw({0, 1}) + branch
                                    + branch),
                   "duplicate block shape");
    // Instruction counts 0 and 9, and more branches than instructions.
    expectRejected(streamHeader(1, 1, 1, raw({0, 0x00, 1, 0, 0})),
                   "instruction count");
    expectRejected(streamHeader(1, 1, 1, raw({0, 0x12, 1, 0, 0})),
                   "instruction count");
    expectRejected(streamHeader(1, 3, 1, raw({0, 0x04, 3, 0, 0, 0, 0})),
                   "bad block branch count");
    // Header branch count disagreeing with the shapes' sum, either way.
    expectRejected(streamHeader(1, 2, 1,
                                kShape + raw({0}) + branch + branch),
                   "branch count mismatch");
    expectRejected(streamHeader(2, 1, 1, kShape + raw({0, 0}) + branch),
                   "branch count mismatch");
    // More shapes than blocks, and blocks without shapes.
    expectRejected(streamHeader(1, 1, 2,
                                kShape + shape1 + raw({0}) + branch),
                   "shape count");
    expectRejected(streamHeader(1, 0, 0, raw({0})), "shape count");
    // A branch slot past the block's last instruction (slot 2 of 2).
    expectRejected(streamHeader(1, 1, 1, raw({0, 0x04, 1, 0, 0x04})),
                   "slot outside block");
    // Bytes after the last branch.
    expectRejected(streamHeader(1, 1, 1, kShape + raw({0}) + branch + "x"),
                   "trailing bytes");
    // The well-formed neighbours of the cases above parse.
    EXPECT_NO_THROW(readBlockStream(streamHeader(
        2, 1, 2, kShape + shape1 + raw({0, 1}) + branch)));
    EXPECT_NO_THROW(readBlockStream(streamHeader(0, 0, 0, "")));
}

TEST(BlockStream, RandomByteFlipsParseOrThrowNeverCrash)
{
    // A valid file with corrupted bytes: whatever the reader accepts
    // must be a consistent stream the walk can consume.
    std::stringstream buffer;
    writeBlockStream(buffer, decodeBlockStream(generateTrace(
                                 findBenchmark("gcc").profile, 300)));
    const std::string base = buffer.str();
    Rng rng(0xb10c);
    for (int trial = 0; trial < 600; ++trial) {
        std::string data = base;
        const int flips = 1 + static_cast<int>(rng.below(3));
        for (int f = 0; f < flips; ++f)
            data[rng.below(data.size())] ^=
                static_cast<char>(1 + rng.below(255));
        try {
            const BlockStream s = readBlockStream(std::string_view(data));
            ASSERT_EQ(s.branchBegin(s.blocks()), s.branches());
            PredictorPtr p = makePredictor("gshare:12:12");
            const SimResult r = simulateStream(s, *p, SimConfig{});
            EXPECT_EQ(r.condBranches, s.branches());
        } catch (const TraceIoError &) {
        }
    }
}

/** Everything a simulation produced, for exact comparison. */
struct RunOutput
{
    SimResult result;
    std::vector<MispredictEvent> events;
};

RunOutput
runOnce(bool use_stream, HistoryMode history, bool generic)
{
    SimConfig config;
    config.history = history;
    config.historyAge = history == HistoryMode::Ghist ? 0 : 3;
    config.assignBanks = history != HistoryMode::Ghist;
    config.forceGenericKernel = generic;
    BufferedEventSink sink;
    config.events = &sink;

    PredictorPtr predictor = make2BcGskew512K();
    RunOutput out;
    if (use_stream) {
        const BlockStream stream = decodeBlockStream(testTrace());
        out.result = simulateStream(stream, *predictor, config);
    } else {
        out.result = simulateTrace(testTrace(), *predictor, config);
    }
    out.events = sink.take();
    return out;
}

void
expectIdentical(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.result.condBranches, b.result.condBranches);
    EXPECT_EQ(a.result.fetchBlocks, b.result.fetchBlocks);
    EXPECT_EQ(a.result.lghistBits, b.result.lghistBits);
    EXPECT_EQ(a.result.branchesPerBlock, b.result.branchesPerBlock);
    EXPECT_EQ(a.result.stats.lookups(), b.result.stats.lookups());
    EXPECT_EQ(a.result.stats.mispredictions(),
              b.result.stats.mispredictions());
    EXPECT_EQ(a.result.stats.instructions(),
              b.result.stats.instructions());

    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        const MispredictEvent &x = a.events[i];
        const MispredictEvent &y = b.events[i];
        EXPECT_EQ(x.branchSeq, y.branchSeq);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.blockAddr, y.blockAddr);
        EXPECT_EQ(x.ghist, y.ghist);
        EXPECT_EQ(x.indexHist, y.indexHist);
        EXPECT_EQ(x.bank, y.bank);
        EXPECT_EQ(x.taken, y.taken);
        EXPECT_EQ(x.predicted, y.predicted);
        EXPECT_EQ(x.votesValid, y.votesValid);
        EXPECT_EQ(x.voteBim, y.voteBim);
        EXPECT_EQ(x.voteG0, y.voteG0);
        EXPECT_EQ(x.voteG1, y.voteG1);
        EXPECT_EQ(x.voteMeta, y.voteMeta);
        EXPECT_EQ(x.voteMajority, y.voteMajority);
    }
}

TEST(StreamKernel, StreamSimulationEqualsTraceSimulation)
{
    for (HistoryMode mode :
         {HistoryMode::Ghist, HistoryMode::LghistPath}) {
        expectIdentical(runOnce(false, mode, false),
                        runOnce(true, mode, false));
    }
}

TEST(StreamKernel, DevirtualizedKernelEqualsGenericKernel)
{
    for (HistoryMode mode :
         {HistoryMode::Ghist, HistoryMode::LghistPath}) {
        expectIdentical(runOnce(true, mode, false),
                        runOnce(true, mode, true));
    }
}

} // namespace
} // namespace ev8
