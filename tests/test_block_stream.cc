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

#include <filesystem>
#include <sstream>
#include <string_view>
#include <vector>

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

/** A serialized header claiming the given counts, then @p payload. */
std::string
streamHeader(uint64_t blocks, uint64_t branches,
             const std::string &payload)
{
    std::ostringstream out;
    out.write("EV8S", 4);
    putU32(out, 1);
    putU32(out, 3);
    out.write("gcc", 3);
    putVarint(out, 1000); // instructions
    putVarint(out, blocks);
    putVarint(out, branches);
    out << payload;
    return out.str();
}

TEST(BlockStream, LyingHeaderCountsFailAfterBoundedAllocation)
{
    // One valid block (delta 0, 8 instructions, 1 branch in slot 0),
    // under headers claiming far more than the file holds. Reserving
    // the claimed counts would throw std::length_error or bad_alloc
    // rather than TraceIoError.
    const std::string block("\x00\x10\x01\x00", 4);
    EXPECT_NO_THROW(readBlockStream(streamHeader(1, 1, block)));
    EXPECT_THROW(readBlockStream(streamHeader(uint64_t{1} << 62, 1, block)),
                 TraceIoError);
    EXPECT_THROW(readBlockStream(streamHeader(1, 0xffffffffu, block)),
                 TraceIoError);
    EXPECT_THROW(readBlockStream(streamHeader(uint64_t{1} << 40,
                                              0xffffffffu, block)),
                 TraceIoError);
}

TEST(BlockStream, BranchCountBeyond32BitsIsRejectedFromTheHeader)
{
    // The prefix array is 32-bit: 2^32 branches would wrap it. The
    // header alone must be rejected, before any block is read.
    try {
        readBlockStream(streamHeader(1, uint64_t{1} << 32, ""));
        FAIL() << "2^32 branches accepted";
    } catch (const TraceIoError &err) {
        EXPECT_NE(std::string(err.what()).find("2^32"), std::string::npos)
            << err.what();
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
