/**
 * @file
 * Unit tests for binary trace serialization (roundtrip + error paths).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string_view>

#include "common/random.hh"
#include "trace/trace_io.hh"

#include "temp_path.hh"

namespace ev8
{
namespace
{

Trace
makeRandomTrace(uint64_t seed, size_t records)
{
    Rng rng(seed);
    Trace t("random-" + std::to_string(seed), 0x120000000ULL);
    uint64_t flow = t.startPc();
    for (size_t i = 0; i < records; ++i) {
        BranchRecord r;
        r.pc = flow + rng.below(16) * kInstrBytes;
        r.type = static_cast<BranchType>(rng.below(5));
        const bool forward = rng.chance(0.7);
        const uint64_t dist = (1 + rng.below(4000)) * kInstrBytes;
        r.target = forward ? r.pc + dist
                           : (r.pc > dist ? r.pc - dist : r.pc + dist);
        r.taken = r.isConditional() ? rng.chance(0.4) : true;
        t.append(r);
        flow = r.nextPc();
    }
    return t;
}

TEST(TraceIo, RoundtripEmpty)
{
    Trace t("empty", 0x1000);
    std::stringstream buf;
    writeTrace(buf, t);
    const Trace back = readTrace(buf);
    EXPECT_EQ(back.name(), "empty");
    EXPECT_EQ(back.startPc(), 0x1000u);
    EXPECT_TRUE(back.empty());
}

TEST(TraceIo, RoundtripSmall)
{
    Trace t("small", 0x2000);
    BranchRecord r;
    r.pc = 0x2010;
    r.target = 0x3000;
    r.type = BranchType::Conditional;
    r.taken = true;
    t.append(r);
    std::stringstream buf;
    writeTrace(buf, t);
    const Trace back = readTrace(buf);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back.records()[0], r);
}

class TraceIoRoundtrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(TraceIoRoundtrip, RandomTraces)
{
    const Trace t = makeRandomTrace(GetParam(), GetParam() * 37 + 10);
    std::stringstream buf;
    writeTrace(buf, t);
    const Trace back = readTrace(buf);
    ASSERT_EQ(back.size(), t.size());
    EXPECT_EQ(back.name(), t.name());
    EXPECT_EQ(back.startPc(), t.startPc());
    for (size_t i = 0; i < t.size(); ++i)
        ASSERT_EQ(back.records()[i], t.records()[i]) << "record " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TraceIoRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 50, 200));

TEST(TraceIo, FileRoundtrip)
{
    const Trace t = makeRandomTrace(99, 500);
    const std::string path = uniqueTempPath("ev8_trace_test", ".evt");
    writeTraceFile(path, t);
    const Trace back = readTraceFile(path);
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.records(), t.records());
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buf;
    buf << "NOPE this is not a trace";
    EXPECT_THROW(readTrace(buf), TraceIoError);
}

TEST(TraceIo, RejectsTruncatedHeader)
{
    std::stringstream buf;
    buf << "EV8T";
    EXPECT_THROW(readTrace(buf), TraceIoError);
}

TEST(TraceIo, RejectsTruncatedRecords)
{
    const Trace t = makeRandomTrace(7, 100);
    std::stringstream buf;
    writeTrace(buf, t);
    std::string data = buf.str();
    data.resize(data.size() / 2); // chop the record stream
    std::stringstream cut(data);
    EXPECT_THROW(readTrace(cut), TraceIoError);
}

TEST(TraceIo, RejectsTruncationAtEveryOffset)
{
    // Every proper prefix of a valid file is rejected -- through the
    // byte-span parser and the istream overload that buffers into it.
    const Trace t = makeRandomTrace(11, 40);
    std::stringstream buf;
    writeTrace(buf, t);
    const std::string data = buf.str();
    EXPECT_EQ(readTrace(std::string_view(data)).records(), t.records());
    for (size_t cut = 0; cut < data.size(); ++cut) {
        EXPECT_THROW(readTrace(std::string_view(data).substr(0, cut)),
                     TraceIoError)
            << "cut at byte " << cut << " of " << data.size();
        std::stringstream in(data.substr(0, cut));
        EXPECT_THROW(readTrace(in), TraceIoError)
            << "cut at byte " << cut << " of " << data.size();
    }
}

TEST(TraceIo, RejectsUnsupportedVersion)
{
    const Trace t = makeRandomTrace(3, 5);
    std::stringstream buf;
    writeTrace(buf, t);
    std::string data = buf.str();
    data[4] = 99; // version field, little-endian low byte
    std::stringstream bad(data);
    EXPECT_THROW(readTrace(bad), TraceIoError);
}

TEST(TraceIo, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path/trace.evt"),
                 TraceIoError);
}

} // namespace
} // namespace ev8
