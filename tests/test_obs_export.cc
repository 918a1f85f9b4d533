/**
 * @file
 * Tests for the machine-readable bench artifacts: JSON writer/parser
 * round-trips, the ev8-bench-v1 document structure, the CSV golden
 * format, and the non-finite-value policy (JSON null, CSV "--").
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"

namespace ev8
{
namespace
{

BenchExport
sampleExport()
{
    BenchExport data;
    data.experimentId = "Fig. T";
    data.title = "unit \"quoted\" title";
    data.branchesPerBenchmark = 2000;
    data.benchmarks = {"compress", "gcc"};
    data.rows.push_back({"gshare", 1024, {"compress", "gcc", "amean"},
                         {4.25, 8.5, 6.375}});
    data.rows.push_back({"empty-row", 0, {"compress", "gcc", "amean"},
                         {std::nan(""),
                          std::numeric_limits<double>::infinity(), 0.5}});
    return data;
}

TEST(JsonWriter, EscapesAndNestsCorrectly)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginObject();
    w.key("s");
    w.value("a\"b\\c\nd");
    w.key("arr");
    w.beginArray();
    w.value(uint64_t{7});
    w.value(true);
    w.valueNull();
    w.endArray();
    w.endObject();

    const JsonValue doc = parseJson(out.str());
    EXPECT_EQ(doc.at("s").text, "a\"b\\c\nd");
    ASSERT_EQ(doc.at("arr").items.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("arr").items[0].number, 7.0);
    EXPECT_TRUE(doc.at("arr").items[1].boolean);
    EXPECT_EQ(doc.at("arr").items[2].kind, JsonValue::Kind::Null);
}

TEST(JsonWriter, NonFiniteDoublesEmitNull)
{
    std::ostringstream out;
    JsonWriter w(out);
    w.beginArray();
    w.value(std::nan(""));
    w.value(std::numeric_limits<double>::infinity());
    w.value(1.5);
    w.endArray();
    EXPECT_EQ(out.str(), "[null,null,1.5]");
}

TEST(JsonParser, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), std::runtime_error);
    EXPECT_THROW(parseJson("[1,]"), std::runtime_error);
    EXPECT_THROW(parseJson("{} trailing"), std::runtime_error);
    EXPECT_THROW(parseJson(""), std::runtime_error);
}

TEST(BenchJson, DocumentRoundTripsThroughParser)
{
    BenchExport data = sampleExport();
    MetricRegistry registry;
    registry.counter("sim.fetch_blocks").inc(123);
    registry.gauge("pred.conf.mean").set(42.5);
    registry.histogram("sim.branches_per_block", {0.0, 1.0})
        .observe(1.0, 9);
    data.metrics = &registry;

    std::ostringstream out;
    writeBenchJson(out, data);
    const JsonValue doc = parseJson(out.str());

    EXPECT_EQ(doc.at("schema").text, "ev8-bench-v1");
    EXPECT_EQ(doc.at("experiment").at("id").text, "Fig. T");
    EXPECT_EQ(doc.at("experiment").at("title").text,
              "unit \"quoted\" title");
    EXPECT_DOUBLE_EQ(
        doc.at("workload").at("branches_per_benchmark").number, 2000.0);
    ASSERT_EQ(doc.at("workload").at("benchmarks").items.size(), 2u);

    const auto &rows = doc.at("rows").items;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].at("label").text, "gshare");
    EXPECT_DOUBLE_EQ(rows[0].at("storage_bits").number, 1024.0);
    EXPECT_DOUBLE_EQ(rows[0].at("values").at("amean").number, 6.375);
    // Non-finite values land as JSON null, not as literal nan/inf.
    EXPECT_EQ(rows[1].at("values").at("compress").kind,
              JsonValue::Kind::Null);
    EXPECT_EQ(rows[1].at("values").at("gcc").kind,
              JsonValue::Kind::Null);

    const JsonValue &metrics = doc.at("metrics");
    EXPECT_DOUBLE_EQ(
        metrics.at("counters").at("sim.fetch_blocks").number, 123.0);
    EXPECT_DOUBLE_EQ(
        metrics.at("gauges").at("pred.conf.mean").number, 42.5);
    const JsonValue &hist =
        metrics.at("histograms").at("sim.branches_per_block");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 9.0);
    ASSERT_EQ(hist.at("buckets").items.size(), 3u); // 2 bounds + overflow
    EXPECT_DOUBLE_EQ(hist.at("buckets").items[1].at("count").number, 9.0);

    // The timing block is a constant all-zero stub.
    for (const char *phase : {"lookup", "update", "history"}) {
        const JsonValue &t = doc.at("timing").at(phase);
        EXPECT_DOUBLE_EQ(t.at("calls").number, 0.0);
        EXPECT_DOUBLE_EQ(t.at("ns").number, 0.0);
        EXPECT_DOUBLE_EQ(t.at("ns_per_call").number, 0.0);
    }
}

TEST(BenchCsv, GoldenFormat)
{
    std::ostringstream out;
    writeBenchCsv(out, sampleExport());
    EXPECT_EQ(out.str(),
              "label,storage_bits,compress,gcc,amean\n"
              "gshare,1024,4.25,8.5,6.375\n"
              "empty-row,0,--,--,0.5\n");
}

TEST(RegistryJson, StandaloneObjectParses)
{
    MetricRegistry registry;
    registry.counter("a.count").inc(2);
    registry.gauge("b.gauge").set(-1.25);

    std::ostringstream out;
    writeRegistryJson(out, registry);
    const JsonValue doc = parseJson(out.str());
    EXPECT_DOUBLE_EQ(doc.at("counters").at("a.count").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("gauges").at("b.gauge").number, -1.25);
    EXPECT_TRUE(doc.at("histograms").members.empty());
}

} // namespace
} // namespace ev8
