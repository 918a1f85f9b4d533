#include "obs/export.hh"

#include <cmath>

#include "obs/json.hh"

namespace ev8
{

namespace
{

void
writeRegistryMembers(JsonWriter &w, const MetricRegistry &registry)
{
    const auto entries = registry.entries();

    w.key("counters");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Counter)
            continue;
        w.key(*e.name);
        w.value(e.counter->value());
    }
    w.endObject();

    w.key("gauges");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Gauge)
            continue;
        w.key(*e.name);
        w.value(e.gauge->value());
    }
    w.endObject();

    w.key("histograms");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Histogram)
            continue;
        w.key(*e.name);
        w.beginObject();
        w.key("count");
        w.value(e.histogram->count());
        w.key("sum");
        w.value(e.histogram->sum());
        w.key("buckets");
        w.beginArray();
        const auto &bounds = e.histogram->bounds();
        const auto &counts = e.histogram->bucketCounts();
        for (size_t i = 0; i < counts.size(); ++i) {
            w.beginObject();
            w.key("le");
            if (i < bounds.size())
                w.value(bounds[i]);
            else
                w.value("inf"); // the overflow bucket
            w.key("count");
            w.value(counts[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

void
writeTelemetryMember(JsonWriter &w, const TelemetryExport &tel)
{
    w.key("telemetry");
    w.beginObject();

    w.key("wall_ns");
    w.value(tel.wallNs);
    w.key("cpu_user_ns");
    w.value(tel.cpuUserNs);
    w.key("cpu_sys_ns");
    w.value(tel.cpuSysNs);
    w.key("peak_rss_bytes");
    w.value(tel.peakRssBytes);

    w.key("phases");
    w.beginObject();
    for (const auto &phase : tel.phases) {
        w.key(phase.name);
        w.beginObject();
        w.key("count");
        w.value(phase.count);
        w.key("wall_ns");
        w.value(phase.wallNs);
        w.endObject();
    }
    w.endObject();

    w.key("cell_duration_ms");
    w.beginObject();
    w.key("count");
    w.value(tel.cellCount);
    w.key("sum");
    w.value(tel.cellSumMs);
    w.key("buckets");
    w.beginArray();
    for (size_t i = 0; i < tel.cellBucketCounts.size(); ++i) {
        w.beginObject();
        w.key("le");
        if (i < tel.cellBoundsMs.size())
            w.value(tel.cellBoundsMs[i]);
        else
            w.value("inf"); // the overflow bucket
        w.key("count");
        w.value(tel.cellBucketCounts[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("trace_cache");
    w.beginObject();
    w.key("trace_requests");
    w.value(tel.traceRequests);
    w.key("trace_disk_hits");
    w.value(tel.traceDiskHits);
    w.key("traces_generated");
    w.value(tel.tracesGenerated);
    w.key("stream_requests");
    w.value(tel.streamRequests);
    w.key("stream_disk_hits");
    w.value(tel.streamDiskHits);
    w.key("streams_decoded");
    w.value(tel.streamsDecoded);
    w.key("stream_hit_ratio");
    w.value(tel.streamHitRatio);
    w.endObject();

    w.key("pool");
    w.beginObject();
    w.key("workers");
    w.value(tel.poolWorkers);
    w.key("grid_cells");
    w.value(tel.poolGridCells);
    w.key("busy_ns");
    w.value(tel.poolBusyNs);
    w.key("wall_ns");
    w.value(tel.poolWallNs);
    w.key("utilization");
    w.value(tel.poolUtilization);
    w.endObject();

    w.key("simd");
    w.beginObject();
    w.key("backend");
    w.value(tel.simdBackend);
    w.key("lanes");
    w.value(static_cast<uint64_t>(tel.simdLanes));
    w.endObject();

    w.endObject();
}

} // namespace

void
writeRegistryJson(std::ostream &out, const MetricRegistry &registry)
{
    JsonWriter w(out);
    w.beginObject();
    writeRegistryMembers(w, registry);
    w.endObject();
}

void
writeBenchJson(std::ostream &out, const BenchExport &data)
{
    JsonWriter w(out);
    w.beginObject();
    w.key("schema");
    w.value("ev8-bench-v1");

    w.key("experiment");
    w.beginObject();
    w.key("id");
    w.value(data.experimentId);
    w.key("title");
    w.value(data.title);
    w.endObject();

    w.key("workload");
    w.beginObject();
    w.key("branches_per_benchmark");
    w.value(data.branchesPerBenchmark);
    w.key("benchmarks");
    w.beginArray();
    for (const auto &b : data.benchmarks)
        w.value(b);
    w.endArray();
    w.endObject();

    if (data.sampling.active) {
        const SamplingExport &s = data.sampling;
        w.key("sampling");
        w.beginObject();
        w.key("mode");
        w.value(s.mode);
        w.key("budget");
        w.value(s.budget);
        w.key("window_branches");
        w.value(s.windowBranches);
        w.key("warmup_branches");
        w.value(s.warmupBranches);
        w.key("seed");
        w.value(s.seed);
        w.key("max_phases");
        w.value(s.maxPhases);
        w.key("cells");
        w.beginArray();
        for (const auto &cell : s.cells) {
            w.beginObject();
            w.key("row_label");
            w.value(cell.rowLabel);
            w.key("bench");
            w.value(cell.bench);
            w.key("phases");
            w.value(cell.phases);
            w.key("windows_total");
            w.value(cell.windowsTotal);
            w.key("windows_simulated");
            w.value(cell.windowsSimulated);
            w.key("branches_simulated");
            w.value(cell.branchesSimulated);
            w.key("ci95_misp_ki");
            w.value(cell.ci95MispKI);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }

    w.key("rows");
    w.beginArray();
    for (const auto &row : data.rows) {
        w.beginObject();
        w.key("label");
        w.value(row.label);
        if (row.storageBits != 0) {
            w.key("storage_bits");
            w.value(row.storageBits);
        }
        w.key("values");
        w.beginObject();
        for (size_t i = 0;
             i < row.columns.size() && i < row.values.size(); ++i) {
            w.key(row.columns[i]);
            w.value(row.values[i]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();

    if (!data.failures.empty()) {
        w.key("failures");
        w.beginArray();
        for (const auto &f : data.failures) {
            w.beginObject();
            w.key("row_label");
            w.value(f.rowLabel);
            w.key("bench");
            w.value(f.bench);
            w.key("attempts");
            w.value(uint64_t{f.attempts});
            w.key("error");
            w.value(f.error);
            if (!f.attemptNs.empty()) {
                w.key("attempt_ns");
                w.beginArray();
                for (const uint64_t ns : f.attemptNs)
                    w.value(ns);
                w.endArray();
            }
            w.endObject();
        }
        w.endArray();
    }

    if (data.metrics) {
        w.key("metrics");
        w.beginObject();
        writeRegistryMembers(w, *data.metrics);
        w.endObject();
    }

    // Constant all-zero block, pinned by perfbench/ref/*.json.
    w.key("timing");
    w.beginObject();
    for (const char *phase : {"lookup", "update", "history"}) {
        w.key(phase);
        w.beginObject();
        w.key("calls");
        w.value(uint64_t{0});
        w.key("ns");
        w.value(uint64_t{0});
        w.key("ns_per_call");
        w.value(0.0);
        w.endObject();
    }
    w.endObject();

    if (data.telemetry)
        writeTelemetryMember(w, *data.telemetry);

    w.endObject();
    out << '\n';
}

namespace
{

/** CSV field quoting: quote when the text contains , " or newline. */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
csvNumber(double v)
{
    if (!std::isfinite(v))
        return "--";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

} // namespace

void
writeBenchCsv(std::ostream &out, const BenchExport &data)
{
    out << "label,storage_bits";
    if (!data.rows.empty()) {
        for (const auto &col : data.rows.front().columns)
            out << ',' << csvField(col);
    }
    out << '\n';
    for (const auto &row : data.rows) {
        out << csvField(row.label) << ',' << row.storageBits;
        for (size_t i = 0;
             i < row.columns.size() && i < row.values.size(); ++i)
            out << ',' << csvNumber(row.values[i]);
        out << '\n';
    }
    if (!data.failures.empty()) {
        out << "\nfailures\nrow_label,bench,attempts,error\n";
        for (const auto &f : data.failures) {
            out << csvField(f.rowLabel) << ',' << csvField(f.bench)
                << ',' << f.attempts << ',' << csvField(f.error)
                << '\n';
        }
    }
}

} // namespace ev8
