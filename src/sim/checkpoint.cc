#include "sim/checkpoint.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/json.hh"
#include "obs/trace_span.hh"
#include "sim/fault_injection.hh"

namespace ev8
{

namespace
{

constexpr const char *kSchema = "ev8-checkpoint-v1";

/**
 * Exact-round-trip scalar encodings: u64 as decimal strings (JSON
 * numbers lose precision past 2^53), doubles as the 16-hex-digit bit
 * pattern of their IEEE-754 representation.
 */
std::string
u64s(uint64_t v)
{
    return std::to_string(v);
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
f64s(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return hex16(bits);
}

uint64_t
parseU64(const JsonValue &v, int base = 10)
{
    if (!v.isString() || v.text.empty())
        throw std::runtime_error("expected a string-encoded integer");
    char *end = nullptr;
    const unsigned long long parsed =
        std::strtoull(v.text.c_str(), &end, base);
    if (end != v.text.c_str() + v.text.size())
        throw std::runtime_error("malformed integer '" + v.text + "'");
    return parsed;
}

double
parseF64(const JsonValue &v)
{
    uint64_t bits = parseU64(v, 16);
    double out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
}

void
writeU64Array(JsonWriter &w, const std::vector<uint64_t> &values)
{
    w.beginArray();
    for (uint64_t v : values)
        w.value(u64s(v));
    w.endArray();
}

} // namespace

std::string
encodeCellRecord(size_t cell, const BenchResult &result,
                 const MetricRegistry &metrics,
                 const std::vector<MispredictEvent> &events)
{
    std::ostringstream line;
    JsonWriter w(line);
    w.beginObject();
    w.key("cell");
    w.value(u64s(cell));
    w.key("bench");
    w.value(result.bench);

    const SimResult &sim = result.sim;
    w.key("sim");
    w.beginObject();
    w.key("lookups");
    w.value(u64s(sim.stats.lookups()));
    w.key("mispredictions");
    w.value(u64s(sim.stats.mispredictions()));
    w.key("instructions");
    w.value(u64s(sim.stats.instructions()));
    w.key("fetch_blocks");
    w.value(u64s(sim.fetchBlocks));
    w.key("lghist_bits");
    w.value(u64s(sim.lghistBits));
    w.key("cond_branches");
    w.value(u64s(sim.condBranches));
    w.key("bpb");
    writeU64Array(w, {sim.branchesPerBlock.begin(),
                      sim.branchesPerBlock.end()});
    // Always zero, pinned by perfbench/ref/served-cells.sha256.
    w.key("timing");
    writeU64Array(w, std::vector<uint64_t>(6, 0));
    // Written only for sampled cells so exact-mode journal bytes are
    // untouched by the sampling layer.
    if (sim.sampled.active) {
        w.key("sampled");
        writeU64Array(w, {uint64_t{sim.sampled.phases},
                          sim.sampled.windowsTotal,
                          sim.sampled.windowsSimulated,
                          sim.sampled.branchesSimulated,
                          sim.sampled.warmupBranches});
        w.key("sampled_ci95");
        w.value(f64s(sim.sampled.ci95MispKI));
    }
    w.endObject();

    const auto entries = metrics.entries();
    w.key("counters");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Counter)
            continue;
        w.key(*e.name);
        w.value(u64s(e.counter->value()));
    }
    w.endObject();
    w.key("gauges");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Gauge)
            continue;
        w.key(*e.name);
        w.value(f64s(e.gauge->value()));
    }
    w.endObject();
    w.key("histograms");
    w.beginObject();
    for (const auto &e : entries) {
        if (e.kind != MetricKind::Histogram)
            continue;
        w.key(*e.name);
        w.beginObject();
        w.key("bounds");
        w.beginArray();
        for (double b : e.histogram->bounds())
            w.value(f64s(b));
        w.endArray();
        w.key("counts");
        writeU64Array(w, e.histogram->bucketCounts());
        w.key("count");
        w.value(u64s(e.histogram->count()));
        w.key("sum");
        w.value(f64s(e.histogram->sum()));
        w.endObject();
    }
    w.endObject();

    w.key("events");
    w.beginArray();
    for (const MispredictEvent &ev : events) {
        const unsigned flags = (ev.taken ? 1u : 0u)
            | (ev.predicted ? 2u : 0u) | (ev.votesValid ? 4u : 0u)
            | (ev.voteBim ? 8u : 0u) | (ev.voteG0 ? 16u : 0u)
            | (ev.voteG1 ? 32u : 0u) | (ev.voteMeta ? 64u : 0u)
            | (ev.voteMajority ? 128u : 0u);
        w.beginArray();
        w.value(u64s(ev.branchSeq));
        w.value(u64s(ev.pc));
        w.value(u64s(ev.blockAddr));
        w.value(u64s(ev.ghist));
        w.value(u64s(ev.indexHist));
        w.value(uint64_t{ev.bank});
        w.value(uint64_t{flags});
        w.endArray();
    }
    w.endArray();

    w.endObject();
    return line.str();
}

size_t
decodeCellRecord(const std::string &line, size_t cells, CellOutput &out)
{
    const JsonValue doc = parseJson(line);
    const size_t cell = parseU64(doc.at("cell"));
    if (cell >= cells)
        throw std::runtime_error("cell index out of range");

    out.result.bench = doc.at("bench").text;
    const JsonValue &sim = doc.at("sim");
    SimResult &r = out.result.sim;
    r.stats.tally(parseU64(sim.at("lookups")),
                  parseU64(sim.at("mispredictions")));
    r.stats.setInstructions(parseU64(sim.at("instructions")));
    r.fetchBlocks = parseU64(sim.at("fetch_blocks"));
    r.lghistBits = parseU64(sim.at("lghist_bits"));
    r.condBranches = parseU64(sim.at("cond_branches"));
    const JsonValue &bpb = sim.at("bpb");
    if (!bpb.isArray() || bpb.items.size() != r.branchesPerBlock.size())
        throw std::runtime_error("malformed bpb array");
    for (size_t i = 0; i < r.branchesPerBlock.size(); ++i)
        r.branchesPerBlock[i] = parseU64(bpb.items[i]);
    const JsonValue &timing = sim.at("timing");
    if (!timing.isArray() || timing.items.size() != 6)
        throw std::runtime_error("malformed timing array");
    if (const JsonValue *sampled = sim.find("sampled")) {
        if (!sampled->isArray() || sampled->items.size() != 5)
            throw std::runtime_error("malformed sampled array");
        r.sampled.active = true;
        r.sampled.phases =
            static_cast<uint32_t>(parseU64(sampled->items[0]));
        r.sampled.windowsTotal = parseU64(sampled->items[1]);
        r.sampled.windowsSimulated = parseU64(sampled->items[2]);
        r.sampled.branchesSimulated = parseU64(sampled->items[3]);
        r.sampled.warmupBranches = parseU64(sampled->items[4]);
        r.sampled.ci95MispKI = parseF64(sim.at("sampled_ci95"));
    }

    for (const auto &[name, v] : doc.at("counters").members)
        out.metrics.counter(name).inc(parseU64(v));
    for (const auto &[name, v] : doc.at("gauges").members)
        out.metrics.gauge(name).set(parseF64(v));
    for (const auto &[name, v] : doc.at("histograms").members) {
        std::vector<double> bounds;
        for (const JsonValue &b : v.at("bounds").items)
            bounds.push_back(parseF64(b));
        std::vector<uint64_t> counts;
        for (const JsonValue &c : v.at("counts").items)
            counts.push_back(parseU64(c));
        out.metrics.histogram(name, bounds)
            .injectState(counts, parseU64(v.at("count")),
                         parseF64(v.at("sum")));
    }

    const JsonValue &events = doc.at("events");
    if (!events.isArray())
        throw std::runtime_error("malformed events array");
    out.events.reserve(events.items.size());
    for (const JsonValue &e : events.items) {
        if (!e.isArray() || e.items.size() != 7)
            throw std::runtime_error("malformed event record");
        MispredictEvent ev;
        ev.branchSeq = parseU64(e.items[0]);
        ev.pc = parseU64(e.items[1]);
        ev.blockAddr = parseU64(e.items[2]);
        ev.ghist = parseU64(e.items[3]);
        ev.indexHist = parseU64(e.items[4]);
        ev.bank = static_cast<unsigned>(e.items[5].number);
        const unsigned flags = static_cast<unsigned>(e.items[6].number);
        ev.taken = flags & 1u;
        ev.predicted = flags & 2u;
        ev.votesValid = flags & 4u;
        ev.voteBim = flags & 8u;
        ev.voteG0 = flags & 16u;
        ev.voteG1 = flags & 32u;
        ev.voteMeta = flags & 64u;
        ev.voteMajority = flags & 128u;
        out.events.push_back(ev);
    }
    return cell;
}

std::string
GridCheckpoint::defaultDir()
{
    const char *env = std::getenv("EV8_CHECKPOINT_DIR");
    return env ? env : "";
}

GridCheckpoint::GridCheckpoint(std::string dir, uint64_t grid_hash,
                               size_t cells)
    : hash_(grid_hash), cells_(cells)
{
    if (!dir.empty()) {
        path_ = dir + "/grid-" + hex16(grid_hash) + "-v"
            + std::to_string(kFormatVersion) + ".ev8c";
    }
}

std::map<size_t, CellOutput>
GridCheckpoint::load()
{
    std::map<size_t, CellOutput> restored;
    if (!enabled())
        return restored;

    ScopedSpan span(SpanPhase::Checkpoint, "checkpoint:load");
    bool fresh = true;
    try {
        FaultInjector::global().maybeThrow(FaultPoint::CkptRead, path_);
        std::ifstream in(path_);
        if (in) {
            std::string line;
            bool have_header = false;
            if (std::getline(in, line)) {
                try {
                    const JsonValue header = parseJson(line);
                    have_header =
                        header.at("schema").text == kSchema
                        && header.at("format").text
                               == std::to_string(kFormatVersion)
                        && header.at("grid").text == hex16(hash_)
                        && parseU64(header.at("cells")) == cells_;
                } catch (...) {
                    have_header = false;
                }
            }
            if (have_header) {
                fresh = false;
                while (std::getline(in, line)) {
                    try {
                        CellOutput cell;
                        const size_t i =
                            decodeCellRecord(line, cells_, cell);
                        // First record wins; duplicates (a resumed run
                        // that re-ran a torn cell) are ignored.
                        restored.emplace(i, std::move(cell));
                    } catch (...) {
                        // Torn append or injected corruption: lose
                        // exactly this record, re-run that cell.
                    }
                }
            }
        }
    } catch (const std::exception &err) {
        // Unreadable journal: forget anything partially loaded and
        // start over -- a checkpoint problem must never fail the run.
        restored.clear();
        fresh = true;
        std::fprintf(stderr,
                     "ev8: checkpoint: cannot read '%s' (%s); starting "
                     "a fresh journal\n",
                     path_.c_str(), err.what());
    }

    std::lock_guard<std::mutex> lock(mutex_);
    try {
        namespace fs = std::filesystem;
        fs::create_directories(fs::path(path_).parent_path());
        out_.open(path_, fresh ? std::ios::trunc : std::ios::app);
        if (!out_)
            throw std::runtime_error("cannot open for append");
        if (fresh) {
            std::ostringstream header;
            JsonWriter w(header);
            w.beginObject();
            w.key("schema");
            w.value(kSchema);
            w.key("format");
            w.value(std::to_string(kFormatVersion));
            w.key("grid");
            w.value(hex16(hash_));
            w.key("cells");
            w.value(u64s(cells_));
            w.endObject();
            out_ << header.str() << '\n';
            out_.flush();
            if (!out_)
                throw std::runtime_error("cannot write header");
        }
        writable_ = true;
    } catch (const std::exception &err) {
        disableWrites(err.what());
    }
    span.arg("restored", static_cast<uint64_t>(restored.size()));
    return restored;
}

void
GridCheckpoint::disableWrites(const std::string &reason)
{
    writable_ = false;
    if (!warned_) {
        warned_ = true;
        std::fprintf(stderr,
                     "ev8: checkpoint: cannot journal to '%s' (%s); "
                     "continuing without checkpointing\n",
                     path_.c_str(), reason.c_str());
    }
}

void
GridCheckpoint::append(size_t cell, const BenchResult &result,
                       const MetricRegistry &metrics,
                       const std::vector<MispredictEvent> &events)
{
    if (!enabled())
        return;
    ScopedSpan span(SpanPhase::Checkpoint, "checkpoint:append");
    span.arg("cell", static_cast<uint64_t>(cell));
    const std::string line = encodeCellRecord(cell, result, metrics, events);

    std::lock_guard<std::mutex> lock(mutex_);
    if (!writable_)
        return;
    try {
        FaultInjector &faults = FaultInjector::global();
        faults.maybeThrow(FaultPoint::CkptWrite, path_);
        if (faults.fires(FaultPoint::CkptCorrupt, path_)) {
            // A torn append: half the record, as a crash mid-write
            // would leave. The loader must skip it.
            out_ << line.substr(0, line.size() / 2) << '\n';
        } else {
            out_ << line << '\n';
        }
        out_.flush();
        if (!out_)
            throw std::runtime_error("write failure");
    } catch (const std::exception &err) {
        disableWrites(err.what());
    }
}

} // namespace ev8
