/**
 * @file
 * Tests for the span tracer and its Chrome trace_event serialization:
 * concurrent recording from many threads must serialize to valid JSON
 * with every span intact; an injected cell fault must not leave a
 * dangling (unclosed) span in the timeline; and the disabled path must
 * not allocate -- the tracer's "near-zero cost when off" contract.
 *
 * The counting operator new/delete replacement at the bottom of this
 * file is binary-global (as any ::operator new replacement is); it
 * forwards to malloc/free and only adds one relaxed atomic increment.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hh"
#include "obs/trace_span.hh"
#include "obs/trace_writer.hh"
#include "predictors/factory.hh"
#include "sim/suite_runner.hh"

#include "scoped_env.hh"

/** Allocation counter backing the disabled-path test (see file end). */
static std::atomic<uint64_t> g_allocCount{0};

namespace ev8
{
namespace
{

constexpr uint64_t kTinyScale = 3000;

/** Leaves the process-global tracer disabled and empty on exit. */
class TracerGuard
{
  public:
    TracerGuard()
    {
        SpanTracer::global().disable();
        SpanTracer::global().clear();
    }

    ~TracerGuard()
    {
        SpanTracer::global().disable();
        SpanTracer::global().clear();
    }
};

TEST(TraceSpan, ConcurrentSpansSerializeToValidChromeTrace)
{
    TracerGuard guard;
    SpanTracer &tracer = SpanTracer::global();
    tracer.enable();

    // More spans per thread than one chunk holds, to cross the chunk
    // growth path, from enough threads to exercise registration races.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kSpansPerThread = 300;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &tracer] {
            tracer.setThreadName("span-test-" + std::to_string(t));
            for (unsigned i = 0; i < kSpansPerThread; ++i) {
                ScopedSpan span(SpanPhase::Cell);
                std::string name = "t";
                name += std::to_string(t);
                name += ":";
                name += std::to_string(i);
                span.rename(name);
                span.arg("i", uint64_t{i});
                span.arg("who", "worker \"quoted\\path\"");
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    tracer.disable();

    ASSERT_EQ(tracer.collect().size(),
              size_t{kThreads} * kSpansPerThread);

    std::ostringstream out;
    writeChromeTrace(out, tracer, "ev8-test");
    const JsonValue doc = parseJson(out.str());
    EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");

    const JsonValue &events = doc.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    size_t complete = 0, metadata = 0, named_threads = 0;
    for (const JsonValue &event : events.items) {
        const std::string &ph = event.at("ph").text;
        ASSERT_TRUE(ph == "X" || ph == "M") << ph;
        EXPECT_TRUE(event.at("pid").isNumber());
        EXPECT_TRUE(event.at("tid").isNumber());
        if (ph == "M") {
            ++metadata;
            named_threads +=
                event.at("name").text == "thread_name"
                && event.at("args").at("name").text.rfind("span-test-",
                                                          0)
                       == 0;
            continue;
        }
        ++complete;
        EXPECT_TRUE(event.at("ts").isNumber());
        EXPECT_TRUE(event.at("dur").isNumber());
        EXPECT_GE(event.at("dur").number, 0.0);
        EXPECT_EQ(event.at("cat").text, "cell");
        EXPECT_FALSE(event.at("name").text.empty());
        const JsonValue &args = event.at("args");
        EXPECT_TRUE(args.at("i").isNumber());
        EXPECT_EQ(args.at("who").text, "worker \"quoted\\path\"");
    }
    EXPECT_EQ(complete, size_t{kThreads} * kSpansPerThread);
    // process_name plus one thread_name per registered thread.
    EXPECT_EQ(metadata, 1 + tracer.threads().size());
    EXPECT_EQ(named_threads, size_t{kThreads});

    // The coarse phase totals saw every span too.
    const auto totals = tracer.phaseTotals();
    EXPECT_EQ(totals[static_cast<size_t>(SpanPhase::Cell)].count,
              uint64_t{kThreads} * kSpansPerThread);
}

/**
 * An injected permanent cell fault (the EV8_FAULT_SPEC job point) must
 * not leave a dangling span: every attempt -- including the throwing
 * ones -- closes its "cell" span on unwind, so the timeline stays
 * balanced and accounts for exactly one span per attempt per lane.
 */
TEST(TraceSpan, InjectedCellFaultLeavesNoDanglingSpans)
{
    TracerGuard guard;
    ScopedEnv fault("EV8_FAULT_SPEC", "job/gcc+*");
    ScopedEnv retry("EV8_RETRY_BASE_MS", "0");
    SpanTracer &tracer = SpanTracer::global();
    tracer.enable();

    SuiteRunner runner(kTinyScale, 2);
    std::vector<GridRow> rows;
    GridRow row;
    row.factory = [] { return makePredictor("gshare:10:8"); };
    row.config = SimConfig::ghist();
    row.label = "traced";
    rows.push_back(std::move(row));
    const GridOutcome outcome = runner.runGrid(rows);
    tracer.disable();

    ASSERT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 1u);
    const size_t cells = outcome.results[0].size();
    uint64_t failed_attempts = 0;
    for (const CellFailure &failure : outcome.failures) {
        EXPECT_EQ(failure.bench, "gcc");
        EXPECT_EQ(failure.attemptNs.size(), failure.attempts);
        failed_attempts += failure.attempts;
    }
    ASSERT_EQ(outcome.failures.size(), 1u);

    // One span per successful lane + one per failed attempt; a span
    // that dangled (never closed) would break this exact accounting.
    const uint64_t expected_cell_spans =
        (cells - outcome.failures.size()) + failed_attempts;
    uint64_t cell_spans = 0, failed_spans = 0;
    for (const SpanEvent &event : tracer.collect()) {
        if (event.phase != SpanPhase::Cell)
            continue;
        ++cell_spans;
        failed_spans +=
            event.args.find("\"failed\":true") != std::string::npos;
    }
    EXPECT_EQ(cell_spans, expected_cell_spans);
    EXPECT_EQ(failed_spans, failed_attempts);

    // And the timeline they serialize into is still valid JSON.
    std::ostringstream out;
    writeChromeTrace(out, tracer);
    const JsonValue doc = parseJson(out.str());
    EXPECT_TRUE(doc.at("traceEvents").isArray());
}

/**
 * The --trace-out=off contract: a disabled ScopedSpan (including its
 * rename/arg refinements, when the labels fit in SSO strings) touches
 * the heap zero times.
 */
TEST(TraceSpan, DisabledSpansDoNotAllocate)
{
    TracerGuard guard;
    ASSERT_FALSE(SpanTracer::global().enabled());

    const uint64_t before = g_allocCount.load();
    for (unsigned i = 0; i < 1000; ++i) {
        ScopedSpan span(SpanPhase::Cell);
        span.rename("short-label");
        span.arg("i", uint64_t{i});
        span.arg("k", std::string("v"));
    }
    const uint64_t after = g_allocCount.load();
    EXPECT_EQ(after - before, 0u);

    // The coarse totals still accumulated (telemetry stays available
    // without a timeline), and nothing was buffered.
    const auto totals = SpanTracer::global().phaseTotals();
    EXPECT_GE(totals[static_cast<size_t>(SpanPhase::Cell)].count,
              1000u);
    EXPECT_TRUE(SpanTracer::global().collect().empty());
}

} // namespace
} // namespace ev8

// Counting replacements for the global allocation functions. Replacing
// ::operator new/delete is binary-wide; these forward to malloc/free so
// every other test behaves identically, just counted.
void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): left to the runtime, they would allocate with its allocator
// and be freed by the delete below, an alloc-dealloc mismatch.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}
