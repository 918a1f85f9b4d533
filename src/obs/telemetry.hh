/**
 * @file
 * Run-summary telemetry for the ev8-bench-v1 JSON artifact: resource
 * usage (CPU time, peak RSS), coarse per-phase wall times off the span
 * tracer, the per-cell duration histogram, trace-cache hit ratios and
 * thread-pool utilization. The block is additive to the schema and its
 * values are timing-dependent by design -- determinism gates compare
 * artifacts with the telemetry member masked, while its *schema*
 * (member names and shapes) is CI-validated.
 */

#ifndef EV8_OBS_TELEMETRY_HH
#define EV8_OBS_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ev8
{

/** Process resource usage snapshot. */
struct ResourceSample
{
    uint64_t cpuUserNs = 0;
    uint64_t cpuSysNs = 0;
    uint64_t peakRssBytes = 0;
};

/**
 * CPU time via getrusage(RUSAGE_SELF); peak RSS from /proc/self/status
 * VmHWM, falling back to ru_maxrss where procfs is unavailable.
 */
ResourceSample sampleResourceUsage();

/** One span phase's always-on coarse totals, by stable name. */
struct TelemetryPhase
{
    std::string name; //!< spanPhaseName(): "cell", "decode", ...
    uint64_t count = 0;
    uint64_t wallNs = 0;
};

/** Everything the "telemetry" JSON member serializes. */
struct TelemetryExport
{
    uint64_t wallNs = 0; //!< whole-process wall time (harness lifetime)
    uint64_t cpuUserNs = 0;
    uint64_t cpuSysNs = 0;
    uint64_t peakRssBytes = 0;

    std::vector<TelemetryPhase> phases; //!< every SpanPhase, in order

    /** Per-cell duration histogram (ms), engine-owned obs::Histogram. */
    std::vector<double> cellBoundsMs;
    std::vector<uint64_t> cellBucketCounts; //!< bounds + overflow
    uint64_t cellCount = 0;
    double cellSumMs = 0.0;

    /** Trace-cache effectiveness (stream layer ratio is the headline). */
    uint64_t traceRequests = 0;
    uint64_t tracesGenerated = 0;
    uint64_t streamRequests = 0;
    uint64_t streamDiskHits = 0;
    uint64_t streamsDecoded = 0;
    double streamHitRatio = 0.0; //!< streamDiskHits / streamRequests

    /** Pool utilization: busy / (workers x grid wall). */
    uint64_t poolWorkers = 0;
    uint64_t poolGridCells = 0;
    uint64_t poolBusyNs = 0;
    uint64_t poolWallNs = 0;
    double poolUtilization = 0.0;

    /**
     * Active fused-stepper SIMD backend ("off" / "scalar" / "avx2",
     * simd::backendName) and the lanes one vector op covers. Not
     * timing-dependent, but EV8_SIMD-dependent -- it lives in the
     * masked telemetry block so A/B runs stay byte-comparable.
     */
    std::string simdBackend;
    unsigned simdLanes = 0;
};

} // namespace ev8

#endif // EV8_OBS_TELEMETRY_HH
