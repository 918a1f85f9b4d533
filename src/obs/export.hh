/**
 * @file
 * Machine-readable artifact export for the bench harness: every
 * table/figure reproduction can land as a JSON document (results +
 * metric registry + telemetry) and/or a CSV of its result rows, so the
 * BENCH_* trajectory, CI and regression tooling can consume what the
 * human-facing text tables show.
 *
 * JSON schema ("ev8-bench-v1"):
 *
 *     {
 *       "schema": "ev8-bench-v1",
 *       "experiment": {"id": "Fig. 5", "title": "..."},
 *       "workload": {"branches_per_benchmark": N,
 *                    "benchmarks": ["compress", ...]},
 *       "sampling": {"mode": "phase", "budget": N,
 *                    "window_branches": N, "warmup_branches": N,
 *                    "seed": N, "max_phases": N,
 *                    "cells": [{"row_label": "...", "bench": "...",
 *                        "phases": N, "windows_total": N,
 *                        "windows_simulated": N,
 *                        "branches_simulated": N,
 *                        "ci95_misp_ki": x}]},
 *       "rows": [{"label": "...", "storage_bits": N,
 *                 "values": {"compress": x, ..., "amean": x}}],
 *       "failures": [{"row_label": "...", "bench": "...",
 *                     "attempts": N, "error": "...",
 *                     "attempt_ns": [N, ...]}],
 *       "metrics": {"counters": {name: N, ...},
 *                   "gauges": {name: x, ...},
 *                   "histograms": {name: {"count": N, "sum": x,
 *                       "buckets": [{"le": b, "count": N}, ...]}}},
 *       "timing": {"lookup":  {"calls": 0, "ns": 0, "ns_per_call": 0},
 *                  "update":  {...}, "history": {...}},  (always zero)
 *       "telemetry": {"wall_ns": N, "cpu_user_ns": N, "cpu_sys_ns": N,
 *                     "peak_rss_bytes": N,
 *                     "phases": {"cell": {"count": N, "wall_ns": N},
 *                                ... one member per span phase ...},
 *                     "cell_duration_ms": {"count": N, "sum": x,
 *                         "buckets": [{"le": b, "count": N}, ...]},
 *                     "trace_cache": {"trace_requests": N,
 *                         "traces_generated": N, "stream_requests": N,
 *                         "stream_disk_hits": N, "streams_decoded": N,
 *                         "stream_hit_ratio": x},
 *                     "pool": {"workers": N, "grid_cells": N,
 *                              "busy_ns": N, "wall_ns": N,
 *                              "utilization": x}}
 *     }
 *
 * Non-finite values serialize as JSON null ("--" in the CSV).
 *
 * The "failures" member is present only when cells failed: a complete
 * run's artifact is byte-identical to what it was before failure
 * reporting existed, and a degraded run's artifact names exactly which
 * (row, benchmark) cells are missing and why. The CSV gains a second
 * "failures" block (blank-line separated) under the same condition.
 */

#ifndef EV8_OBS_EXPORT_HH
#define EV8_OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/telemetry.hh"

namespace ev8
{

/** One exported result row: a labelled configuration's named values. */
struct BenchRowExport
{
    std::string label;
    uint64_t storageBits = 0; //!< 0 = not applicable
    std::vector<std::string> columns;
    std::vector<double> values; //!< parallel to columns
};

/**
 * One grid cell that failed permanently (obs-layer mirror of the sim
 * layer's CellFailure, so exporters stay below the simulator).
 */
struct BenchFailureExport
{
    std::string rowLabel;
    std::string bench;
    unsigned attempts = 0;
    std::string error;

    /**
     * Wall time of each attempt, in submission order -- the JSON
     * failures entries gain an "attempt_ns" array so the artifact shows
     * time lost to retries, not just counts. Timing-dependent: masked
     * (like the telemetry block) in byte-identity comparisons. The CSV
     * failures block is unchanged.
     */
    std::vector<uint64_t> attemptNs;
};

/** One cell's sampled-run summary, in deterministic grid order. */
struct SamplingCellExport
{
    std::string rowLabel;
    std::string bench;
    uint64_t phases = 0;
    uint64_t windowsTotal = 0;
    uint64_t windowsSimulated = 0;
    uint64_t branchesSimulated = 0;
    double ci95MispKI = 0.0;
};

/**
 * The artifact's "sampling" block: the stratified-sampling knobs plus
 * each cell's coverage and confidence interval. Present only when
 * sampling is active, so exact-mode artifact bytes are untouched by
 * the sampling layer. Every member is a deterministic function of the
 * (trace, spec) inputs -- byte-identical across --jobs -- but the
 * block is still masked in exact-vs-sampled byte-compare gates, like
 * the telemetry block, because it only exists on one side.
 */
struct SamplingExport
{
    bool active = false;
    std::string mode;             //!< "phase"
    uint64_t budget = 0;          //!< suite-relative measured branches
    uint64_t windowBranches = 0;
    uint64_t warmupBranches = 0;
    uint64_t seed = 0;
    uint64_t maxPhases = 0;
    std::vector<SamplingCellExport> cells;
};

/** Everything one bench binary exports. */
struct BenchExport
{
    std::string experimentId;
    std::string title;
    uint64_t branchesPerBenchmark = 0;
    std::vector<std::string> benchmarks;
    std::vector<BenchRowExport> rows;
    std::vector<BenchFailureExport> failures; //!< empty on a clean run
    SamplingExport sampling; //!< written only when sampling.active
    const MetricRegistry *metrics = nullptr;  //!< optional

    /**
     * Optional run telemetry (resource usage, phase times, pool
     * utilization). The bench harness always attaches it, so presence
     * is deterministic per artifact even though the values are not.
     */
    const TelemetryExport *telemetry = nullptr;
};

/** Writes the full JSON artifact described above. */
void writeBenchJson(std::ostream &out, const BenchExport &data);

/**
 * Writes the result rows as CSV: a header of
 * "label,storage_bits,<columns...>" (columns from the first row) and
 * one line per row. Non-finite values print as "--".
 */
void writeBenchCsv(std::ostream &out, const BenchExport &data);

/** Writes just the registry as a JSON object (the "metrics" member). */
void writeRegistryJson(std::ostream &out, const MetricRegistry &registry);

} // namespace ev8

#endif // EV8_OBS_EXPORT_HH
