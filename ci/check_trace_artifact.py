#!/usr/bin/env python3
"""CI gate: the --trace-out timeline is valid and complete.

Runs bench_fig6_history_length with --trace-out --progress --quiet at
--jobs=4 (the documented CI invocation) and validates:

 * the file is valid JSON in the Chrome trace_event "JSON Object
   Format": {"displayTimeUnit": ..., "traceEvents": [...]};
 * every event is either "M" metadata or an "X" complete event with
   numeric ts/dur and string cat/name, categories drawn from the span
   tracer's fixed phase names;
 * per-worker thread_name metadata exists for every tid that carries
   spans (the Perfetto timeline renders one labelled track per worker);
 * the number of "cell" spans matches the run's own telemetry
   (cell_duration_ms.count and pool.grid_cells) -- no span is lost or
   double-counted, regardless of the fused grouping in effect;
 * the JSON artifact of a traced --jobs=4 run still byte-matches an
   untraced --jobs=1 run once the telemetry/attempt_ns members are
   masked: tracing must not perturb the simulation.

Usage: check_trace_artifact.py --bench ./build/bench/bench_fig6_...
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_telemetry import mask_timing_dependent  # noqa: E402

PHASE_NAMES = {
    "grid.setup", "cell", "fused.walk", "fused.demote", "decode",
    "cache.load", "checkpoint", "merge", "serve.accept",
    "serve.session_run", "serve.snapshot",
}

ARGS = ["--branches=2000", "--sample=16", "--no-timing"]


def run(bench, workdir, tag, jobs, trace=False):
    json_path = os.path.join(workdir, f"{tag}.json")
    cmd = [bench, *ARGS, f"--jobs={jobs}", f"--json={json_path}"]
    if trace:
        cmd += [f"--trace-out={os.path.join(workdir, tag)}.trace.json",
                "--progress", "--quiet"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json_path


def check_trace(trace_path, telemetry):
    doc = json.load(open(trace_path))
    events = doc["traceEvents"]
    assert isinstance(events, list) and events, "no trace events"

    spans = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(spans) + len(meta) == len(events), \
        "unexpected event phase in timeline"

    for e in spans:
        assert isinstance(e["ts"], (int, float)), e
        assert isinstance(e["dur"], (int, float)) and e["dur"] >= 0, e
        assert isinstance(e["name"], str) and e["name"], e
        assert e["cat"] in PHASE_NAMES, f"unknown category: {e}"

    named_tids = {e["tid"] for e in meta
                  if e.get("name") == "thread_name"}
    span_tids = {e["tid"] for e in spans}
    assert span_tids <= named_tids, \
        f"spans on unnamed threads: {sorted(span_tids - named_tids)}"
    workers = sum(e["args"]["name"].startswith("worker-") for e in meta
                  if e.get("name") == "thread_name")
    assert workers >= 1, "no named worker tracks"

    cells = [e for e in spans if e["cat"] == "cell"]
    for e in cells:
        args = e.get("args", {})
        assert "bench" in args and "config" in args, e
        assert "lanes" in args and "attempt" in args, e

    grid_cells = telemetry["pool"]["grid_cells"]
    hist_count = telemetry["cell_duration_ms"]["count"]
    assert grid_cells > 0, telemetry["pool"]
    # A clean run: one cell span and one histogram observation per grid
    # cell, in every fused/per-cell mix the run chose.
    assert len(cells) == grid_cells == hist_count, \
        (len(cells), grid_cells, hist_count)

    return len(spans), len(cells), workers


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to bench_fig6_history_length")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="ev8_trace_gate_") as work:
        traced = run(args.bench, work, "traced_j4", jobs=4, trace=True)
        ref = run(args.bench, work, "ref_j1", jobs=1)

        doc = json.load(open(traced))
        telemetry = doc["telemetry"]
        for key in ("wall_ns", "cpu_user_ns", "peak_rss_bytes",
                    "phases", "cell_duration_ms", "pool"):
            assert key in telemetry, f"telemetry missing {key}"
        assert telemetry["wall_ns"] > 0
        assert telemetry["pool"]["workers"] == 4

        spans, cells, workers = check_trace(
            os.path.join(work, "traced_j4.trace.json"), telemetry)

        masked_traced = mask_timing_dependent(open(traced).read())
        masked_ref = mask_timing_dependent(open(ref).read())
        if masked_traced != masked_ref:
            print("FAIL: tracing perturbed the masked JSON artifact",
                  file=sys.stderr)
            return 1

        print(f"trace artifact OK: {spans} spans ({cells} cell spans "
              f"over {telemetry['pool']['grid_cells']} grid cells, "
              f"{workers} worker tracks), masked artifact identical "
              "to untraced --jobs=1 run")
        return 0


if __name__ == "__main__":
    sys.exit(main())
