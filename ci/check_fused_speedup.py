#!/usr/bin/env python3
"""CI guard: fused simulation must stay meaningfully faster than per-cell.

Times bench_fig6_history_length (the sweep the lane-fused kernel was
built for) in both execution modes -- EV8_FUSED_LANES=1 (one one-lane
stream walk per grid cell) and the default lane cap (one walk per fused
lane group) -- and fails
if the wall-clock speedup falls below the committed baseline minus its
tolerance. The fused mode also runs once with EV8_SIMD=0 (the scalar
steppers) for an informational vector-vs-scalar A/B, and every mode's
artifacts are byte-compared: per-cell vs fused vs scalar-stepped fused
must be identical (JSON telemetry masked), so the speedup is only
admissible when the SIMD dispatch cannot change a single output byte.

Methodology, tuned for noisy shared runners:

 * A throwaway warm-up run populates the persistent trace cache, so
   trace synthesis (identical in both modes) is not charged to
   whichever mode happens to run first.
 * Modes alternate 0,1,1,0,... and the minimum wall-clock per mode is
   compared: the fastest repetition is the one with the least
   interference, and alternation cancels slow drift.
 * Runs pass --no-timing, which is accepted and has no effect: the
   simulator's only timing is the per-walk telemetry spans.

--report writes a JSON summary carrying the raw samples, the active
SIMD backend and lane width (read from the artifact telemetry), and
the verdict; CI uploads it with the run artifacts. --compare-only
skips the timing floor but keeps the byte-compares -- the mode for the
scalar-forced (EV8_SIMD=scalar) job, whose emulated vector path trades
speed for portability by design.

The tolerance in the baseline file is deliberately wide (~30%): this
gate exists to catch a change that erases the fusion win entirely, not
to detect single-digit regressions on shared hardware.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_telemetry import mask_timing_dependent  # noqa: E402


def run_once(bench, branches, jobs, fused, workdir, tag, simd=None):
    """One timed bench run; returns (seconds, json_path, csv_path).

    fused "1" runs the default lane cap, "0" one lane per cell
    (EV8_FUSED_LANES=1). simd=None inherits the caller's EV8_SIMD (so a
    scalar-forced CI job applies to every run); a string forces that
    backend for this run.
    """
    json_path = os.path.join(workdir, f"{tag}.json")
    csv_path = os.path.join(workdir, f"{tag}.csv")
    env = dict(os.environ)
    env.pop("EV8_FUSED_LANES", None)
    if fused == "0":
        env["EV8_FUSED_LANES"] = "1"
    if simd is not None:
        env["EV8_SIMD"] = simd
    env["EV8_TRACE_CACHE_DIR"] = os.path.join(workdir, "trace_cache")
    cmd = [
        bench,
        f"--branches={branches}",
        f"--jobs={jobs}",
        "--no-timing",
        f"--json={json_path}",
        f"--csv={csv_path}",
    ]
    start = time.monotonic()
    subprocess.run(cmd, check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - start, json_path, csv_path


def artifact_simd(json_path):
    """The telemetry "simd" member of a produced artifact."""
    with open(json_path) as f:
        doc = json.load(f)
    return doc.get("telemetry", {}).get("simd",
                                        {"backend": "?", "lanes": 0})


def compare_artifacts(label_a, paths_a, label_b, paths_b):
    """Byte-compare two runs' (json, csv) pairs, telemetry masked."""
    for kind in (0, 1):
        a = open(paths_a[kind], "rb").read()
        b = open(paths_b[kind], "rb").read()
        if kind == 0:
            # The JSON telemetry block is wall-clock (and EV8_SIMD)
            # data; compare it masked (every other byte must match).
            a = mask_timing_dependent(a.decode()).encode()
            b = mask_timing_dependent(b.decode()).encode()
        if a != b:
            print(f"FAIL: {label_a} and {label_b} artifacts differ",
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to bench_fig6_history_length")
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON with expected_speedup and "
                             "tolerance")
    parser.add_argument("--report", default=None,
                        help="write a JSON measurement report here")
    parser.add_argument("--compare-only", action="store_true",
                        help="run the byte-compare gates but skip the "
                             "timing floor (scalar-forced CI job)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    branches = base["branches"]
    jobs = base["jobs"]
    repeats = base["repeats"]
    expected = base["expected_speedup"]
    tolerance = base["tolerance"]
    floor = expected * (1.0 - tolerance)

    report = {
        "benchmark": base.get("benchmark", os.path.basename(args.bench)),
        "branches": branches,
        "jobs": jobs,
        "repeats": repeats,
        "expected_speedup": expected,
        "tolerance": tolerance,
        "floor": floor,
        "compare_only": args.compare_only,
    }

    def finish(code):
        report["passed"] = code == 0
        if args.report:
            with open(args.report, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"report written to {args.report}")
        return code

    with tempfile.TemporaryDirectory(prefix="fused_speedup_") as workdir:
        # Warm the trace cache so synthesis cost lands on no mode.
        run_once(args.bench, branches, jobs, "1", workdir, "warmup")

        times = {"0": [], "1": []}
        artifacts = {}
        # Alternate 0,1,1,0,... so slow machine drift cancels.
        order = []
        for r in range(repeats):
            order += ["0", "1"] if r % 2 == 0 else ["1", "0"]
        for i, mode in enumerate(order):
            secs, json_path, csv_path = run_once(
                args.bench, branches, jobs, mode, workdir,
                f"run{i}_fused{mode}")
            times[mode].append(secs)
            artifacts[mode] = (json_path, csv_path)
            label = "one lane per cell" if mode == "0" else "fused"
            print(f"run {i}: {label}  {secs:.3f}s")

        # One fused run on the scalar steppers: the dispatch-invariance
        # gate (byte-identical artifacts) plus the vector-vs-scalar A/B.
        simd0_secs, simd0_json, simd0_csv = run_once(
            args.bench, branches, jobs, "1", workdir, "fused_simd0",
            simd="0")
        print(f"A/B: fused EV8_SIMD=0  {simd0_secs:.3f}s")

        report["simd"] = artifact_simd(artifacts["1"][0])
        report["percell_s"] = times["0"]
        report["fused_s"] = times["1"]
        report["fused_simd0_s"] = [simd0_secs]
        print(f"active SIMD backend: {report['simd']['backend']} "
              f"(x{report['simd']['lanes']} lanes)")

        if not compare_artifacts("per-cell", artifacts["0"],
                                 "fused", artifacts["1"]):
            return finish(1)
        if not compare_artifacts("fused", artifacts["1"],
                                 "fused(EV8_SIMD=0)",
                                 (simd0_json, simd0_csv)):
            return finish(1)

        percell = min(times["0"])
        fused = min(times["1"])
        speedup = percell / fused
        report["percell_min_s"] = percell
        report["fused_min_s"] = fused
        report["speedup"] = speedup
        report["simd_speedup"] = simd0_secs / fused
        print(f"per-cell min {percell:.3f}s  fused min {fused:.3f}s  "
              f"speedup {speedup:.3f}x  (floor {floor:.3f}x, baseline "
              f"{expected}x - {tolerance:.0%})")
        print(f"vector-vs-scalar A/B: fused(EV8_SIMD=0) {simd0_secs:.3f}s"
              f" / fused {fused:.3f}s = {report['simd_speedup']:.3f}x "
              f"(informational)")
        if args.compare_only:
            print("compare-only: artifacts identical, timing floor "
                  "skipped")
            return finish(0)
        if speedup < floor:
            print(f"FAIL: fused speedup {speedup:.3f}x below floor "
                  f"{floor:.3f}x", file=sys.stderr)
            return finish(1)
        print("fused speedup OK")
        return finish(0)


if __name__ == "__main__":
    sys.exit(main())
