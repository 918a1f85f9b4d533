#!/usr/bin/env python3
"""CI guard: the block streams of a sampled figure run must stay small.

A phase-sampled run holds every suite benchmark's BlockStream for its
whole life, so the streams set the peak resident memory of the run.
This guard runs bench_fig5_schemes cold (no on-disk trace cache, so the
process synthesizes every stream itself) at the baseline's branch
budget, with the CI sampling knobs of sampling_accuracy_baseline.json,
and fails when the artifact's telemetry.peak_rss_bytes exceeds the
committed ceiling (the measured peak times the baseline's margin).

    python3 ci/check_stream_footprint.py \\
        --bench ./build/bench/bench_fig5_schemes \\
        --baseline ci/stream_footprint_baseline.json

--report writes a JSON summary with the measured peak and the verdict.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to bench_fig5_schemes")
    parser.add_argument("--baseline", required=True,
                        help="baseline JSON with the budget and ceiling")
    parser.add_argument("--report", default=None,
                        help="write a JSON measurement report here")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    knobs_path = os.path.join(os.path.dirname(args.baseline),
                              base["sample_knobs"])
    with open(knobs_path) as f:
        sample = json.load(f)["sample"]
    ceiling = base["ceiling_peak_rss_bytes"]

    # Cold: no disk cache, and no EV8_* knob from the caller's shell
    # may move the code path.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EV8_")}
    env["EV8_SAMPLE_WINDOW"] = str(sample["window"])
    env["EV8_SAMPLE_WARMUP"] = str(sample["warmup"])
    env["EV8_SAMPLE_SEED"] = str(sample["seed"])
    with tempfile.TemporaryDirectory(prefix="stream_footprint_") as work:
        json_path = os.path.join(work, "fig5.json")
        subprocess.run([args.bench, f"--branches={base['branches']}",
                        f"--jobs={base['jobs']}", "--no-timing", "--quiet",
                        "--sample-mode=phase",
                        f"--sample-budget={sample['budget']}",
                        f"--json={json_path}"],
                       check=True, env=env, stdout=subprocess.DEVNULL)
        with open(json_path) as f:
            peak = json.load(f)["telemetry"]["peak_rss_bytes"]

    passed = 0 < peak <= ceiling
    print(f"peak RSS {peak / 2**20:.1f} MiB at {base['branches']} "
          f"branches/bench (ceiling {ceiling / 2**20:.1f} MiB = measured "
          f"{base['measured_peak_rss_bytes'] / 2**20:.1f} MiB x "
          f"{base['margin']})")
    if args.report:
        with open(args.report, "w") as f:
            json.dump({"benchmark": os.path.basename(args.bench),
                       "branches": base["branches"], "jobs": base["jobs"],
                       "sample": sample, "peak_rss_bytes": peak,
                       "ceiling_peak_rss_bytes": ceiling,
                       "passed": passed}, f, indent=1, sort_keys=True)
            f.write("\n")
    if not passed:
        print(f"FAIL: peak RSS {peak} B outside (0, {ceiling}] B",
              file=sys.stderr)
        return 1
    print("stream footprint OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
