#!/usr/bin/env python3
"""CI guard: phase-aware sampling must stay fast *and* accurate.

Drives bench_fig6_history_length (the sweep the sampling layer was
built for) through three gates against a committed baseline:

 1. Accuracy -- at the reference scale (1M branches, where an exact
    run is still cheap) an exact run and a sampled run with the
    baseline's knobs are compared cell by cell over every misp/KI
    column, and the maximum absolute error must stay under the
    committed bound.  The bound in the baseline (0.15 misp/KI) is
    ~1% of the fig6 misp/KI scale and carries ~70% margin over the
    measured error of the committed knob set.
 2. Determinism -- the same sampled configuration is run with
    --jobs=1 and --jobs=4 and the artifacts are byte-compared
    (telemetry and attempt_ns masked; the "sampling" block is NOT
    masked, so the extrapolated estimates and CIs themselves must be
    byte-identical across worker counts).
 3. Speedup -- at the paper scale (16M branches) one exact run is
    timed against min-of-N sampled runs; the wall-clock speedup must
    clear both the ISSUE floor (5x) and the committed baseline minus
    its tolerance.

Methodology notes, tuned for noisy shared runners:

 * A throwaway sampled warm-up run populates the persistent trace
   cache (streams and phase-map sidecars), so synthesis and phase
   classification are not charged to whichever mode runs first.
 * The exact 16M run is long enough (minutes) that scheduler noise
   averages out; the short sampled runs take the min of `repeats`.
 * Runs pass --no-timing, which is accepted and has no effect (see
   the fused gate).

--report writes a JSON summary carrying the raw samples, the
per-column worst error, and the verdict; CI uploads it with the run
artifacts.  --compare-only keeps the accuracy and determinism gates
but skips the 16M timing floor (quick local runs, the EV8_SIMD=0 CI
job).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from strip_telemetry import mask_member  # noqa: E402


def mask_wallclock(text):
    """Mask telemetry/attempt_ns but keep the "sampling" block live:
    unlike exact-vs-sampled compares, the jobs-determinism gate wants
    the sampled estimates themselves byte-compared."""
    text = mask_member(text, "telemetry", "{", "}")
    text = mask_member(text, "attempt_ns", "[", "]")
    return text


def run_once(bench, branches, jobs, workdir, tag, sample=None):
    """One timed bench run; returns (seconds, json_path, csv_path).

    sample=None runs exact mode; a dict with window/warmup/seed/budget
    runs phase-sampled mode with those knobs.
    """
    json_path = os.path.join(workdir, f"{tag}.json")
    csv_path = os.path.join(workdir, f"{tag}.csv")
    env = dict(os.environ)
    env["EV8_TRACE_CACHE_DIR"] = os.path.join(workdir, "trace_cache")
    cmd = [
        bench,
        f"--branches={branches}",
        f"--jobs={jobs}",
        "--no-timing",
        f"--json={json_path}",
        f"--csv={csv_path}",
    ]
    if sample is not None:
        env["EV8_SAMPLE_WINDOW"] = str(sample["window"])
        env["EV8_SAMPLE_WARMUP"] = str(sample["warmup"])
        env["EV8_SAMPLE_SEED"] = str(sample["seed"])
        cmd += ["--sample-mode=phase",
                f"--sample-budget={sample['budget']}"]
    start = time.monotonic()
    subprocess.run(cmd, check=True, env=env,
                   stdout=subprocess.DEVNULL)
    return time.monotonic() - start, json_path, csv_path


def max_mispki_error(exact_json, sampled_json):
    """Worst |sampled - exact| over every row value whose column key
    mentions misp/KI; returns (error, "row/column" tag)."""
    with open(exact_json) as f:
        exact = json.load(f)
    with open(sampled_json) as f:
        sampled = json.load(f)
    worst, tag = 0.0, "none"
    for row_e, row_s in zip(exact["rows"], sampled["rows"]):
        for key, val_e in row_e["values"].items():
            if "mispki" not in key:
                continue
            err = abs(val_e - row_s["values"][key])
            if err > worst:
                worst, tag = err, f"{row_e['label']}/{key}"
    return worst, tag


def compare_artifacts(label_a, paths_a, label_b, paths_b):
    """Byte-compare two sampled runs' (json, csv) pairs; only the
    wall-clock members are masked -- sampling estimates included."""
    for kind in (0, 1):
        a = open(paths_a[kind], "rb").read()
        b = open(paths_b[kind], "rb").read()
        if kind == 0:
            a = mask_wallclock(a.decode()).encode()
            b = mask_wallclock(b.decode()).encode()
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
                        help="baseline JSON with the sampling knobs, "
                             "accuracy bound and speedup floor")
    parser.add_argument("--report", default=None,
                        help="write a JSON measurement report here")
    parser.add_argument("--compare-only", action="store_true",
                        help="run the accuracy and determinism gates "
                             "but skip the 16M timing floor")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    jobs = base["jobs"]
    sample = base["sample"]
    acc = base["accuracy"]
    spd = base["speedup"]
    floor = max(spd["min_speedup"],
                spd["expected_speedup"] * (1.0 - spd["tolerance"]))

    report = {
        "benchmark": base.get("benchmark", os.path.basename(args.bench)),
        "jobs": jobs,
        "sample": sample,
        "accuracy_branches": acc["branches"],
        "max_abs_error_bound": acc["max_abs_error"],
        "speedup_branches": spd["branches"],
        "expected_speedup": spd["expected_speedup"],
        "tolerance": spd["tolerance"],
        "min_speedup": spd["min_speedup"],
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

    with tempfile.TemporaryDirectory(prefix="sampling_acc_") as workdir:
        # Warm the trace cache (streams + phase sidecars) so synthesis
        # and classification cost lands on no measured run.
        run_once(args.bench, acc["branches"], jobs, workdir, "warmup",
                 sample=sample)

        # Gate 1: accuracy at the reference scale.
        exact_s, exact_json, _ = run_once(
            args.bench, acc["branches"], jobs, workdir, "acc_exact")
        samp_s, samp_json, samp_csv = run_once(
            args.bench, acc["branches"], jobs, workdir, "acc_sampled",
            sample=sample)
        err, err_tag = max_mispki_error(exact_json, samp_json)
        report["accuracy_exact_s"] = exact_s
        report["accuracy_sampled_s"] = samp_s
        report["max_abs_error"] = err
        report["max_abs_error_cell"] = err_tag
        print(f"accuracy @{acc['branches']}: exact {exact_s:.3f}s, "
              f"sampled {samp_s:.3f}s, max |err| {err:.4f} misp/KI "
              f"({err_tag}; bound {acc['max_abs_error']})")
        if err > acc["max_abs_error"]:
            print(f"FAIL: sampled misp/KI error {err:.4f} exceeds "
                  f"bound {acc['max_abs_error']}", file=sys.stderr)
            return finish(1)

        # Gate 2: worker-count determinism of the sampled artifacts.
        _, jobs1_json, jobs1_csv = run_once(
            args.bench, acc["branches"], 1, workdir, "acc_jobs1",
            sample=sample)
        if not compare_artifacts(f"sampled --jobs={jobs}",
                                 (samp_json, samp_csv),
                                 "sampled --jobs=1",
                                 (jobs1_json, jobs1_csv)):
            return finish(1)
        print(f"determinism: sampled --jobs=1 vs --jobs={jobs} "
              "byte-identical (sampling block compared unmasked)")

        if args.compare_only:
            print("compare-only: accuracy and determinism OK, 16M "
                  "timing floor skipped")
            return finish(0)

        # Gate 3: speedup at the paper scale.  A sampled warm-up first
        # builds the 16M streams and phase sidecars so synthesis lands
        # on no timed run, then one exact run (long enough to average
        # out runner noise) vs min-of-N sampled.
        run_once(args.bench, spd["branches"], jobs, workdir,
                 "spd_warmup", sample=sample)
        exact16_s, _, _ = run_once(
            args.bench, spd["branches"], jobs, workdir, "spd_exact")
        print(f"speedup @{spd['branches']}: exact {exact16_s:.3f}s")
        sampled_times = []
        for r in range(spd["repeats"]):
            secs, _, _ = run_once(
                args.bench, spd["branches"], jobs, workdir,
                f"spd_sampled{r}", sample=sample)
            sampled_times.append(secs)
            print(f"speedup @{spd['branches']}: sampled run {r} "
                  f"{secs:.3f}s")
        speedup = exact16_s / min(sampled_times)
        report["speedup_exact_s"] = exact16_s
        report["speedup_sampled_s"] = sampled_times
        report["speedup"] = speedup
        print(f"speedup {speedup:.2f}x (floor {floor:.2f}x, baseline "
              f"{spd['expected_speedup']}x - {spd['tolerance']:.0%}, "
              f"hard minimum {spd['min_speedup']}x)")
        if speedup < floor:
            print(f"FAIL: sampled speedup {speedup:.2f}x below floor "
                  f"{floor:.2f}x", file=sys.stderr)
            return finish(1)
        print("sampling accuracy and speedup OK")
        return finish(0)


if __name__ == "__main__":
    sys.exit(main())
