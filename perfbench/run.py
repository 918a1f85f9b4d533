#!/usr/bin/env python3
"""The ev8bp benchmark: one command that builds the simulator from
source, runs one workload, checks every output against the references
committed beside it, and prints the metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it builds into .bench_build/ and
works in .bench_work/. Workloads (why each exists: BENCHMARK.json):

  exact-limits   bench_fig10_limits, exact, warm .ev8s cache
  paper-sampled  bench_fig5_schemes, phase-sampled, cold caches
  served         bench_serve on AF_UNIX serving fig8, driven by this
                 script as a closed-loop client

--trace 0 times the shipped binaries untraced and prints the end-to-end
metrics: wall_s (a batch run from process start until its artifacts are
written; on served, one session from open to results), setup_s (until
every stream and sample plan is ready, timed by ev8_ledger
with the binaries' cache settings; on served, daemon launch to the end
of the cache-filling warm-up session), sim_mbr_s (simulated lane x
branch predictions, from the artifacts' sim.cond_branches, per second
of a run's wall; on served, per second of the window) and peak_rss_mb
(of the simulating process; on served, of each daemon). Each is the
median over the runs (daemons, sessions) inside the window. sim_mbr_s
includes set-up time: set-up is measured in its own processes, and on
paper-sampled it is three quarters of a run, so subtracting it would
leave the difference of two noisy numbers; set-up is reported on its
own as setup_s. --trace 1 runs the traced
replay (ev8_ledger, ledger.cc) and prints the per-layer metrics plus
the tracing overhead.

Host time is the only clock measured; simulated statistics (misp/KI,
sim.* counters) are outputs to check. The synthetic suite stands in for
the paper's traces: the model is unvalidated against hardware and no
error against the paper is reported. The exact suite traces are fixed
by the Table 2 profiles; --seed drives EV8_SAMPLE_SEED on paper-sampled
and, on served, the order in which the connections' sessions start.
Served clients send bench_serve_load's load-mode mix (runLoad): open,
start, a snapshot every 20 ms until done, wait.

The last stdout line is one JSON object:
  {"correct": bool, "attempted": n, "failed": n,
   "metrics": {name: {"value": x, "unit": u}}}

--write-refs regenerates the committed references from the current
build (only when an output change is intended).
"""

import argparse
import csv
import hashlib
import io
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
REF = os.path.join(HERE, "ref")

sys.path.insert(0, HERE)
from stats import (OpLedger, check_metric_specs, describe,  # noqa: E402
                   tail_percentile)

# Two workers, not one per core: a grid is a few large jobs, and with
# every core busy which worker draws which job, and so the makespan,
# changed from run to run (the fig6 grid's rate swung by up to 30%).
JOBS = max(1, min(2, os.cpu_count() or 1))
REF_SEED = 1
SETUP_REPS = 3
MAX_SETUP_REPS = 7
SETUP_MIN_S = 3.0
MIN_RUNS = 3

# The CI sampling knobs (ci/sampling_accuracy_baseline.json).
SAMPLE_KNOBS = {"EV8_SAMPLE_MODE": "phase", "EV8_SAMPLE_WINDOW": "65536",
                "EV8_SAMPLE_WARMUP": "262144", "EV8_SAMPLE_BUDGET": "262144"}

# Max |sampled - exact| misp/KI over fig5 cells at 4M branches before a
# sampled artifact counts as wrong. The CI bound (0.15, calibrated on
# fig6 at 1M) does not hold here: these knobs measured 1.2-2.7 over
# eight seeds, so this bound only catches a broken sampler.
SAMPLE_ERR_BOUND = 4.0

WORKLOADS = {
    "exact-limits": {"binary": "bench_fig10_limits",
                     "branches": 2_000_000, "cache": "warm",
                     "spans": {"cell": 8, "fused.walk": 8}},
    "paper-sampled": {"binary": "bench_fig5_schemes",
                      "branches": 4_000_000, "cache": "cold",
                      "spans": {"cell": 0, "fused.walk": 8}},
    "served": {"binary": "bench_fig8_table_sizes", "grid": "fig8",
               "branches": 500_000, "connections": min(2, JOBS),
               "spans": {"cell": 0, "fused.walk": 8}},
}

TARGETS = ["ev8_ledger", "bench_fig10_limits", "bench_fig5_schemes",
           "bench_fig8_table_sizes", "bench_serve", "bench_serve_load"]


def binary(name):
    if name == "ev8_ledger":
        return os.path.join(BUILD, name)
    return os.path.join(BUILD, "bench", name)


def build():
    """Configures and builds every target from source; False on error."""
    log = os.path.join(WORK, "build.log")
    steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
              "--target", *TARGETS]]
    # Once configured, the build step re-runs CMake itself when a
    # CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                print(f"build failed: {' '.join(cmd)} (see {log})",
                      file=sys.stderr)
                return False
    return True


def base_env():
    """The caller's environment minus every EV8_* knob, so nothing the
    shell exported can move the code path or the outputs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EV8_")}


def reap(proc, timeout=None):
    """Waits for @p proc; returns (exit code, peak RSS in MB)."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG
                                      if deadline else 0)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            proc.kill()
            deadline = None
        time.sleep(0.01)


def timed(cmd, env, capture=False):
    """Runs @p cmd from the work dir; returns (wall s, exit code, peak
    RSS MB, stdout text)."""
    with open(os.path.join(WORK, "stderr.log"), "ab") as err, \
            open(os.path.join(WORK, "stdout.log"), "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=WORK, stderr=err,
                                stdout=out if capture
                                else subprocess.DEVNULL)
        rc, rss = reap(proc)
        wall = time.perf_counter() - t0
        out.seek(0)
        return wall, rc, rss, out.read().decode()


def read(path):
    with open(path) as f:
        return f.read()


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


# ---------------------------------------------------------------- checks

def span_problems(counts, expected_spans):
    """The run took the untimed fast path: no per-call timer fired and
    the cell / fused-walk span counts ({phase: count}) are the
    workload's."""
    problems = [f"{phase} fired {count} times"
                for phase, count in counts.items()
                if phase.startswith("sim.time.") and count]
    for phase, count in expected_spans.items():
        if counts.get(phase) != count:
            problems.append(f"{phase} spans {counts.get(phase)}, "
                            f"expected {count}")
    return problems


def timing_problems(doc):
    """No per-call timer fired in any cell; on served this section is
    merged from the daemon's cell records."""
    calls = sum(v.get("calls", 0) for v in doc.get("timing", {}).values())
    return [f"timing section shows {calls} timed calls"] if calls else []


def fast_path_problems(doc, expected_spans):
    counts = {k: v["count"] for k, v in doc["telemetry"]["phases"].items()}
    return span_problems(counts, expected_spans) + timing_problems(doc)


def csv_rows(text):
    """{row label: {column: value}} of a result CSV."""
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    return {r[0]: dict(zip(header[2:], map(float, r[2:])))
            for r in rows[1:] if r}


def sample_error(sampled_csv, exact_csv):
    """Max |sampled - exact| misp/KI over the grid's cells."""
    s, e = csv_rows(sampled_csv), csv_rows(exact_csv)
    return max(abs(s[label][bench] - e[label][bench])
               for label in e for bench in e[label] if bench != "amean")


def compare(what, got, ref_name):
    ref_path = os.path.join(REF, ref_name)
    if not os.path.exists(ref_path):
        return [f"{what}: missing reference {ref_name}"]
    return [] if got == read(ref_path) else [f"{what} differs from "
                                             f"ref/{ref_name}"]


def sampled_problems(what, csv_text, seed, ref_csv_name):
    """Reference match at the reference seed; the error bound always."""
    problems = []
    if seed == REF_SEED:
        problems += compare(what, csv_text, ref_csv_name)
    try:
        err = sample_error(csv_text, read(os.path.join(REF,
                                                       "paper-exact.csv")))
    except (OSError, KeyError, ValueError, IndexError) as e:
        return problems + [f"{what}: cannot compute sample error ({e})"]
    if err > SAMPLE_ERR_BOUND:
        problems.append(f"{what}: sample error {err:.4f} misp/KI above "
                        f"{SAMPLE_ERR_BOUND}")
    return problems


# ------------------------------------------------------------ batch runs

def batch_env(name, seed, cache_dir):
    env = base_env()
    if cache_dir:
        env["EV8_TRACE_CACHE_DIR"] = cache_dir
    if WORKLOADS[name]["cache"] == "cold":
        env.update(SAMPLE_KNOBS, EV8_SAMPLE_SEED=str(seed))
    return env


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cache_dir(name):
    """The workload's on-disk trace cache, kept warm for the exact
    workload; "" (in-memory only, so every process starts cold)
    for paper-sampled. Cold disk caches made its runs swing with the
    host's write-back of ~0.5 GB of cache files per run."""
    wl = WORKLOADS[name]
    if wl["cache"] == "cold":
        return ""
    return os.path.join(WORK, f"cache-{wl['branches']}")


def run_binary(name, seed):
    """One untraced run of the workload's bench binary. Returns (wall,
    rss, artifact doc or None, json text, csv text, problems)."""
    wl = WORKLOADS[name]
    env = batch_env(name, seed, cache_dir(name))
    json_path = os.path.join(WORK, f"{name}.json")
    csv_path = os.path.join(WORK, f"{name}.csv")
    for path in (json_path, csv_path):
        if os.path.exists(path):
            os.remove(path)
    wall, rc, rss, _ = timed(
        [binary(wl["binary"]), f"--branches={wl['branches']}",
         f"--jobs={JOBS}", "--no-timing", "--quiet", f"--json={json_path}",
         f"--csv={csv_path}"], env)
    if rc != 0:
        return wall, rss, None, "", "", [f"{wl['binary']} exited {rc}"]
    text, csv_text = read(json_path), read(csv_path)
    doc = json.loads(text)
    return wall, rss, doc, text, csv_text, fast_path_problems(doc,
                                                              wl["spans"])


def artifact_problems(name, text, csv_text, seed, masks):
    if WORKLOADS[name]["cache"] == "cold":
        # The sampling block is deterministic per seed: compare it too.
        masked = masks.mask_member(masks.mask_member(text, "telemetry", "{",
                                                     "}"),
                                   "attempt_ns", "[", "]")
        problems = sampled_problems(name, csv_text, seed, f"{name}.csv")
        if seed == REF_SEED:
            problems += compare(f"{name} json", masked, f"{name}.json")
        return problems
    return (compare(f"{name} json", masks.mask_timing_dependent(text),
                    f"{name}.json")
            + compare(f"{name} csv", csv_text, f"{name}.csv"))


def warm_cache(name, ops):
    """Fills an exact workload's disk cache once per checkout."""
    if WORKLOADS[name]["cache"] == "cold":
        return
    marker = os.path.join(cache_dir(name), "ready")
    if os.path.exists(marker):
        return
    os.makedirs(os.path.dirname(marker), exist_ok=True)
    *_, problems = run_binary(name, REF_SEED)
    if ops.record(problems):
        write(marker, "")


def measure_setup(name, seed):
    """Wall until every stream and sample plan is ready (ev8_ledger's
    untraced --setup-only), once per fresh process: SETUP_REPS times,
    and more, up to MAX_SETUP_REPS, while they add up to under
    SETUP_MIN_S -- a warm-cache set-up is short enough to be noisy."""
    wl = WORKLOADS[name]
    times = []
    while len(times) < SETUP_REPS or (sum(times) < SETUP_MIN_S
                                      and len(times) < MAX_SETUP_REPS):
        cache = cache_dir(name)
        _, rc, _, out = timed(
            [binary("ev8_ledger"), f"--workload={name}", "--setup-only",
             f"--branches={wl['branches']}", f"--jobs={JOBS}",
             f"--cache-dir={cache}"], batch_env(name, seed, cache),
            capture=True)
        if rc != 0:
            raise RuntimeError(f"ev8_ledger --setup-only exited {rc}")
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return times


def run_batch(name, args, ops, masks, report):
    wl = WORKLOADS[name]
    warm_cache(name, ops)
    setup = measure_setup(name, args.seed)
    walls, rss, rates = [], [], []
    first_masked = None
    deadline = time.perf_counter() + args.seconds
    # A run starts only if it is expected to end inside the window.
    while (len(walls) < MIN_RUNS or time.perf_counter()
           + statistics.median(walls) <= deadline):
        wall, peak, doc, text, csv_text, problems = run_binary(name,
                                                              args.seed)
        if doc is not None:
            problems += artifact_problems(name, text, csv_text, args.seed,
                                          masks)
            masked = masks.mask_timing_dependent(text) + csv_text
            first_masked = first_masked or masked
            if masked != first_masked:
                problems.append(f"{name}: artifact changed between runs")
            report["backend"] = doc["telemetry"]["simd"]["backend"]
            cond = doc["metrics"]["counters"]["sim.cond_branches"]
            rates.append(cond / wall / 1e6)
            if wl["cache"] == "cold" and "sample_err" not in report:
                try:
                    report["sample_err"] = sample_error(
                        csv_text, read(os.path.join(REF, "paper-exact.csv")))
                except (OSError, KeyError, ValueError, IndexError):
                    pass  # sampled_problems() already failed the run
        ops.record(problems)
        walls.append(wall)
        rss.append(peak)
    report["lines"] += [describe("wall_s", "s", walls),
                        describe("setup_s", "s", setup),
                        describe("sim_mbr_s", "Mbr/s", rates or [0.0]),
                        describe("peak_rss_mb", "MB", rss)]
    if "sample_err" in report:
        report["lines"].append(
            f"{'sample_err_mispki':<18} {report['sample_err']:.6g} misp/KI "
            f"(max over cells vs ref/paper-exact.csv; bound "
            f"{SAMPLE_ERR_BOUND})")
    return {"wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "sim_mbr_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": statistics.median(rss)}


# ---------------------------------------------------------------- served

SOCK = "serve.sock"  # relative to the work dir: AF_UNIX paths are short


class Conn:
    """One client connection to the daemon, line JSON request/reply."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX)
        self.sock.settimeout(120)
        self.sock.connect(SOCK)
        self.lines = self.sock.makefile("rb")

    def call(self, request):
        t0 = time.perf_counter()
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        reply = self.lines.readline()
        elapsed = time.perf_counter() - t0
        if not reply:
            raise ConnectionError("daemon closed the connection")
        return json.loads(reply), elapsed

    def close(self):
        self.lines.close()
        self.sock.close()


def cells_digest(cells):
    return hashlib.sha256("".join(c + "\n" for c in cells).encode()
                          ).hexdigest()


# bench_serve_load's load-mode snapshot poll period (runLoad).
POLL_S = 0.020

# Sessions of the untraced base for the served tracing overhead: as many
# as ev8_ledger's traced sessions (kServedSessions in ledger.cc).
SERVED_SESSIONS = 6


def served_session(conn, name):
    """One session in bench_serve_load's load-mode mix (runLoad): open,
    start, a snapshot every POLL_S until the session is done, then wait.
    Returns (turnaround s, snapshot RPC latencies s, cells digest,
    problems)."""
    wl = WORKLOADS["served"]
    t0 = time.perf_counter()
    reply, _ = conn.call({"op": "open", "session": name, "grid": wl["grid"],
                          "events": False, "metrics": True,
                          "timing": False, "generic": False})
    if not reply.get("ok"):
        kind = "refused (busy)" if reply.get("busy") else "failed"
        return time.perf_counter() - t0, [], None, [
            f"session {name} {kind}: {reply.get('error')}"]
    rpcs = []
    reply, _ = conn.call({"op": "start", "session": name})
    while reply.get("ok") and reply.get("state") != "done":
        if rpcs:
            time.sleep(POLL_S)
        reply, elapsed = conn.call({"op": "snapshot", "session": name})
        rpcs.append(elapsed)
    if not reply.get("ok"):
        return time.perf_counter() - t0, rpcs, None, [
            f"session {name} failed: {reply.get('error')}"]
    problems = []
    reply, _ = conn.call({"op": "wait", "session": name})
    turnaround = time.perf_counter() - t0
    if not reply.get("ok") or reply.get("failures"):
        problems.append(f"session {name} failed: "
                        f"{reply.get('error') or reply.get('failures')}")
    return turnaround, rpcs, cells_digest(reply.get("cells", [])), problems


def launch_daemon():
    """Starts bench_serve; returns (process, launch time)."""
    wl = WORKLOADS["served"]
    if os.path.exists(SOCK):
        os.remove(SOCK)
    t0 = time.perf_counter()
    with open(os.path.join(WORK, "stderr.log"), "ab") as err:
        proc = subprocess.Popen(
            [binary("bench_serve"), f"--socket={SOCK}",
             f"--branches={wl['branches']}", f"--jobs={JOBS}",
             "--no-timing", "--quiet"],
            cwd=WORK, env=base_env(), stdout=subprocess.DEVNULL, stderr=err)
    while not os.path.exists(SOCK):
        if proc.poll() is not None or time.perf_counter() - t0 > 60:
            reap(proc, timeout=5)
            raise RuntimeError("bench_serve did not start listening")
        time.sleep(0.005)
    return proc, t0


def stop_daemon(proc):
    """Protocol shutdown; returns (problems, daemon peak RSS MB)."""
    try:
        conn = Conn()
        conn.call({"op": "shutdown"})
        conn.close()
    except OSError:
        pass
    rc, rss = reap(proc, timeout=60)
    return ([] if rc == 0 else [f"bench_serve exited {rc}"]), rss


class Client(threading.Thread):
    """One closed-loop connection: the next session opens only after
    the previous session's results arrive. The first session waits
    @p delay seconds, a seeded share of one poll period, which sets the
    order in which the connections' sessions start and poll."""

    def __init__(self, prefix, delay, deadline):
        super().__init__()
        self.prefix, self.delay, self.deadline = prefix, delay, deadline
        self.sessions = []
        self.error = None

    def run(self):
        try:
            conn = Conn()
            try:
                time.sleep(self.delay)
                while time.perf_counter() < self.deadline:
                    name = f"{self.prefix}-{len(self.sessions)}"
                    self.sessions.append(served_session(conn, name))
            finally:
                conn.close()
        except (OSError, ValueError) as e:
            self.error = f"client {self.prefix}: {e}"


def served_parity(masks):
    """bench_serve_load in parity mode against the running daemon: its
    artifacts must byte-equal the batch fig8 artifacts (telemetry
    masked), and no cell may have run timed. The daemon's engine spans
    are not visible from here; ev8_ledger checks them in --trace 1."""
    wl = WORKLOADS["served"]
    json_path = os.path.join(WORK, "served.json")
    csv_path = os.path.join(WORK, "served.csv")
    _, rc, _, _ = timed(
        [binary("bench_serve_load"), f"--connect={SOCK}",
         f"--grid={wl['grid']}", "--session=parity",
         f"--branches={wl['branches']}", "--no-timing", "--quiet",
         f"--json={json_path}", f"--csv={csv_path}"], base_env())
    if rc != 0:
        return [f"bench_serve_load exited {rc}"], None
    text = read(json_path)
    doc = json.loads(text)
    return (compare("served json", masks.mask_timing_dependent(text),
                    "served.json")
            + compare("served csv", read(csv_path), "served.csv")
            + timing_problems(doc)), doc


def warm_session(ops, seed):
    """Launches the daemon and runs the cache-filling warm-up session;
    returns (daemon, set-up seconds)."""
    proc, t0 = launch_daemon()
    try:
        conn = Conn()
        _, _, digest, problems = served_session(conn, f"warm{seed}")
        conn.close()
    except (OSError, ValueError) as e:
        digest, problems = None, [f"warm-up session: {e}"]
    setup = time.perf_counter() - t0
    ops.record(problems + digest_problems(digest))
    return proc, setup


def digest_problems(digest):
    ref = read(os.path.join(REF, "served-cells.sha256")).strip()
    return [] if digest == ref else ["served cells differ from "
                                     "ref/served-cells.sha256"]


def run_served(args, ops, masks, report):
    """SETUP_REPS daemons, one after another. Each is launched, warmed
    by one session (its set-up), then loaded by the closed-loop clients
    for an equal share of the window; its peak RSS is one sample. The
    last daemon also serves the parity session."""
    rng = random.Random(args.seed)
    setup, rss, turnarounds, rpcs = [], [], [], []
    window = 0.0
    for rep in range(SETUP_REPS):
        proc, seconds = warm_session(ops, args.seed)
        setup.append(seconds)
        try:
            t0 = time.perf_counter()
            clients = [Client(f"s{args.seed}-{rep}-{i}",
                              rng.uniform(0, POLL_S),
                              t0 + args.seconds / SETUP_REPS)
                       for i in range(WORKLOADS["served"]["connections"])]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
            window += time.perf_counter() - t0
            for c in clients:
                if c.error:
                    ops.record([c.error])
                for turnaround, lat, digest, problems in c.sessions:
                    ops.record(problems + digest_problems(digest))
                    turnarounds.append(turnaround)
                    rpcs += lat
            if rep == SETUP_REPS - 1:
                parity, doc = served_parity(masks)
                ops.record(parity)
                if doc:
                    report["backend"] = doc["telemetry"]["simd"]["backend"]
        finally:
            problems, peak = stop_daemon(proc)
        ops.record(problems)
        rss.append(peak)
    per_session = json.loads(read(os.path.join(REF, "served.json")))[
        "metrics"]["counters"]["sim.cond_branches"]
    rate = len(turnarounds) * per_session / window / 1e6
    tail = tail_percentile(turnarounds or [0.0])
    report["lines"] += [
        describe("wall_s", "s", turnarounds or [0.0]),
        describe("setup_s", "s", setup),
        f"{'sim_mbr_s':<18} {rate:.6g} Mbr/s   {len(turnarounds)} sessions "
        f"x {per_session} lane-branches in {window:.3f} s",
        describe("peak_rss_mb", "MB", rss) + " (daemons)",
        describe("session_p50_s", "s", turnarounds or [0.0]),
        (f"{'session_tail_s':<18} p{tail[0]:g} {tail[1]:.6g} s, "
         f"n={tail[2]}") if tail else
        f"{'session_tail_s':<18} n/a (needs >= 20 sessions)",
        describe("rpc_p50_ms", "ms", [x * 1e3 for x in rpcs] or [0.0]),
    ]
    return {"wall_s": statistics.median(turnarounds or [0.0]),
            "setup_s": statistics.median(setup),
            "sim_mbr_s": rate, "peak_rss_mb": statistics.median(rss)}


# ----------------------------------------------------------- traced runs

def untraced_base(name, args, ops, masks, report):
    """One untraced run to set the tracing overhead against: a batch
    run's wall, or, on served, the median turnaround of SERVED_SESSIONS
    sessions on one connection after the warm-up, as ev8_ledger runs
    its traced sessions."""
    if name != "served":
        warm_cache(name, ops)
        wall, _, doc, text, csv_text, problems = run_binary(name, args.seed)
        if doc is not None:
            problems += artifact_problems(name, text, csv_text, args.seed,
                                          masks)
            report["backend"] = doc["telemetry"]["simd"]["backend"]
        ops.record(problems)
        return wall
    proc, _ = warm_session(ops, args.seed)
    try:
        conn = Conn()
        turnarounds = []
        for k in range(SERVED_SESSIONS):
            turnaround, _, digest, problems = served_session(conn,
                                                             f"base{k}")
            ops.record(problems + digest_problems(digest))
            turnarounds.append(turnaround)
        conn.close()
    finally:
        ops.record(stop_daemon(proc)[0])
    return statistics.median(turnarounds)


def run_traced(name, args, ops, masks, report):
    wl = WORKLOADS[name]
    base = untraced_base(name, args, ops, masks, report)
    out_dir = fresh_dir(os.path.join(WORK, "ledger"))
    cache = "" if name == "served" else cache_dir(name)
    env = base_env() if name == "served" else batch_env(name, args.seed,
                                                          cache)
    _, rc, _, out = timed(
        [binary("ev8_ledger"), f"--workload={name}",
         f"--branches={wl['branches']}", f"--jobs={JOBS}",
         f"--cache-dir={cache}", f"--out-dir={out_dir}",
         f"--seconds={args.seconds}", f"--seed={args.seed}"], env,
        capture=True)
    if rc != 0:
        ops.record([f"ev8_ledger exited {rc}"])
        return {}
    result = json.loads(out.strip().splitlines()[-1])
    problems = [f"ev8_ledger {k} = {v}" for k, v in result["checks"].items()
                if v]
    if name == "served":
        problems += digest_problems(cells_digest(
            read(os.path.join(out_dir, "served-cells.txt")).splitlines()))
        problems += span_problems(result["session_spans"], wl["spans"])
    elif wl["cache"] == "cold":
        problems += sampled_problems("ledger csv", read(os.path.join(
            out_dir, "ledger.csv")), args.seed, f"{name}.csv")
    else:
        # Held to the shipped binary's grid, not to a reference of its own.
        problems += compare("ledger csv", read(os.path.join(
            out_dir, "ledger.csv")), f"{name}.csv")
    ops.record(problems)
    metrics = result["metrics"]
    metrics["trace.overhead_ratio"] = result["wall_s"] / base
    report["backend"] = result["backend"]
    base_kind = (f"median turnaround of {SERVED_SESSIONS} sessions, same "
                 "mix; traced: in-process server behind a socketpair"
                 if name == "served" else "one bench-binary run")
    report["lines"].append(
        f"tracing overhead: traced {result['wall_s']:.4f} s / untraced "
        f"{base:.4f} s = {metrics['trace.overhead_ratio']:.4f} "
        f"(base: {base_kind})")
    return metrics


# ------------------------------------------------------------ references

def write_refs(name, masks):
    """Regenerates this workload's committed references."""
    wl = WORKLOADS[name]
    os.makedirs(REF, exist_ok=True)
    out_dir = fresh_dir(os.path.join(WORK, "ledger"))
    if name == "served":
        json_path = os.path.join(WORK, "served-batch.json")
        csv_path = os.path.join(WORK, "served-batch.csv")
        _, rc, _, _ = timed(
            [binary(wl["binary"]), f"--branches={wl['branches']}",
             f"--jobs={JOBS}", "--no-timing", "--quiet",
             f"--json={json_path}", f"--csv={csv_path}"], base_env())
        assert rc == 0, f"{wl['binary']} exited {rc}"
        write(os.path.join(REF, "served.json"),
              masks.mask_timing_dependent(read(json_path)))
        shutil.copy(csv_path, os.path.join(REF, "served.csv"))
        _, rc, _, _ = timed(
            [binary("ev8_ledger"), "--workload=served",
             f"--branches={wl['branches']}", f"--jobs={JOBS}",
             f"--out-dir={out_dir}", "--seconds=1"], base_env(),
            capture=True)
        assert rc == 0, f"ev8_ledger exited {rc}"
        cells = read(os.path.join(out_dir, "served-cells.txt")).splitlines()
        write(os.path.join(REF, "served-cells.sha256"),
              cells_digest(cells) + "\n")
        return
    if wl["cache"] == "cold":
        # The exact reference the sampled error is measured against.
        exact_csv = os.path.join(WORK, "paper-exact.csv")
        env = base_env()
        _, rc, _, _ = timed(
            [binary(wl["binary"]), f"--branches={wl['branches']}",
             f"--jobs={JOBS}", "--no-timing", "--quiet",
             f"--csv={exact_csv}"], env)
        assert rc == 0, f"{wl['binary']} exited {rc}"
        shutil.copy(exact_csv, os.path.join(REF, "paper-exact.csv"))
    _, _, doc, text, csv_text, problems = run_binary(name, REF_SEED)
    assert doc is not None and not problems, problems
    if wl["cache"] == "cold":
        text = masks.mask_member(masks.mask_member(text, "telemetry", "{",
                                                   "}"),
                                 "attempt_ns", "[", "]")
    else:
        text = masks.mask_timing_dependent(text)
    write(os.path.join(REF, f"{name}.json"), text)
    write(os.path.join(REF, f"{name}.csv"), csv_text)
    cache = cache_dir(name)
    _, rc, _, _ = timed(
        [binary("ev8_ledger"), f"--workload={name}",
         f"--branches={wl['branches']}", f"--jobs={JOBS}",
         f"--cache-dir={cache}", f"--out-dir={out_dir}", "--seconds=1",
         f"--seed={REF_SEED}"], batch_env(name, REF_SEED, cache),
        capture=True)
    assert rc == 0, f"ev8_ledger exited {rc}"
    assert read(os.path.join(out_dir, "ledger.csv")) == csv_text, \
        f"ev8_ledger's {name} grid differs from {wl['binary']}'s"


# ---------------------------------------------------------------- report

def fingerprint(backend):
    cpu, avx2 = "unknown", False
    try:
        for line in read("/proc/cpuinfo").splitlines():
            if line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
            if line.startswith("flags"):
                avx2 = avx2 or " avx2" in line
    except OSError:
        pass
    commit = "n/a (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
            if "__pycache__" not in d)
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return (f"host: cpu={cpu!r} avx2={'yes' if avx2 else 'no'} "
            f"nproc={os.cpu_count()} backend={backend} (telemetry.simd) "
            f"build=Release commit={commit} "
            f"source=sha256:{digest.hexdigest()[:16]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = check_metric_specs(spec["end_to_end"] + spec["per_layer"])
    if problems:
        parser.error("; ".join(problems))
    os.makedirs(WORK, exist_ok=True)
    if not build():
        return 1
    os.chdir(WORK)
    sys.path.insert(0, os.path.join(ROOT, "ci"))
    import strip_telemetry as masks  # the CI gates' masking rules

    if args.write_refs:
        write_refs(args.workload, masks)
        print(f"wrote references for {args.workload}")
        return 0

    ops = OpLedger()
    report = {"lines": [], "backend": "unknown"}
    if args.trace:
        metrics = run_traced(args.workload, args, ops, masks, report)
        wanted = spec["per_layer"]
    elif args.workload == "served":
        metrics = run_served(args, ops, masks, report)
        wanted = spec["end_to_end"]
    else:
        metrics = run_batch(args.workload, args, ops, masks, report)
        wanted = spec["end_to_end"]

    host = fingerprint(report["backend"])
    print(f"== ev8bp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(host)
    for line in report["lines"]:
        print(line)
    out = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in metrics:
            out[name] = {"value": metrics[name], "unit": unit}
            if args.trace:
                print(f"{name:<52} {metrics[name]:.6g} {unit}")
        elif ".avx2." in name:
            # On a host without AVX2 the row does not exist, which is
            # not the same as 0: it is left out of the result.
            print(f"{name:<52} n/a (no AVX2)")
        elif args.trace and metrics:
            # A layer this workload never calls did no work.
            out[name] = {"value": 0.0, "unit": unit}
            print(f"{name:<52} 0 {unit} (layer not on this workload)")
    print(f"{'ops_failed_ratio':<18} {ops.ratio():.6g}       "
          f"({ops.failed} failed / {ops.attempted} attempted)")
    for reason in ops.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({"correct": ops.failed == 0,
                      "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
