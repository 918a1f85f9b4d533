#!/usr/bin/env python3
"""CI guard: the serve daemon must not leak across client sessions.

Starts one bench_serve daemon on an AF_UNIX socket, drives it with
hundreds of sequential bench_serve_load sessions (fresh client process
per session, unique session names -- the pattern a long-lived daemon
sees in practice), and asserts the daemon's resident set stays flat:

 * A warm-up batch of sessions first brings allocator pools, the trace
   cache and per-grid state to steady state; RSS is sampled *after*
   it, so one-time growth is not charged to the soak.
 * During the soak RSS is sampled every few sessions (the trajectory
   lands in the report); the gate compares the final sample against
   the post-warm-up sample with a fixed slack.  The slack (default
   8 MB) is far below what a per-session leak of even a few KB would
   accumulate over 500 sessions, while tolerating allocator noise.
 * The daemon is shut down through the protocol ({"op":"shutdown"})
   and must exit cleanly; its stats must count every session served.

--chaos-clients N switches to the concurrent chaos soak instead: one
daemon on BOTH transports (AF_UNIX + TCP), N concurrent clean clients
per round racing a victim of every fault class (conn_drop client whose
connection vanishes, session_drop client whose session's cells all
fail, slow_peer client on a glacial link), with the session-lease
reaper armed.  The gate then asserts the documented failure semantics
end to end:

 * every clean client exits 0 on both transports, every round, no
   matter what happens to the victims next to it;
 * conn_drop victims exit 4 (connection lost mid-run), session_drop
   victims exit 3 (structured cell failures), slow_peer victims exit 0
   (timing-only);
 * the abandoned sessions of vanished clients are lease-expired and
   surfaced in stats;
 * daemon RSS stays flat across the chaos rounds;
 * a final SIGTERM drains: the daemon exits 3 (it did record cell
   failures) within the drain deadline.

RSS is read from /proc/<pid>/status (VmRSS), so this gate is
Linux-only -- exactly where CI runs.

--report writes a JSON summary with the RSS trajectory and verdict.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


def rss_kb(pid):
    """VmRSS of @p pid in KB, from /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS line for pid {pid}")


def daemon_call(sock_path, payload):
    """One request/reply round-trip on the daemon socket."""
    s = socket.socket(socket.AF_UNIX)
    s.connect(sock_path)
    s.sendall(json.dumps(payload).encode() + b"\n")
    reply = json.loads(s.makefile().readline())
    s.close()
    return reply


def run_session(load, grid, sock_path, name, branches, env):
    """One sequential client session; raises on non-zero exit."""
    subprocess.run(
        [load, f"--grid={grid}", f"--connect={sock_path}",
         f"--session={name}", f"--branches={branches}",
         "--no-timing", "--quiet"],
        check=True, env=env, stdout=subprocess.DEVNULL)


class Client(threading.Thread):
    """One bench_serve_load process, run to completion on a thread."""

    def __init__(self, load, grid, endpoint, name, branches, env,
                 expect):
        super().__init__()
        self.cmd = [load, f"--grid={grid}", endpoint,
                    f"--session={name}", f"--branches={branches}",
                    "--timeout=120000", "--no-timing", "--quiet"]
        self.env = env
        self.name_ = name
        self.expect = expect
        self.exit = None

    def run(self):
        proc = subprocess.run(self.cmd, env=self.env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        self.exit = proc.returncode

    def verdict(self):
        """None when the exit matched expectations, else a message."""
        if self.exit in self.expect:
            return None
        return (f"client {self.name_} exited {self.exit}, "
                f"expected one of {sorted(self.expect)}")


def chaos_soak(args, report, finish):
    """The concurrent chaos mode (see module docstring)."""
    with tempfile.TemporaryDirectory(prefix="serve_chaos_") as workdir:
        env = dict(os.environ)
        env["EV8_TRACE_CACHE_DIR"] = os.path.join(workdir, "trace_cache")
        sock_path = os.path.join(workdir, "ev8.sock")
        port_file = os.path.join(workdir, "port.txt")

        daemon_env = dict(env)
        # Every fault class at once, keyed by victim session-name
        # prefixes so clean sessions never match:
        #  - conn_drop/drop: replies to drop* sessions vanish (the
        #    client observes a mid-run connection loss; the abandoned
        #    session is left for the lease reaper);
        #  - session_drop/doom: every cell of doom* sessions fails
        #    (structured cell failures);
        #  - slow_peer/slow: slow* replies are delayed (timing only).
        daemon_env["EV8_FAULT_SPEC"] = (
            "conn_drop/drop+*,session_drop/doom+*,slow_peer/slow+*")
        daemon_env["EV8_SERVE_IDLE_TIMEOUT_MS"] = "1500"
        daemon_env["EV8_SERVE_HEARTBEAT_MS"] = "100"
        daemon_env["EV8_SERVE_DRAIN_MS"] = "20000"

        daemon = subprocess.Popen(
            [args.serve, f"--socket={sock_path}", "--tcp=127.0.0.1:0",
             f"--port-file={port_file}", "--quiet",
             f"--branches={args.branches}", f"--jobs={args.jobs}",
             "--max-sessions=16"],
            env=daemon_env, stdout=subprocess.DEVNULL)
        try:
            for _ in range(100):
                if os.path.exists(sock_path) and os.path.exists(
                        port_file):
                    break
                time.sleep(0.1)
            else:
                print("FAIL: daemon listeners never appeared",
                      file=sys.stderr)
                return finish(1)
            with open(port_file) as f:
                tcp = f"--connect-tcp=127.0.0.1:{int(f.read())}"
            unix = f"--connect={sock_path}"

            def spawn(name, expect, round_idx, transport=None):
                if transport is None:
                    transport = unix if round_idx % 2 else tcp
                return Client(args.load, args.grid, transport, name,
                              args.branches, env, expect)

            failures = []

            def run_round(clients):
                for c in clients:
                    c.start()
                for c in clients:
                    c.join()
                    bad = c.verdict()
                    if bad:
                        failures.append(bad)
                        print(f"FAIL: {bad}", file=sys.stderr)

            # Phase 1: clean concurrency across both transports.
            for r in range(args.chaos_rounds):
                run_round([
                    spawn(f"clean{r}c{i}", {0}, r + i)
                    for i in range(args.chaos_clients)
                ])
            base_kb = rss_kb(daemon.pid)
            report["rss_after_clean_kb"] = base_kb
            print(f"RSS after clean concurrent rounds: {base_kb} KB")

            # Phase 2: every round races clean clients against one
            # victim of each fault class.
            for r in range(args.chaos_rounds):
                run_round([
                    spawn(f"chaos{r}c{i}", {0}, r + i)
                    for i in range(args.chaos_clients)
                ] + [
                    spawn(f"drop{r}", {4}, r),
                    spawn(f"doom{r}", {3}, r),
                    spawn(f"slow{r}", {0}, r),
                ])

            # The vanished clients' sessions must be lease-reclaimed.
            deadline = time.time() + 30
            expired = 0
            while time.time() < deadline:
                stats = daemon_call(sock_path, {"op": "stats"})
                expired = stats.get("sessions_expired", 0)
                if expired >= args.chaos_rounds:
                    break
                time.sleep(0.5)
            report["sessions_expired"] = expired
            report["sessions_shed"] = stats.get("sessions_shed")
            report["expired_records"] = stats.get("expired")
            if expired < args.chaos_rounds:
                failures.append(
                    f"only {expired} sessions lease-expired, expected "
                    f">= {args.chaos_rounds}")
                print(f"FAIL: {failures[-1]}", file=sys.stderr)

            final_kb = rss_kb(daemon.pid)
            growth = final_kb - base_kb
            report["rss_final_kb"] = final_kb
            report["rss_growth_kb"] = growth
            print(f"RSS growth over chaos rounds: {growth} KB "
                  f"(slack {args.slack_kb} KB)")
            if growth > args.slack_kb:
                failures.append(
                    f"daemon RSS grew {growth} KB, above the "
                    f"{args.slack_kb} KB slack")
                print(f"FAIL: {failures[-1]}", file=sys.stderr)

            # SIGTERM -> graceful drain. The daemon recorded cell
            # failures (doom victims), so its fate is exit 3.
            daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=40)
            except subprocess.TimeoutExpired:
                failures.append("daemon did not drain after SIGTERM")
                print(f"FAIL: {failures[-1]}", file=sys.stderr)
                daemon.kill()
                daemon.wait()
            report["daemon_exit"] = daemon.returncode
            if daemon.returncode != 3:
                failures.append(
                    f"daemon exited {daemon.returncode} after the "
                    f"drain, expected 3 (recorded cell failures)")
                print(f"FAIL: {failures[-1]}", file=sys.stderr)

            report["failures"] = failures
            if failures:
                return finish(1)
            print("serve chaos soak OK: clean clients clean, victims "
                  "failed typed, leases reclaimed, RSS flat, drained")
            return finish(0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serve", required=True,
                        help="path to bench_serve")
    parser.add_argument("--load", required=True,
                        help="path to bench_serve_load")
    parser.add_argument("--grid", default="fig5",
                        help="grid id each session runs (default fig5)")
    parser.add_argument("--branches", type=int, default=1000,
                        help="per-benchmark branch budget per session")
    parser.add_argument("--warmup-sessions", type=int, default=50,
                        help="sessions before the reference RSS sample")
    parser.add_argument("--sessions", type=int, default=500,
                        help="measured soak sessions after warm-up")
    parser.add_argument("--slack-kb", type=int, default=8192,
                        help="allowed RSS growth over the soak, in KB")
    parser.add_argument("--jobs", type=int, default=2,
                        help="daemon worker threads")
    parser.add_argument("--chaos-clients", type=int, default=0,
                        help="concurrent clean clients per chaos round "
                             "(> 0 selects the chaos mode)")
    parser.add_argument("--chaos-rounds", type=int, default=3,
                        help="chaos rounds per phase")
    parser.add_argument("--report", default=None,
                        help="write a JSON measurement report here")
    args = parser.parse_args()

    report = {
        "grid": args.grid,
        "branches": args.branches,
        "warmup_sessions": args.warmup_sessions,
        "sessions": args.sessions,
        "slack_kb": args.slack_kb,
        "rss_samples_kb": [],
    }

    def finish(code):
        report["passed"] = code == 0
        if args.report:
            with open(args.report, "w") as f:
                json.dump(report, f, indent=1, sort_keys=True)
                f.write("\n")
            print(f"report written to {args.report}")
        return code

    if args.chaos_clients > 0:
        report["chaos_clients"] = args.chaos_clients
        report["chaos_rounds"] = args.chaos_rounds
        return chaos_soak(args, report, finish)

    with tempfile.TemporaryDirectory(prefix="serve_soak_") as workdir:
        env = dict(os.environ)
        env["EV8_TRACE_CACHE_DIR"] = os.path.join(workdir, "trace_cache")
        sock_path = os.path.join(workdir, "ev8.sock")

        daemon = subprocess.Popen(
            [args.serve, f"--socket={sock_path}", "--quiet",
             f"--branches={args.branches}", f"--jobs={args.jobs}"],
            env=env, stdout=subprocess.DEVNULL)
        try:
            for _ in range(100):
                if os.path.exists(sock_path):
                    break
                time.sleep(0.1)
            else:
                print("FAIL: daemon socket never appeared",
                      file=sys.stderr)
                return finish(1)

            for i in range(args.warmup_sessions):
                run_session(args.load, args.grid, sock_path,
                            f"warm{i}", args.branches, env)
            base_kb = rss_kb(daemon.pid)
            report["rss_after_warmup_kb"] = base_kb
            print(f"RSS after {args.warmup_sessions} warm-up sessions: "
                  f"{base_kb} KB")

            sample_every = max(1, args.sessions // 10)
            for i in range(args.sessions):
                run_session(args.load, args.grid, sock_path,
                            f"soak{i}", args.branches, env)
                if (i + 1) % sample_every == 0:
                    sample = rss_kb(daemon.pid)
                    report["rss_samples_kb"].append(sample)
                    print(f"session {i + 1}/{args.sessions}: "
                          f"RSS {sample} KB")

            final_kb = rss_kb(daemon.pid)
            report["rss_final_kb"] = final_kb
            growth = final_kb - base_kb
            report["rss_growth_kb"] = growth

            stats = daemon_call(sock_path, {"op": "stats"})
            report["sessions_done"] = stats.get("sessions_done")
            expected = args.warmup_sessions + args.sessions
            if stats.get("sessions_done") != expected:
                print(f"FAIL: daemon served "
                      f"{stats.get('sessions_done')} sessions, "
                      f"expected {expected}", file=sys.stderr)
                return finish(1)

            daemon_call(sock_path, {"op": "shutdown"})
            daemon.wait(timeout=30)
            report["daemon_exit"] = daemon.returncode
            if daemon.returncode != 0:
                print(f"FAIL: daemon exited {daemon.returncode}",
                      file=sys.stderr)
                return finish(1)

            print(f"RSS growth over {args.sessions} sessions: "
                  f"{growth} KB (slack {args.slack_kb} KB)")
            if growth > args.slack_kb:
                print(f"FAIL: daemon RSS grew {growth} KB over the "
                      f"soak, above the {args.slack_kb} KB slack",
                      file=sys.stderr)
                return finish(1)
            print("serve soak OK: RSS flat, every session served, "
                  "clean shutdown")
            return finish(0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
