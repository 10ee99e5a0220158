#!/usr/bin/env python3
"""u1sim benchmark: builds, runs and checks one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload month_bin|month_analysis|u1d_mix \
        --seed N --seconds T --trace 0|1

Builds the u1sim libraries, the u1d daemon and the u1perf runner into
.bench_build/perfbench (incrementally), runs the workload in fresh child
processes, checks every child's output, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(plus the tracing overhead against an untraced run of the same workload).
A host-fingerprint line precedes the result. Workloads and metrics are
described in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
U1PERF = os.path.join(BUILD, "u1perf")
U1D = os.path.join(BUILD, "u1d")

# month_bin: SHA-1 of the .u1b/.u1s directory (file name, then bytes, in
# name order) for 8000 users x 30 days at seed 20140111.
MONTH_BIN_SHA1 = "f0eb356b3127f40ee1f49cf033aa3d5becf31882"
# month_analysis: exact analyzer outputs of the same month; identical at
# 1, 2 and 4 worker threads.
MONTH_ANALYSIS_CHECK = {
    "records": 9066095,
    "users_seen": 8003,
    "sessions_closed": 162815,
    "distinct_files": 338943,
    "upload_ops": 459441,
    "download_ops": 380048,
    "upload_bytes": 1470380969644,
    "download_bytes": 1655062667087,
    "rpcs": 2840237,
}

# u1d_mix: a step is sustainable when its p99 latency from due time stays
# within LATENCY_LIMIT_MS and the generator's median lateness over the
# step's last quarter exceeds its first quarter's by at most
# LATENESS_GROWTH_MS (a backlog that grows means the offered rate is not
# being served).
LATENCY_LIMIT_MS = 5.0
LATENESS_GROWTH_MS = 1.0

# u1d_mix pins its three generator threads and the daemon to four
# distinct CPUs (the daemon takes the last) when the host has them.
_CPUS = sorted(os.sched_getaffinity(0))
MIX_CPUS = _CPUS[:4] if len(_CPUS) >= 4 else []

# Each untraced run measures this many fresh processes (full months for
# month_*, fresh daemons for u1d_mix) and reports medians.
MONTH_REPS = {"bin": 3, "analysis": 3}
MIX_DAEMONS = 3

CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_us_per_op", "us"),
]

MIX_OPS = ["MakeFile", "Upload", "Unlink", "Download", "GetDelta",
           "ListVolumes"]
ANALYZERS = ["rpc_perf", "traffic", "users", "sessions", "file_types"]

PER_LAYER = (
    [("sim.compute_s", "s"), ("sim.merge_s", "s"), ("sim.flush_s", "s"),
     ("sim.write_s", "s"), ("sim.flush_stall_s", "s"),
     ("sim.ring_stall_s", "s"), ("sim.plan_rebuilds", "count"),
     ("sim.cal_scanned_per_find", "count"), ("sim.records", "count")]
    + [("trace.append_busy_s", "s"), ("trace.append_calls", "count"),
       ("trace.records", "count"), ("trace.bytes", "bytes"),
       ("trace.files", "count"), ("trace.close_s", "s"),
       ("trace.open_fds_peak", "count")]
    + [("analysis.%s.consume_busy_s" % a, "s") for a in ANALYZERS]
    + [("analysis.merge_s", "s"), ("analysis.finish_s", "s"),
       ("analysis.records", "count")]
    + [("sim.hour_p50_ms", "ms"), ("sim.hour_p90_ms", "ms"),
       ("sim.hour_p99_ms", "ms")]
    + [("net.rtt_p50_us.%s" % op, "us") for op in MIX_OPS]
    + [("net.rtt_p99_us.%s" % op, "us") for op in MIX_OPS]
    + [("net.requests", "count"), ("net.bytes_in", "bytes"),
       ("net.bytes_out", "bytes"), ("net.protocol_errors", "count"),
       ("gen.p50_ms", "ms"), ("gen.p90_ms", "ms"), ("gen.p99_ms", "ms"),
       ("gen.sustainable_rps", "1/s"), ("gen.late_p99_ms", "ms"),
       ("gen.sent", "count")]
    + [("server.call_p50_us.%s" % op, "us") for op in MIX_OPS]
    + [("server.call_p99_us.%s" % op, "us") for op in MIX_OPS]
    + [("server.rpcs", "count"), ("server.dedup_hits", "count"),
       ("store.volume_nodes_mean", "count"), ("auth.requests", "count"),
       ("auth.failures", "count"), ("cloudstore.objects", "count"),
       ("mq.notifications", "count"),
       ("proto.encode_ns", "ns"), ("proto.decode_ns", "ns"),
       ("proc.cpu_s", "s"), ("proc.peak_rss_mb", "MB"),
       ("u1d.cpu_s", "s"), ("u1d.peak_rss_mb", "MB"),
       ("tracing.untraced_wall_s", "s"), ("tracing.traced_wall_s", "s"),
       ("tracing.overhead_pct", "%")]
)

WORKLOADS = ("month_bin", "month_analysis", "u1d_mix")


class BenchError(Exception):
    """A run that cannot produce a result (build failure, crash, timeout)."""


def log(msg):
    print("[perfbench] %s" % msg, file=sys.stderr, flush=True)


# --- building ----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no u1sim sources next to %s" % HERE)
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build step failed: %s" % " ".join(cmd))


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info, _ = run_child([U1PERF, "build-info"], timeout=30)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": info.get("compiler"),
        "build_type": info.get("build_type"),
        "note": "default build is RelWithDebInfo; CI builds Release",
    }


# --- child processes ---------------------------------------------------------

def _watchdog(proc, timeout):
    timer = threading.Timer(timeout, lambda: proc.kill())
    timer.daemon = True
    timer.start()
    return timer


def _reap(proc):
    """Waits for `proc` and returns its rusage (the child's own peaks)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def _last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_child(argv, timeout=CHILD_TIMEOUT_S):
    """Runs one child to completion; returns (last JSON line, rusage)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    timer = _watchdog(proc, timeout)
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        usage = _reap(proc)
    result = _last_json(out)
    if proc.returncode != 0 or result is None:
        raise BenchError("%s exited %s" % (" ".join(argv[:3]),
                                           proc.returncode))
    return result, usage


def rusage_cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def rusage_rss_mb(usage):
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


class Daemon:
    """A fresh u1d on an ephemeral loopback port."""

    def __init__(self):
        t0 = time.monotonic()
        self.proc = subprocess.Popen([U1D, "--listen", "0"],
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=ROOT)
        self._timer = _watchdog(self.proc, CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline()
        if not line.startswith("u1d listening on "):
            self.kill()
            raise BenchError("u1d did not start")
        self.port = int(line.split()[-1])
        if MIX_CPUS:
            os.sched_setaffinity(self.proc.pid, {MIX_CPUS[-1]})
        self.start_s = time.monotonic() - t0
        self.stats = None
        self.usage = None

    def stop(self):
        """SIGTERM; u1d drains and prints its JSON stats."""
        self.proc.send_signal(signal.SIGTERM)
        out = self.proc.stdout.read()
        self._timer.cancel()
        self.proc.stdout.close()
        self.usage = _reap(self.proc)
        self.stats = _last_json(out)
        if self.proc.returncode != 0 or self.stats is None:
            raise BenchError("u1d exited %s" % self.proc.returncode)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self._timer.cancel()
            self.proc.stdout.close()
            _reap(self.proc)


# --- workloads ---------------------------------------------------------------

class Run:
    """Accumulates one benchmark invocation's result."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)
        return ok


def hash_directory(path):
    """SHA-1 over every regular file in `path` in name order: the file's
    name, then its bytes (the bench_throughput binary oracle). Returns
    (hex digest, files, bytes)."""
    sha = hashlib.sha1()
    files = size = 0
    for name in sorted(os.listdir(path)):
        file_path = os.path.join(path, name)
        if not os.path.isfile(file_path) or os.path.islink(file_path):
            continue
        sha.update(name.encode())
        with open(file_path, "rb") as f:
            while True:
                block = f.read(1 << 20)
                if not block:
                    break
                sha.update(block)
                size += len(block)
        files += 1
    return sha.hexdigest(), files, size


def month_child(kind, traced):
    """One month in a fresh process. For `bin` the trace is then hashed
    here, after the month's process has exited (so its rusage covers only
    the simulation and the writer), and deleted."""
    out_dir = os.path.join(SCRATCH, "month_%s" % kind)
    argv = [U1PERF, "month", "--sink", kind, "--dir", out_dir,
            "--trace", "1" if traced else "0"]
    try:
        res, usage = run_child(argv)
        if kind == "bin":
            res["sha1"], files, size = hash_directory(out_dir)
            res["trace"].update(bytes=size, files=files)
        return res, usage
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def check_month(run, kind, res, expect_sha=MONTH_BIN_SHA1):
    """The workload's correctness check on one full month run."""
    if kind == "bin":
        return run.check(res.get("sha1") == expect_sha,
                         "month_bin: trace SHA-1 %s != pinned %s"
                         % (res.get("sha1"), expect_sha))
    ok = run.check(res.get("analysis_only") is True,
                   "month_analysis: engine did not run analysis-only")
    got = dict(res.get("check", {}), records=res.get("records"))
    for key, want in MONTH_ANALYSIS_CHECK.items():
        ok = run.check(got.get(key) == want,
                       "month_analysis: %s = %s, pinned %s"
                       % (key, got.get(key), want)) and ok
    return ok


def month_run(run, kind, traced):
    """One full month in a fresh process, checked."""
    run.attempted += 1
    res, usage = month_child(kind, traced)
    if not check_month(run, kind, res):
        run.failed += 1
    return res, usage


def workload_month(run, kind, trace):
    if not trace:
        reps = [month_run(run, kind, False) for _ in range(MONTH_REPS[kind])]
        med = lambda f: statistics.median(f(res, usage) for res, usage in reps)
        run.metrics.update({
            "wall_s": med(lambda r, u: r["wall_s"]),
            "setup_s": med(lambda r, u: r["setup_s"]),
            "peak_rss_mb": med(lambda r, u: rusage_rss_mb(u)),
            "cpu_us_per_op": med(
                lambda r, u: 1e6 * rusage_cpu_s(u) / r["records"]),
        })
        return
    base, _ = month_run(run, kind, False)
    res, usage = month_run(run, kind, True)
    m = run.metrics
    for q in ("p50", "p90", "p99"):
        m["sim.hour_%s_ms" % q] = base["hour_%s_ms" % q]
    for key in ("compute_s", "merge_s", "flush_s", "write_s",
                "flush_stall_s", "ring_stall_s", "plan_rebuilds",
                "cal_scanned_per_find", "records"):
        m["sim." + key] = res["sim"][key]
    for key, value in res.get("trace", {}).items():
        m["trace." + key] = value
    for key, value in res.get("analysis", {}).items():
        m["analysis." + key] = value
    m["proc.cpu_s"] = rusage_cpu_s(usage)
    m["proc.peak_rss_mb"] = rusage_rss_mb(usage)
    traced_overhead(run, base["wall_s"], res["wall_s"])


def traced_overhead(run, untraced_wall, traced_wall):
    run.metrics["tracing.untraced_wall_s"] = untraced_wall
    run.metrics["tracing.traced_wall_s"] = traced_wall
    run.metrics["tracing.overhead_pct"] = (
        100.0 * (traced_wall / untraced_wall - 1.0))


def mix_child(seed, seconds, traced, load=True, sabotage=None):
    """One fresh u1d plus one generator process; returns both results.
    `sabotage` (self-tests only) makes the generator's model and the
    server disagree on one file."""
    daemon = Daemon()
    try:
        argv = [U1PERF, "mix", "--port", str(daemon.port), "--seed",
                str(seed), "--seconds", str(seconds),
                "--trace", "1" if traced else "0",
                "--daemon-pid", str(daemon.proc.pid)]
        if not load:
            argv.append("--no-load")
        if sabotage:
            argv += ["--sabotage", sabotage]
        if MIX_CPUS:
            argv += ["--cpus", ",".join(str(c) for c in MIX_CPUS[:-1])]
        res, usage = run_child(argv)
        daemon.stop()
    finally:
        daemon.kill()
    return res, usage, daemon


def check_mix(run, res, daemon):
    run.attempted += res["attempted"]
    run.failed += res["failed"]
    ok = run.check(res["failed"] == 0,
                   "u1d_mix: %d failed ops: %s" % (res["failed"],
                                                   "; ".join(res["errors"])))
    stats = daemon.stats
    ok = run.check(stats["protocol_errors"] == 0,
                   "u1d_mix: %d protocol errors" % stats["protocol_errors"]
                   ) and ok
    for key in ("requests", "uploads", "downloads"):
        ok = run.check(stats[key] == res[key],
                       "u1d_mix: daemon counted %d %s, generator %d"
                       % (stats[key], key, res[key])) and ok
    # Server-side namespace check: every file the model holds downloads
    # with its size, every file the generator unlinked is gone.
    ok = run.check(res["files_end"] == res["files_fill"] and
                   res["files_verified"] == res["files_fill"] and
                   res["unlinked_gone"] == res["unlinked"],
                   "u1d_mix: filled %d files; model ends with %d, server"
                   " returned %d of them; %d of %d unlinked files gone"
                   % (res["files_fill"], res["files_end"],
                      res["files_verified"], res["unlinked_gone"],
                      res["unlinked"])) and ok
    return ok


def sustainable(step):
    return (step["p99_ms"] <= LATENCY_LIMIT_MS and
            step["late_last_p50_ms"] <=
            step["late_first_p50_ms"] + LATENESS_GROWTH_MS)


def workload_mix(run, seed, seconds, trace):
    if not trace:
        # Fresh daemons, each giving a set-up sample, a median closed-loop
        # mix pass and the daemon's CPU per request over the passes. All
        # but the last skip the open-loop load, which feeds only per-layer
        # figures.
        setups, passes, cpus = [], [], []
        for i in range(MIX_DAEMONS):
            res, usage, daemon = mix_child(seed, seconds, False,
                                           load=i == MIX_DAEMONS - 1)
            check_mix(run, res, daemon)
            setups.append(daemon.start_s + res["fill_s"])
            passes.append(statistics.median(res["mix_s"]))
            cpus.append(res["mix_cpu_us_per_request"])
        run.metrics.update({
            "wall_s": statistics.median(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rusage_rss_mb(daemon.usage),
            "cpu_us_per_op": statistics.median(cpus),
        })
        return
    base, _, daemon = mix_child(seed, seconds, False)
    check_mix(run, base, daemon)
    res, usage, daemon = mix_child(seed, seconds, True)
    check_mix(run, res, daemon)
    m = run.metrics
    m.update({"net." + k: v for k, v in res["net"].items()})
    for key in ("requests", "bytes_in", "bytes_out", "protocol_errors"):
        m["net." + key] = daemon.stats[key]
    top = base["steps"][-1]
    rates = [s["achieved_rps"] for s in base["steps"] if sustainable(s)]
    m["gen.p50_ms"] = top["p50_ms"]
    m["gen.p90_ms"] = top["p90_ms"]
    m["gen.p99_ms"] = top["p99_whole_ms"]
    m["gen.sustainable_rps"] = max(rates) if rates else 0.0
    m["gen.late_p99_ms"] = top["late_p99_ms"]
    m["gen.sent"] = base["sent"]
    server = res["server"]
    run.check(server["failed"] == 0, "u1d_mix: in-process replay failed ops")
    # The replay's store must hold exactly the filled files plus one root
    # directory per user.
    run.check(server["total_nodes"] == res["files_fill"] +
              server["total_users"],
              "u1d_mix: replay store holds %d nodes, expected %d files"
              " + %d roots" % (server["total_nodes"], res["files_fill"],
                               server["total_users"]))
    for key, value in server.items():
        if key.startswith("call_") or key in ("rpcs", "dedup_hits"):
            m["server." + key] = value
    m["store.volume_nodes_mean"] = server["volume_nodes_mean"]
    m["auth.requests"] = server["auth_requests"]
    m["auth.failures"] = server["auth_failures"]
    m["cloudstore.objects"] = server["objects"]
    m["mq.notifications"] = server["notifications"]
    m["proto.encode_ns"] = res["proto"]["encode_ns"]
    m["proto.decode_ns"] = res["proto"]["decode_ns"]
    m["proc.cpu_s"] = rusage_cpu_s(usage)
    m["proc.peak_rss_mb"] = rusage_rss_mb(usage)
    m["u1d.cpu_s"] = rusage_cpu_s(daemon.usage)
    m["u1d.peak_rss_mb"] = rusage_rss_mb(daemon.usage)
    traced_overhead(run, statistics.median(base["mix_s"]),
                    statistics.median(res["mix_s"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build()
        host = host_fingerprint()
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        run = Run()
        if args.workload == "u1d_mix":
            workload_mix(run, args.seed, args.seconds, args.trace == 1)
        else:
            kind = "bin" if args.workload == "month_bin" else "analysis"
            workload_month(run, kind, args.trace == 1)
    except BenchError as e:
        log("error: %s" % e)
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(run.metrics.get(name, 0.0)),
                      "unit": unit} for name, unit in wanted}
    for problem in run.problems:
        log("check failed: %s" % problem)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "host": host}))
    print(json.dumps({"correct": not run.problems,
                      "attempted": max(run.attempted, 1),
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
