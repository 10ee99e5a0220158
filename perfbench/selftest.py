#!/usr/bin/env python3
"""Self-tests of the benchmark itself, at a small scale (seconds).

    python3 perfbench/selftest.py

Checks that the benchmark's own instrumentation does not change what it
measures, and that its correctness checks reject bad output. Exits 1 if
any test fails.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SMALL = ["--users", "500", "--days", "3"]
TESTS = []


def test(fn):
    TESTS.append(fn)
    return fn


def month(kind, *extra, keep=False):
    """A small month; for `bin` its trace is hashed (and deleted unless
    `keep`)."""
    out_dir = os.path.join(bench.SCRATCH, "selftest_%s" % kind)
    res, _ = bench.run_child([bench.U1PERF, "month", "--sink", kind,
                              "--dir", out_dir] + SMALL + list(extra))
    if kind == "bin":
        res["sha1"] = bench.hash_directory(out_dir)[0]
        if not keep:
            shutil.rmtree(out_dir)
    return res, out_dir


@test
def wrapped_sink_keeps_trace_bytes():
    raw, _ = month("bin", "--raw")
    probed, _ = month("bin")
    timed, _ = month("bin", "--trace", "1")
    assert raw["sha1"] == probed["sha1"] == timed["sha1"], (
        "trace SHA-1 raw %s, untraced %s, traced %s"
        % (raw["sha1"], probed["sha1"], timed["sha1"]))
    assert timed["trace"]["records"] == raw["records"], "records differ"


@test
def analysis_stays_analysis_only():
    plain, _ = month("analysis")
    timed, _ = month("analysis", "--trace", "1")
    assert plain["analysis_only"] and timed["analysis_only"], (
        "analysis_only() false under the benchmark's decorators")
    assert plain["check"] == timed["check"], (
        "analyzer outputs differ traced vs untraced")
    assert timed["analysis"]["records"] == timed["records"], (
        "decorated analyzer missed records")


@test
def corrupted_trace_fails_check():
    res, out_dir = month("bin", keep=True)
    assert bench.check_month(bench.Run(), "bin", res, expect_sha=res["sha1"])
    victim = max((os.path.join(out_dir, f) for f in os.listdir(out_dir)),
                 key=os.path.getsize)
    with open(victim, "r+b") as f:
        f.seek(os.path.getsize(victim) // 2)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0x01]))
    corrupt = {"sha1": bench.hash_directory(out_dir)[0]}
    shutil.rmtree(out_dir, ignore_errors=True)
    assert not bench.check_month(bench.Run(), "bin", corrupt,
                                 expect_sha=res["sha1"]), (
        "a flipped byte passed the trace check")
    assert not bench.check_month(bench.Run(), "bin", res), (
        "a 500-user trace passed the pinned month check")


@test
def wrong_analyzer_count_fails_check():
    good = {"analysis_only": True,
            "records": bench.MONTH_ANALYSIS_CHECK["records"],
            "check": dict(bench.MONTH_ANALYSIS_CHECK)}
    assert bench.check_month(bench.Run(), "analysis", good)
    for key in good["check"]:
        bad = json.loads(json.dumps(good))
        bad["check"][key] += 1
        if key == "records":
            bad["records"] += 1
        assert not bench.check_month(bench.Run(), "analysis", bad), (
            "%s off by one passed" % key)
    bad = dict(good, analysis_only=False)
    assert not bench.check_month(bench.Run(), "analysis", bad), (
        "a materialized trace passed as analysis-only")


@test
def failed_mix_op_fails_check():
    res, _, daemon = bench.mix_child(seed=1, seconds=2, traced=False)
    assert bench.check_mix(bench.Run(), res, daemon), (
        "a clean u1d_mix run failed its check: %s" % res["errors"])
    bad = dict(res, failed=1, errors=["Download: status Error"])
    assert not bench.check_mix(bench.Run(), bad, daemon)
    for key in ("requests", "uploads", "downloads"):
        stats = daemon.stats
        daemon.stats = dict(stats, **{key: stats[key] + 1})
        assert not bench.check_mix(bench.Run(), res, daemon), (
            "a %s count mismatch with the daemon passed" % key)
        daemon.stats = stats


@test
def server_namespace_mismatch_fails_check():
    # The server keeps a file the model dropped, or lost one it kept.
    for sabotage in ("leftover", "missing"):
        res, _, daemon = bench.mix_child(seed=1, seconds=1, traced=False,
                                         load=False, sabotage=sabotage)
        assert not bench.check_mix(bench.Run(), res, daemon), (
            "a %s file on the server passed the mix check" % sabotage)


@test
def benchmark_json_matches_run_py():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        bench.END_TO_END, "end_to_end differs from run.END_TO_END"
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        bench.PER_LAYER, "per_layer differs from run.PER_LAYER"


def main():
    bench.build()
    os.makedirs(bench.SCRATCH, exist_ok=True)
    failures = 0
    try:
        for fn in TESTS:
            try:
                fn()
                print("PASS %s" % fn.__name__, flush=True)
            except (AssertionError, bench.BenchError) as e:
                failures += 1
                print("FAIL %s: %s" % (fn.__name__, e), flush=True)
    finally:
        shutil.rmtree(bench.SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
