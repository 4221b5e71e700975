#!/usr/bin/env python3
"""Benchmark of the perdnn simulators: four fixed-size batch workloads over
both engines, end-to-end metrics with tracing off, per-layer metrics from a
separate traced run, and an output check on every simulation.

    python3 perfbench/run.py --workload city --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare A.result.json B.result.json
    python3 perfbench/run.py expect      # rewrite perfbench/expected.json

Run from the repository root. The first run builds perfbench/CMakeLists.txt
(the library sources under src/ plus perfbench.cpp) into .bench_build/;
results, timeseries CSVs and Chrome traces go to .bench_build/out/. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The modelled metrics come from a simulation model of edge servers, wireless
links and DNN execution that has not been validated against real hardware.
See perfbench/README.md for what each workload stresses and bypasses.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "out"
EXE = BUILD / "perfbench"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("city", "cache_pressure", "chaos", "replay")
SHARDED = ("city", "cache_pressure", "chaos")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 150
# Fig 9 reference for replay's hit ratio (EXPERIMENTS.md): the paper's
# Geolife hit ratios and the repository's own 2 h Geolife-like run.
FIG9_BAND = ("paper Geolife 43 % (r=50) / 70 % (r=100); "
             "EXPERIMENTS.md Geolife-like r=100 62.6 % (ResNet), "
             "66.8 % (MobileNet)")

# Machine identity: results that differ here are not comparable.
MACHINE_KEYS = ("nproc", "simd_kernel", "fastpath", "compiler", "build_type",
                "threads")


def metric_units(section):
    """{name: unit} of one metric list of BENCHMARK.json, in file order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


END_TO_END_UNITS = metric_units("end_to_end")
PER_LAYER_UNITS = metric_units("per_layer")

# Per-layer metrics a workload's engine cannot produce, and why; they are
# reported as 0.
UNAVAILABLE = {
    "replay": {
        **{name: "the classic engine has no sharded phases"
           for name in ("shard_world.build_s", "shard_sim.run_s",
                        "shard_sim.bucket_s", "shard_sim.phase_a_s",
                        "shard_sim.apply_s", "shard_sim.finish_s",
                        "shard_sim.serial_share")},
        "obs.timeseries_mb": "replay records its timeseries in memory, "
                             "not to a file",
    },
    **{w: {name: "the sharded engine precomputes this into tables at build"
           for name in ("sim.build_world_s", "sim.run_s", "sim.migrate_s",
                        "sim.interval_self_s", "partition.plan_latency_calls",
                        "partition.plans", "partition.shortest_path_s",
                        "upload_order.candidates", "upload_order.rescored",
                        "predictor.predictions",
                        "predictor.abs_error_p50_m")}
       for w in SHARDED},
}

PHASE_RE = re.compile(r"phase timing: bucket=([0-9.]+)s phase_a=([0-9.]+)s "
                      r"apply=([0-9.]+)s finish=([0-9.]+)s")
TRACE_MARKER = "perfbench: traced run begins"


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; raises BenchError on failure."""
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--parallel", "3"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")


def source_identity():
    """Git commit when the tree is a git checkout, plus a digest of the
    sources the benchmark builds, which identifies trees without git."""
    sha = "none"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/**/*"), *HERE.glob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def run_binary(workload, seed, seconds, trace):
    """Runs the C++ binary; returns (records, stderr text, exit code)."""
    env = dict(os.environ)
    for knob in ("PERDNN_NO_FASTPATH", "PERDNN_NO_SIMD", "PERDNN_THREADS",
                 "PERDNN_PHASE_TIMING"):
        env.pop(knob, None)
    if trace:
        env["PERDNN_PHASE_TIMING"] = "1"
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return [], str(e), -1
    sys.stderr.write(proc.stderr)
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            return records, proc.stderr + "\nunparsable line: " + line, -1
    return records, proc.stderr, proc.returncode


# ---------------------------------------------------------------------------
# Output checks.

def check_stats(workload, stats, reference):
    """Returns the list of check failures of one simulation's statistics."""
    errors = []

    def need(cond, what):
        if not cond:
            errors.append(what)

    s = stats
    # Accounting identities SimulationMetrics documents.
    need(s["attached_client_intervals"] + s["unreachable_client_intervals"]
         + s["offline_client_intervals"] == s["active_client_intervals"],
         "attached + unreachable + offline != active client-intervals")
    need(s["hits"] + s["partials"] + s["misses"] == s["server_changes"],
         "hits + partials + misses != server changes")
    # The timeseries must reconcile with the aggregate metrics.
    need(s["ts.rows"] == s["num_intervals"] * s["num_servers"],
         "timeseries rows != intervals x servers")
    for col in ("hits", "partials", "misses", "cold_window_queries"):
        need(s["ts." + col] == s[col], f"timeseries {col} != metrics {col}")
    need(s["ts.uplink_bytes"] == s["total_migrated_bytes"],
         "timeseries uplink != migrated bytes")
    need(s["ts.uplink_bytes"] == s["ts.downlink_bytes"],
         "timeseries uplink != downlink")
    need(s["cold_window_queries"] > 0, "no cold-window queries")
    # Regime: each workload must keep exercising the layers it is for.
    if workload == "city":
        need(s["cache_evictions"] == 0, "city evicted cache entries")
        need(s["migrations_deferred"] == 0, "city deferred migrations")
        need(s["attaches_shed"] == 0 and s["server_failures"] == 0,
             "city shed attaches or failed servers")
    elif workload == "cache_pressure":
        need(s["cache_evictions"] > 0, "cache_pressure had no evictions")
        need(s["cache_partial_stores"] > 0,
             "cache_pressure had no partial stores")
    elif workload == "chaos":
        need(s["migrations_deferred"] > 0, "chaos deferred no migrations")
        need(s["attaches_shed"] > 0, "chaos shed no attaches")
        need(s["server_failures"] > 0, "chaos had no server failures")
    elif workload == "replay":
        need(s["ts.migration_orders"] > 0, "replay issued no migrations")
    # Exact modelled statistics: every simulation of one run must agree,
    # and the default seed must match the committed expectation.
    if reference is not None:
        for key, want in reference.items():
            got = s.get(key)
            if got is None or abs(got - want) > 1e-9 * max(1.0, abs(want)):
                errors.append(f"{key} = {got}, expected {want}")
    return errors


def expected_stats(workload, seed):
    if seed != DEFAULT_SEED or not EXPECTED.exists():
        return None
    data = json.loads(EXPECTED.read_text())
    return data["workloads"].get(workload)


# ---------------------------------------------------------------------------
# Aggregation.

def tail(samples):
    """Highest percentile with at least ten samples beyond it, as (value,
    percentile); the maximum when there are too few samples for that."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * k / max(1, len(xs) - 1)


def end_to_end(reps, setups, peak_rss_bytes):
    stats = reps[0]["stats"]
    intervals = [x for r in reps for x in r["interval_wall_s"]]
    t = tail(intervals)
    hit = stats["hit_ratio"]
    values = {
        "client_intervals_per_s": statistics.median(
            r["client_intervals"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_bytes / 2**20,
        "interval_p50_ms": statistics.median(intervals) * 1e3,
        "interval_tail_ms": t[0] * 1e3,
        "cold_window_queries": stats["cold_window_queries"],
        "miss_ratio": 1.0 - hit,
        "mean_cold_latency_ms":
            stats["cold_latency_sum_s"] / stats["cold_window_queries"] * 1e3,
        "backhaul_gb": stats["total_migrated_bytes"] / 1e9,
        "availability": stats["availability"],
    }
    extra = {
        "interval_samples": len(intervals),
        "interval_tail_percentile": round(t[1], 2),
        "hit_ratio": hit,
        "peak_uplink_mbps": stats["peak_uplink_mbps"],
        "reps": len(reps),
    }
    return values, extra


def per_layer(workload, layers, reps, traced, stderr):
    values = dict(layers)
    unavailable = dict(UNAVAILABLE.get(workload, {}))
    after = stderr.split(TRACE_MARKER, 1)
    match = PHASE_RE.search(after[1]) if len(after) == 2 else None
    if workload in SHARDED:
        if match is None:
            raise BenchError("PERDNN_PHASE_TIMING line missing from the "
                             "traced sharded run")
        bucket, phase_a, apply, finish = map(float, match.groups())
        run_s = values["shard_sim.run_s"]
        values.update({
            "shard_sim.bucket_s": bucket,
            "shard_sim.phase_a_s": phase_a,
            "shard_sim.apply_s": apply,
            "shard_sim.finish_s": finish,
            "shard_sim.serial_share": 1.0 - phase_a / run_s,
        })
    for name in unavailable:
        values.setdefault(name, 0.0)
    untraced = statistics.median(r["client_intervals"] / r["wall_s"]
                                 for r in reps)
    values["trace.overhead_ratio"] = untraced / (
        traced["client_intervals"] / traced["wall_s"])
    missing = set(PER_LAYER_UNITS) - set(values)
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(sorted(missing)))
    return {k: values[k] for k in PER_LAYER_UNITS}, unavailable


# ---------------------------------------------------------------------------

def bench(args):
    OUT.mkdir(parents=True, exist_ok=True)
    records, stderr, code = run_binary(args.workload, args.seed, args.seconds,
                                       args.trace)
    by_kind = {}
    for rec in records:
        by_kind.setdefault(rec["record"], []).append(rec)
    reps = by_kind.get("rep", [])
    setups = [r["wall_s"] for r in by_kind.get("setup", [])]
    attempted = len(reps) + len(setups) + (1 if args.trace else 0)
    failed = 0
    errors = []
    if code != 0:
        failed += 1
        errors.append(f"benchmark binary exited with {code}")
    reference = expected_stats(args.workload, args.seed)
    for i, rep in enumerate(reps):
        rep_errors = check_stats(args.workload, rep["stats"],
                                 reference or reps[0]["stats"])
        if rep_errors:
            failed += 1
            errors += [f"simulation {i}: {e}" for e in rep_errors]
    if not reps or "end" not in by_kind or "fingerprint" not in by_kind:
        failed += 1
        errors.append("benchmark binary output incomplete")

    fingerprint = {**(by_kind.get("fingerprint") or [{}])[0], **source_identity()}
    fingerprint.pop("record", None)
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": int(args.trace),
              "fingerprint": fingerprint, "errors": errors}
    metrics = {}
    if not errors:
        if args.trace:
            untraced = [r for r in reps if r["phase"] == "untraced"]
            traced = [r for r in reps if r["phase"] == "traced"]
            trace_rec = by_kind["trace"][0]
            values, unavailable = per_layer(args.workload, trace_rec["layers"],
                                            untraced, traced[0], stderr)
            units = PER_LAYER_UNITS
            result["unavailable"] = unavailable
            result["chrome_trace"] = trace_rec["chrome_trace"]
        else:
            values, extra = end_to_end(reps, setups,
                                       by_kind["end"][0]["peak_rss_bytes"])
            units = END_TO_END_UNITS
            result.update(extra)
            if args.workload == "replay":
                result["fig9_band"] = FIG9_BAND
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result["metrics"] = metrics

    stem = OUT / f"{args.workload}.seed{args.seed}.trace{int(args.trace)}"
    if args.trace and metrics:
        (OUT / f"{args.workload}.seed{args.seed}.layers.json").write_text(
            json.dumps(metrics, indent=1) + "\n")
    Path(f"{stem}.result.json").write_text(json.dumps(result, indent=1) + "\n")

    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print("note: modelled metrics come from a simulation model that has not "
          "been validated against real hardware")
    for name, m in metrics.items():
        print(f"{args.workload}  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.workload == "replay" and not args.trace and metrics:
        print(f"replay hit ratio {result['hit_ratio']:.4f} "
              f"(Fig 9 band: {FIG9_BAND})")
    for e in errors:
        log("CHECK FAILED: " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not errors else 1


def compare(paths):
    """Prints metric ratios of two result files, refusing to compare results
    whose machine fingerprints differ."""
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    fa = {k: a["fingerprint"].get(k) for k in MACHINE_KEYS}
    fb = {k: b["fingerprint"].get(k) for k in MACHINE_KEYS}
    if fa != fb:
        log("refusing to compare results from different machines or builds:")
        for k in MACHINE_KEYS:
            if fa[k] != fb[k]:
                log(f"  {k}: {fa[k]!r} vs {fb[k]!r}")
        return 3
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        log("refusing to compare different workloads or trace modes")
        return 3
    print(f"{a['workload']}: {a['fingerprint']['git_sha'][:12]} -> "
          f"{b['fingerprint']['git_sha'][:12]}")
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(f"  {name:36s} {m['value']:.6g} -> {other['value']:.6g} "
              f"{m['unit']} (x{ratio:.4f})")
    return 0


def expect():
    """Records the modelled statistics of every workload at the default seed
    into expected.json. Only for a change that alters the model on purpose."""
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        records, _, code = run_binary(workload, DEFAULT_SEED, 0.001, False)
        reps = [r for r in records if r["record"] == "rep"]
        if code != 0 or not reps:
            raise BenchError(f"{workload}: benchmark binary failed")
        data["workloads"][workload] = reps[0]["stats"]
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    log(f"wrote {EXPECTED}")
    return 0


def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare A.result.json B.result.json")
            return 2
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", nargs="?", choices=("expect",))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        if args.mode == "expect":
            return expect()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
