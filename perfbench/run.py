"""capacore benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout; the package is imported from its ``src/`` directory.  A
run sets up its seeded inputs several times (``setup_s`` is the median),
then runs rounds over all pipeline stages until ``--seconds`` is spent and
reports medians.  Times are normalized to a reference machine speed
(speed.py); the raw medians go to the environment line.
Every stage output is checked: a stage that raises (integralize raises when
more than k-1 points stay split), returns FAIL or INFEASIBLE, returns an
empty coreset for a nonempty input, disagrees with the offline coreset
(stream, dist) or does not survive the coreset file round trip counts as
failed.  The result's ``failed`` / ``attempted`` is the failed fraction.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (each stage once per pass); the traced passes wrap
every layer's public functions and give the per-layer metrics, and
``trace.overhead_s`` is the traced minus the untraced pass time.  A traced
run also prints, for its last pass, each stage's raw span time and the
largest self times inside it.

One JSON line describing the environment precedes the result, which is the
last line of standard output.  ``--smoke`` runs every workload once per trace
mode at tiny sizes in a child process and checks that each run emits exactly
the metrics named in BENCHMARK.json with no failed operation.
"""

from __future__ import annotations

import os

# every run is single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import json
import platform
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SMOKE_TIMEOUT_S = 170


def _require_sources():
    if not (SRC / "capacore" / "__init__.py").is_file():
        print(f"perfbench: no capacore sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def _environment(wl_name, args) -> dict:
    import numpy
    from capacore import kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "capacore").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".so"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else "none"
    except OSError:
        commit = "none"
    return {
        "workload": wl_name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        # results with and without the compiled kernel are not comparable
        "kernel": kernels.active_kernel(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(pipe, setup_s) -> dict:
    from workloads import percentile

    def stage(name):
        t = pipe.times[name]
        return median(t) if t else None

    lat, q = pipe.latencies, pipe.quality
    us = 1e6
    return {
        "setup_s": (setup_s, "s"),
        "offline_build_s": (stage("offline"), "s"),
        "stream_build_s": (stage("stream"), "s"),
        "dist_build_s": (stage("dist"), "s"),
        "update_p50_us": (median(lat) * us if lat else None, "us"),
        "update_p90_us": (percentile(lat, 0.9) * us if lat else None, "us"),
        "assign_s": (stage("assign"), "s"),
        "eval_s": (stage("eval"), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "coreset_ratio": (q.get("coreset_ratio"), "ratio"),
        "comm_bytes": (median(pipe.comm) if pipe.comm else None, "bytes"),
        "assign_cost_ratio": (q.get("assign_cost_ratio"), "ratio"),
        "assign_load_ratio": (q.get("assign_load_ratio"), "ratio"),
    }


def layer_metrics(tracer, pipe, untraced_s, traced_s, factor) -> dict:
    """Per-layer metrics of one traced pass; self times scaled by factor."""
    c, g, calls = tracer.counters, pipe.gauges, tracer.calls

    def self_s(*names):
        return tracer.self_s(*names) * factor

    sent = c.get("distributed.bytes_sent", 0)
    processed = calls("streaming.process")
    attempts = g.get("o_attempts", 0)
    S, N, B, X = "s", "count", "bytes", "ratio"
    return {
        "geometry.lattice_of.calls": (calls("geometry.lattice_of"), N),
        "geometry.lattice_of.self_s": (self_s("geometry.lattice_of"), S),
        "hashing.points_hashed": (c.get("hashing.points_hashed", 0), N),
        "hashing.self_s": (self_s("hashing.field_values", "hashing.field_value",
                                  "kernels.poly_eval_batch"), S),
        "estimator.SampleBank.build.calls": (calls("estimator.SampleBank.build"), N),
        "estimator.SampleBank.build.self_s": (self_s("estimator.SampleBank.build"), S),
        "estimator.part_estimates.self_s": (self_s("estimator.part_estimates"), S),
        "partition.mark_cells.calls": (calls("partition.mark_cells"), N),
        "partition.mark_cells.self_s": (self_s("partition.mark_cells"), S),
        "partition.heavy_cells": (g.get("heavy_cells", 0), N),
        "coreset.o_attempts": (attempts, N),
        "coreset.o_accept_ratio": (1.0 / attempts if attempts else 0.0, X),
        "coreset.build_for_o.self_s": (self_s("coreset.build_for_o"), S),
        "coreset.io_s": (self_s("coreset.io"), S),
        "cellstore.update.calls": (calls("cellstore.update"), N),
        "cellstore.update.self_s": (self_s("cellstore.update"), S),
        "cellstore.serialize.bytes": (c.get("cellstore.serialize.bytes", 0), B),
        "cellstore.serialize.self_s": (self_s("cellstore.serialize"), S),
        "cellstore.deserialize.self_s": (self_s("cellstore.deserialize"), S),
        "cellstore.merge_in.self_s": (self_s("cellstore.merge_in"), S),
        "cellstore.finalize.self_s": (self_s("cellstore.finalize"), S),
        "cellstore.distinct_stores": (g.get("distinct_stores", 0), N),
        "cellstore.space_bytes": (g.get("space_bytes", 0), B),
        "streaming.process.calls": (processed, N),
        "streaming.finalize_for_o.calls": (calls("streaming.finalize_for_o"), N),
        "streaming.finalize_for_o.self_s": (self_s("streaming.finalize_for_o"), S),
        "streaming.store_updates_per_update":
            (calls("cellstore.update") / processed if processed else 0.0, X),
        "distributed.machine.self_s": (self_s("distributed.machine"), S),
        "distributed.absorb.self_s": (self_s("distributed.absorb"), S),
        "distributed.comm_bytes_max_machine":
            (c.get("distributed.comm_bytes_max_machine", 0), B),
        "distributed.distinct_blob_ratio":
            (c.get("distributed.distinct_blob_bytes", 0) / sent if sent else 0.0, X),
        "assignment.MinCostFlow.solve.calls": (calls("assignment.MinCostFlow.solve"), N),
        "assignment.MinCostFlow.solve.self_s":
            (self_s("assignment.MinCostFlow.solve"), S),
        "assignment.flow_edges": (c.get("assignment.flow_edges", 0), N),
        "assignment.fractional_assign.self_s":
            (self_s("assignment.fractional_assign"), S),
        "assignment.integralize.self_s": (self_s("assignment.integralize"), S),
        "assignment.switch_ties.self_s": (self_s("assignment.switch_ties"), S),
        "assignment.canonicalize.self_s": (self_s("assignment.canonicalize"), S),
        "assignment.transfer_full.self_s": (self_s("assignment.transfer_full"), S),
        "oracle.exact_cost.calls": (calls("oracle.exact_cost"), N),
        "oracle.exact_cost.self_s": (self_s("oracle.exact_cost"), S),
        "oracle.audit_violation_frac":
            (pipe.quality.get("audit_violation_frac", 0.0), X),
        "oracle.audit_inf_ratios": (pipe.quality.get("audit_inf_ratios", 0), N),
        "trace.untraced_s": (untraced_s, S),
        "trace.traced_s": (traced_s, S),
        "trace.overhead_s": (traced_s - untraced_s, S),
        # stage time spent outside every wrapped layer function
        "trace.outside_layers_s":
            (self_s(*{name for name, _, _ in tracer.spans}), S),
    }


def stage_breakdown(tracer, top: int = 4) -> dict:
    """Per stage of one traced pass: duration and the largest self times."""
    out = {}
    for name, start, end in tracer.spans:
        inner = tracer.by_stage.get(name, {})
        ranked = sorted(((key, rec[2]) for key, rec in inner.items() if key != name),
                        key=lambda kv: -kv[1])
        out[name] = {"span_s": end - start,
                     "outside_layers_s": inner.get(name, [0, 0.0, 0.0])[2],
                     "top_self_s": [[key, val] for key, val in ranked[:top]]}
    return out


def run_traced(pipe, seconds):
    """Alternate untraced and traced passes; median per-layer metrics.

    Returns the metrics and the stage breakdown of the last traced pass.
    """
    from spans import install_layers

    tracer = pipe.tracer
    untraced, passes = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        tracer.reset()
        untraced.append(pipe.one_pass()[0])
        install_layers(tracer)
        try:
            tracer.reset()
            traced, factor = pipe.one_pass()
        finally:
            tracer.uninstall()
        passes.append(layer_metrics(tracer, pipe, median(untraced), traced, factor))
        breakdown = stage_breakdown(tracer)
        now = time.perf_counter()
        # stop when one more pair of passes like the last would overrun
        if 2 * now - start - t0 > seconds:
            break
    out = {name: (median([p[name][0] for p in passes]), unit)
           for name, (_, unit) in passes[0].items()}
    # the overhead compares the medians of both kinds of pass
    out["trace.untraced_s"] = (median(untraced), "s")
    out["trace.overhead_s"] = (out["trace.traced_s"][0] - median(untraced), "s")
    return out, breakdown


def run_workload(args) -> int:
    _require_sources()
    from spans import Tracer
    from speed import SpeedClock
    from workloads import WORKLOADS, Pipeline, timed_setup

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = wl.tiny()
    env = _environment(wl.name, args)
    env["sizes"] = asdict(wl)
    # a traced run samples the kernel only between stages, outside all spans
    clock = SpeedClock(sample_inside=not args.trace)
    inputs, setup_s = timed_setup(wl, args.seed, clock)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        pipe = Pipeline(wl, inputs, args.seed, Path(tmp), Tracer(), clock)
        if args.trace:
            metrics, breakdown = run_traced(pipe, args.seconds)
            print(json.dumps({"perfbench_trace": breakdown}))
        else:
            pipe.measure(args.seconds)
            metrics = end_to_end_metrics(pipe, setup_s)
    missing = sorted(name for name, (value, _) in metrics.items() if value is None)
    env.update(attempted=pipe.attempted, failed=pipe.failed,
               failed_frac=pipe.failed / pipe.attempted,
               audit_violation_frac=pipe.quality.get("audit_violation_frac"),
               audit_inf_ratios=pipe.quality.get("audit_inf_ratios"),
               reps={stage: len(t) for stage, t in pipe.times.items()},
               update_samples=len(pipe.latencies),
               raw_median_s={stage: median(t) for stage, t in pipe.raw_times.items()
                             if t},
               speed_factor_median=median(pipe.factors) if pipe.factors else None,
               unmeasured=missing)
    print(json.dumps({"perfbench_env": env}))
    result = {
        "correct": pipe.failed == 0 and not missing,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   wl["name"], "--seed", "1", "--seconds", "0", "--trace",
                   str(trace), "--tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SMOKE_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                res = json.loads(lines[-1])
                got = set(res["metrics"])
                if got != want[trace]:
                    problems.append(f"metrics missing {sorted(want[trace] - got)} "
                                    f"extra {sorted(got - want[trace])}")
                if res["failed"] or not res["correct"]:
                    problems.append(f"failed {res['failed']}/{res['attempted']}, "
                                    f"correct={res['correct']}")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"smoke {wl['name']} trace={trace}: {status} "
                  f"({time.perf_counter() - t0:.1f} s)")
            bad += bool(problems)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check them")
    args = ap.parse_args(argv)
    if args.smoke:
        _require_sources()
        return run_smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
