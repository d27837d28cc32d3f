"""lapoly benchmark: time to a checked answer, memory, set-up, and a traced
run that breaks the time down by module.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``lapoly`` is imported from ``src/``.
Passes of the workload run one after another, each in a fresh process
(``bench/worker.py``) under an address-space limit, until the next pass
would end after ``--seconds``; at least one pass runs, two when traced.
Time is reported as ``wall_norm``: the pass's time divided by the time of
a fixed reference computation sampled during the pass, because the speed
of a shared virtual machine can drift by tens of percent within seconds.
Every answer is checked against data the code under test did not produce
(the reference table, the (d+2)^d volume identity, the Laplacian computed
from its definition).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  A traced run alternates traced and untraced passes and reports the
difference of their median times as the tracing overhead.  The span
tables of every traced pass go to ``.bench_out/``; progress goes to
standard error.  See ``bench/EXPECTATIONS.md`` for what each workload is
for and which metric should move where.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import MODULES  # the script's directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify-d4", "build-d4", "hstar-table", "complex-build")
TOTAL_LIMIT_S = 170.0

# per-layer metrics from the traced passes: (function, inclusive seconds
# "s" or number of calls "calls")
FUNCTION_METRICS = (
    ("triangulate.laplacian_triangulation", "s"),
    ("triangulate.is_regular", "s"),
    ("triangulate.verify_triangulation", "s"),
    ("triangulate.h_vector_of", "s"),
    ("linalg.det_int", "s"), ("linalg.det_int", "calls"),
    ("linalg.nullspace", "s"), ("linalg.nullspace", "calls"),
    ("linalg.solve", "s"), ("linalg.solve", "calls"),
    ("linalg.hnf", "s"), ("linalg.hnf", "calls"),
    ("linalg.rank", "calls"),
    ("linalg.snf_with_transform", "calls"),
    ("lp.simplices_interior_overlap", "s"), ("lp.simplices_interior_overlap", "calls"),
    ("lp.point_in_hull", "s"), ("lp.point_in_hull", "calls"),
    ("polytope.normalized_volume", "s"),
    ("polytope.lattice_point_count", "s"),
    ("polytope.facets", "s"), ("polytope.facets", "calls"),
    ("polytope.full_dimensional", "s"),
    ("polytope.vertex_indices", "s"),
    ("ehrhart.hstar_structural", "s"),
    ("ehrhart.hstar_simplex_fundamental", "s"),
    ("ehrhart.ehrhart_counts", "s"),
    ("laplacian.laplacian_polytope", "s"),
    ("laplacian.reduce_full_dim", "s"),
    ("complexes.read_complex_file", "s"),
)
# counts taken by the benchmark around its own calls, and gauges sampled by
# the tracer: (name, unit)
COUNT_METRICS = (
    ("triangulate.cells", "count"),
    ("triangulate.pool_vertices", "count"),
    ("triangulate.folds", "count"),
    ("triangulate.disjointness_rank", "count"),
    ("triangulate.rss_mb", "MB"),
)
GAUGE_METRICS = (
    ("polytope.box_candidates", "count"),
    ("ehrhart.hstar_structural.rss_mb", "MB"),
)
# work counts that must repeat exactly from pass to pass
EXACT = (
    "triangulate.cells", "triangulate.folds", "linalg.det_int.calls",
    "linalg.nullspace.calls", "lp.point_in_hull.calls", "polytope.box_candidates",
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_pass(args, traced, batch, work_root, deadline):
    """One worker process; returns its result dict, or None if it failed."""
    work_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=work_root))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("LAPOLY_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--batch", str(batch), "--trace", str(int(traced)),
           "--work-dir", str(work_dir)]
    try:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd + ["--spawn-ns", str(spawn_ns)],
                                stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"pass timed out (traced={traced})")
            return None
        except BaseException:  # interrupted: leave no worker behind
            proc.kill()
            proc.wait()
            raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"worker exited with {proc.returncode} (traced={traced})")
        return None
    result = json.loads(lines[-1])
    result["traced"] = traced
    return result


def summary(values, unit):
    """Counts repeat exactly (the caller checks), so the first pass gives
    them; any other quantity is the median over passes."""
    return {"value": values[0] if unit == "count" else statistics.median(values), "unit": unit}


def layer_metrics(traced, untraced):
    """Per-layer metrics from the traced passes."""
    metrics = {}
    for name, key in FUNCTION_METRICS:
        unit = "s" if key == "s" else "count"
        values = [r["trace"]["functions"].get(name, {}).get(key, 0) for r in traced]
        metrics[f"{name}.{key}"] = summary(values, unit)
    for module in MODULES:
        metrics[f"{module}.self_s"] = summary([r["trace"]["self_s"][module] for r in traced], "s")
    for name, unit in COUNT_METRICS:
        metrics[name] = summary([r["counts"].get(name, 0) for r in traced], unit)
    for name, unit in GAUGE_METRICS:
        metrics[name] = summary([r["trace"]["gauges"].get(name, 0) for r in traced], unit)
    metrics["bench.self_s"] = summary([r["wall_s"] - r["trace"]["top_s"] for r in traced], "s")
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    # the overhead compares host-speed-normalised times, converted back to
    # seconds at the run's median host speed
    calibration = statistics.median(r["calibration_s"] for r in traced + untraced)
    overhead = (statistics.median(wall_norm(r) for r in traced)
                - statistics.median(wall_norm(r) for r in untraced)) * calibration
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def wall_norm(result):
    return result["wall_s"] / result["calibration_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "lapoly" / "__init__.py").is_file():
        log(f"error: no lapoly package under {ROOT / 'src'}; run from a checkout")
        return 2

    start = time.monotonic()
    deadline = start + TOTAL_LIMIT_S
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    results = []
    failed_passes = 0
    while True:
        # a traced run alternates traced and untraced passes over the first
        # batch, so that work counts repeat and the overhead compares like
        # with like; an untraced run gives every pass its own batch
        traced = bool(args.trace) and len(results) % 2 == 0
        batch = 0 if args.trace else len(results)
        t0 = time.monotonic()
        result = run_pass(args, traced, batch, work_root, deadline)
        pass_s = time.monotonic() - t0
        if result is None:
            failed_passes += 1
            break
        results.append(result)
        log(f"{args.workload} pass {len(results)}{' traced' if traced else ''}: "
            f"wall {result['wall_s']:.3f} s (norm {wall_norm(result):.1f}), "
            f"setup {result['setup_s']:.3f} s, "
            f"{len(result['failures'])}/{result['attempted']} failed")
        for failure in result["failures"]:
            log(f"  FAILED {failure['answer']}: {failure['error']} "
                f"(rss {failure['rss_mb']:.0f} MB)\n{failure['where']}")
        minimum = 2 if args.trace else 1
        if len(results) >= minimum and time.monotonic() + pass_s > start + args.seconds:
            break
        if time.monotonic() + pass_s > deadline:
            break
    try:
        work_root.rmdir()
    except OSError:
        pass

    per_pass = results[0]["attempted"] if results else 1
    attempted = sum(r["attempted"] for r in results) + failed_passes * per_pass
    failed = sum(len(r["failures"]) for r in results) + failed_passes * per_pass
    correct = failed == 0 and bool(results)
    if not results:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1

    if args.trace:
        traced = [r for r in results if r["traced"]]
        untraced = [r for r in results if not r["traced"]] or traced
        counts = [{name: m[name]["value"] for name in EXACT}
                  for m in (layer_metrics([r], [r]) for r in traced)]
        for c in counts[1:]:
            if c != counts[0]:
                log(f"error: work counts differ between passes: {counts[0]} vs {c}")
                correct = False
        log("work counts: " + json.dumps(counts[0], sort_keys=True))
        metrics = layer_metrics(traced, untraced)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "passes": [{"wall_s": r["wall_s"], "counts": r["counts"], **r["trace"]}
                        for r in traced]}, indent=1), encoding="utf-8")
        log(f"span tables: {trace_file}")
    else:
        log(f"  raw wall_s median {statistics.median(r['wall_s'] for r in results):.6g} s")
        metrics = {
            "wall_norm": {"value": statistics.median(wall_norm(r) for r in results),
                          "unit": "ratio"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in results), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                "unit": "MB"},
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        log(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")
        return 1
    for name, m in metrics.items():
        log(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    log(f"{len(results)} passes, {attempted} answers, {failed} failed")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
