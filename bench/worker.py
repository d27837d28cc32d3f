"""One pass of one workload, in a fresh process, as a command-line user
would run it: import ``lapoly``, compute every answer, check it.

    python3 bench/worker.py --workload NAME --seed N --batch I --trace 0|1 \
        --work-dir DIR --spawn-ns NS

``--batch`` selects which of the seed's input batches this pass runs
(only ``complex-build`` has more than one).

``--spawn-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so set-up time covers interpreter start-up too.
The address-space limit (MEM_LIMIT_MB) is set on this process only,
before ``lapoly`` is imported, so a memory blow-up fails answers instead
of getting the benchmark OOM-killed.  The only line written to standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path

from hostspeed import HostSpeed  # the script's directory is on sys.path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MEM_LIMIT_MB = 2048
CERTIFY_D = 4
BUILD_D = 4
VERIFY_TABLE_MAX_D = 6
HSTAR_EXTRA_D = (9, 10)
# complex-build: complexes per number of k-faces (= points of the
# Laplacian polytope).  Cost grows ~70x from 3 to 12 points and varies by
# ~25% within a count, so the heavy counts get fewer complexes; above 12
# one complex can take minutes.
COMPLEX_STRATA = {3: 6, 4: 6, 5: 6, 6: 6, 7: 6, 8: 6, 9: 4, 10: 4, 11: 2, 12: 2}

# interior-disjointness certificate strength, weakest first (0: none or
# unknown); an answer whose certificate is weaker than the one
# verify_triangulation gave at CERTIFY_D when this benchmark was defined
# fails, so no speed-up can come from checking less
STRENGTH = {"sampled": 1, "full": 2}
SEED_DISJOINTNESS = "full"


class CheckFailed(Exception):
    pass


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference():
    """The reference h*-table, read from the package data file directly."""
    with open(SRC / "lapoly" / "reference_hstar.json", encoding="utf-8") as fh:
        rows = json.load(fh)["rows"]
    return {int(d): tuple(v) for d, v in rows.items()}


def run_cli(lapoly, argv):
    """``lapoly.cli.main`` in process; checks the exit code and returns the
    parsed JSON report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = lapoly.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    check(code == 0, f"lapoly {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def hstar_length(d):
    return d + 2 if d % 2 else d + 1


# ---------------------------------------------------------------------------
# certify / build
# ---------------------------------------------------------------------------


def build_triangulation(lapoly, d, counts):
    """``laplacian_triangulation(d)``, its size counts, and the checks on
    its cells: (d+2)^d distinct d-simplices."""
    tri = lapoly.triangulate.laplacian_triangulation(d)
    counts["triangulate.rss_mb"] = rss_mb()
    counts["triangulate.cells"] = len(tri.cells)
    counts["triangulate.pool_vertices"] = len(tri.vertex_pool)
    n_cells = (d + 2) ** d
    check(len(tri.cells) == n_cells, f"{len(tri.cells)} cells, expected {n_cells}")
    check(len(set(tri.cells)) == n_cells, "repeated cells")
    check(all(len(c) == d + 1 for c in tri.cells), "a cell is not a d-simplex")
    return tri


def answer_certify(lapoly, ref, counts, d):
    tri = build_triangulation(lapoly, d, counts)
    report = lapoly.triangulate.verify_triangulation(tri)
    regular, _ = lapoly.triangulate.is_regular(tri)
    census = lapoly.triangulate.h_vector_of(tri)
    structural = tuple(lapoly.ehrhart.hstar_structural(d))
    counts["triangulate.folds"] = tri.checks["regular"]["folds"]
    strength = tri.checks["verify"]["disjointness"]
    counts["triangulate.disjointness_rank"] = STRENGTH.get(strength, 0)

    volume = (d + 2) ** d
    check(report["ok"] is True, f"verify_triangulation not ok: {report['failures'][:3]}")
    check(report["volume_sum"] == volume and report["carrier_nvol"] == volume,
          "normalized volume is not (d+2)^d")
    check(STRENGTH.get(strength, 0) >= STRENGTH[SEED_DISJOINTNESS],
          f"disjointness certificate {strength!r} is weaker than {SEED_DISJOINTNESS!r}")
    check(regular is True, "is_regular rejected the triangulation")
    length = hstar_length(d)
    check(not any(census[length:]), "census h-vector has a nonzero tail")
    check(tuple(census[:length]) == ref[d], f"census {census} != reference row {d}")
    check(structural == ref[d], f"structural h* {structural} != reference row {d}")
    check(sum(ref[d]) == volume, "reference row does not sum to (d+2)^d")


def answer_build(lapoly, ref, counts, d):
    tri = build_triangulation(lapoly, d, counts)
    regular, _ = lapoly.triangulate.is_regular(tri)
    counts["triangulate.folds"] = tri.checks["regular"]["folds"]
    check(regular is True, "attached heights fail a fold")
    check(tri.checks["regular"]["witness"] == "heights",
          "regularity not certified by the attached heights")


# ---------------------------------------------------------------------------
# hstar-table
# ---------------------------------------------------------------------------


def answer_verify_table(lapoly, ref, counts, max_d):
    report = run_cli(lapoly, ["verify-table", "--max-d", str(max_d)])
    results = report["results"]
    check(results["ok"] is True, "verify-table results.ok is not true")
    check(sorted(results["rows"], key=int) == [str(d) for d in range(1, max_d + 1)],
          "verify-table rows missing")
    for d in range(1, max_d + 1):
        row = results["rows"][str(d)]
        check("oracle_mismatch" not in row, f"d={d}: oracle {row.get('oracle_mismatch')} disagrees")
        check(row["volume_ok"] is True, f"d={d}: volume_ok is not true")
        check(tuple(row["structural"]) == ref[d], f"d={d}: structural != reference")
        check(sum(row["structural"]) == (d + 2) ** d, f"d={d}: volume != (d+2)^d")
        for name, vec in row["oracles"].items():
            check(tuple(vec) == ref[d], f"d={d}: oracle {name} != reference")


def answer_hstar(lapoly, ref, counts, d):
    report = run_cli(lapoly, ["hstar", "--d", str(d)])
    h = report["results"]["hstar"]
    check(len(h) == hstar_length(d), f"d={d}: h* has length {len(h)}")
    check(h[0] == 1 and min(h) >= 0, f"d={d}: h* is not a valid h*-vector")
    check(sum(h) == (d + 2) ** d, f"d={d}: h* does not sum to (d+2)^d")


# ---------------------------------------------------------------------------
# complex-build
# ---------------------------------------------------------------------------


def closure(facets, k):
    """k-faces (position tuples, lexicographic) of the complex."""
    out = set()
    for f in facets:
        out.update(combinations(f, k + 1))
    return sorted(out)


def draw_complexes(seed, batch):
    """Seeded pure complexes: 4-8 vertices, facet dimension 1-3, 2-8
    facets, shuffled vertex order, random Laplacian index k; drawn by
    rejection until each stratum of k-face counts is filled.  Each pass of
    a run draws its own batch."""
    rng = random.Random(f"{seed}/{batch}")
    out = []
    for points, wanted in COMPLEX_STRATA.items():
        filled = 0
        while filled < wanted:
            n = rng.randint(4, 8)
            dim = rng.randint(1, min(3, n - 2))
            candidates = list(combinations(range(1, n + 1), dim + 1))
            facets = rng.sample(candidates, rng.randint(2, min(8, len(candidates))))
            k = rng.randint(0, dim)
            order = list(range(1, n + 1))
            rng.shuffle(order)
            pos = {label: i for i, label in enumerate(order)}
            positions = [tuple(sorted(pos[v] for v in f)) for f in facets]
            if len(closure(positions, k)) != points:
                continue
            out.append({"order": order, "facets": facets, "k": k, "positions": positions})
            filled += 1
    return out


def write_complexes(complexes, work_dir):
    for i, c in enumerate(complexes):
        path = work_dir / f"complex_{i:03d}.txt"
        lines = ["order: " + " ".join(map(str, c["order"]))]
        lines += [" ".join(map(str, f)) for f in c["facets"]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        c["path"] = str(path)


def laplacian_columns(positions, k):
    """Columns of the k-th Laplacian from the definition
    d_{k+1} d_{k+1}^T + d_k^T d_k, faces in lexicographic position order."""
    faces = closure(positions, k)
    upper = closure(positions, k + 1)
    index = {f: i for i, f in enumerate(faces)}
    n = len(faces)
    lap = [[0] * n for _ in range(n)]
    for g in upper:  # d_{k+1} d_{k+1}^T
        signed = [(index[g[:j] + g[j + 1:]], (-1) ** j) for j in range(len(g))]
        for a, sa in signed:
            for b, sb in signed:
                lap[a][b] += sa * sb
    if k > 0:  # d_k^T d_k
        lower = {}
        for i, f in enumerate(faces):
            for j in range(len(f)):
                lower.setdefault(f[:j] + f[j + 1:], []).append((i, (-1) ** j))
        for signed in lower.values():
            for a, sa in signed:
                for b, sb in signed:
                    lap[a][b] += sa * sb
    return [tuple(lap[r][c] for r in range(n)) for c in range(n)]


def solve_exact(rows, rhs_columns):
    """For each right-hand side b, the unique x with rows . x = b (rows has
    full column rank), or None where there is none.  One elimination."""
    cols = len(rows[0])
    m = [[Fraction(v) for v in row] + [Fraction(b[i]) for b in rhs_columns]
         for i, row in enumerate(rows)]
    for c in range(cols):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return [None] * len(rhs_columns)
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for i in range(len(m)):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    out = []
    for j in range(len(rhs_columns)):
        consistent = all(row[cols + j] == 0 for row in m[cols:])
        out.append([m[i][cols + j] for i in range(cols)] if consistent else None)
    return out


def answer_complex(lapoly, ref, counts, c):
    report = run_cli(lapoly, ["build", "--complex", c["path"], "--k", str(c["k"])])
    res = report["results"]
    columns = laplacian_columns(c["positions"], c["k"])
    vertices = [tuple(v) for v in res["vertices"]]
    check(res["ambient_dim"] == len(columns), "ambient dimension is not f_k")
    check(res["vertex_count"] == len(columns) == len(vertices),
          f"{res['vertex_count']} vertices, expected every one of {len(columns)} columns")
    check(sorted(vertices) == sorted(columns), "vertices are not the Laplacian columns")
    for eq in res["affine_hull"]:
        check(all(sum(a * x for a, x in zip(eq["normal"], v)) == eq["offset"] for v in vertices),
              "a vertex is off the affine hull")
    basis = res["reduction"]["basis"]
    base = res["reduction"]["base"]
    dim = res["dim"]
    check(len(basis) == dim, "reduction basis size is not the dimension")
    reduced = []
    if dim:
        transposed = [[row[i] for row in basis] for i in range(len(base))]
        shifted = [[x - b for x, b in zip(v, base)] for v in vertices]
        for coords in solve_exact(transposed, shifted):
            check(coords is not None and all(x.denominator == 1 for x in coords),
                  "a vertex has no integer reduced coordinates")
            reduced.append([int(x) for x in coords])
    check(res["facet_count"] == len(res["facets"]), "facet count mismatch")
    check(dim == 0 or res["facet_count"] >= dim + 1, "too few facets for a polytope")
    for facet in res["facets"]:
        values = [sum(a * x for a, x in zip(facet["normal"], p)) for p in reduced]
        check(all(v <= facet["offset"] for v in values), "a vertex violates a facet")
        check(sum(v == facet["offset"] for v in values) >= dim, "a facet is tight on too few vertices")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def prepare(workload, seed, batch, work_dir):
    """Writes the seeded inputs; returns the pass's answers as (label,
    function of (lapoly, reference table, counts))."""
    if workload == "certify-d4":
        return [("certify", partial(answer_certify, d=CERTIFY_D))]
    if workload == "build-d4":
        return [("build", partial(answer_build, d=BUILD_D))]
    if workload == "hstar-table":
        return [("verify-table", partial(answer_verify_table, max_d=VERIFY_TABLE_MAX_D))] + [
            (f"hstar-{d}", partial(answer_hstar, d=d)) for d in HSTAR_EXTRA_D]
    if workload == "complex-build":
        complexes = draw_complexes(seed, batch)
        write_complexes(complexes, work_dir)
        return [(Path(c["path"]).name, partial(answer_complex, c=c)) for c in complexes]
    raise ValueError(f"unknown workload {workload!r}")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    args = parser.parse_args(argv)
    limit = MEM_LIMIT_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    sys.path.insert(0, str(SRC))
    import lapoly
    import lapoly.cli

    check(Path(lapoly.__file__).resolve().parent == SRC / "lapoly",
          f"imported lapoly from {lapoly.__file__}, not from {SRC}")
    ref = load_reference()
    answers = prepare(args.workload, args.seed, args.batch, Path(args.work_dir))
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9

    speed = HostSpeed()
    tracer = None
    if args.trace:
        from tracing import Tracer  # the script's directory is on sys.path

        tracer = Tracer(clock=speed.clock)
        tracer.install(lapoly)

    counts = {}
    failures = []
    with speed:
        start = time.perf_counter()
        for label, answer in answers:
            try:
                answer(lapoly, ref, counts)
            except Exception as exc:  # every failure is a failed answer; go on
                failures.append({
                    "answer": label,
                    "error": f"{type(exc).__name__}: {exc}"[:300],
                    "where": traceback.format_exc(limit=-2)[-600:],
                    "rss_mb": rss_mb(),
                })
        wall_s = time.perf_counter() - start - speed.inside_s
    calibration_s = speed.seconds
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": calibration_s,
        "attempted": len(answers),
        "failures": failures,
        "rss_mb": rss_mb(),
        "counts": counts,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
