"""Command-line interface: build polytopes, compute h*, verify the table.

Exit codes: 0 ok, 1 mathematical mismatch, 2 input error, 3 budget error.
Reports are one JSON line on stdout with deterministic result fields;
budgets are flags (--budget-points, --budget-cells) with environment
fallbacks LAPOLY_BUDGET_POINTS / LAPOLY_BUDGET_CELLS.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

# the built-in sha256, as `random` takes sha512: `hashlib` loads OpenSSL
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .budgets import BudgetError, cell_budget, parse_budget, point_budget
from .complexes import boundary_of_simplex, read_complex_file
from .ehrhart import (
    ehrhart_counts,
    hstar_dilate,
    hstar_from_counts,
    hstar_length,
    hstar_simplex_fundamental,
    hstar_structural,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
)
from .laplacian import (
    LaplacianOrderingError,
    laplacian_polytope,
    reduce_full_dim,
)
from .triangulate import (
    h_vector_of,
    interior_polytope_triangulation,
    laplacian_triangulation,
    verify_triangulation,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

# every failure a subcommand reports: (exception classes, exit code, stderr
# prefix); no class here is a subclass of another, so the order is free
FAILURES = (
    ((BudgetError,), EXIT_BUDGET, "budget exhausted"),
    ((AssertionError, LaplacianOrderingError), EXIT_MISMATCH, "mismatch"),
    ((ValueError, IndexError, OSError), EXIT_INPUT, "error"),
)
HANDLED = tuple(c for classes, _, _ in FAILURES for c in classes)

# largest d on which verify-table runs the triangulation and Ehrhart
# oracles, so the full run stays in budget
VERIFY_ORACLE_MAX_D = 4


def _digest(payload):
    return sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _report(command, inputs, results, timings, budgets):
    return {
        "command": command,
        "inputs": {"digest": _digest(inputs), **inputs},
        "results": results,
        "timings": timings,
        "budget": budgets,
    }


def _emit(report):
    sys.stdout.write(json.dumps(report) + "\n")


def _fail(exc, where=""):
    """Print `exc` on stderr after `where` and its class's prefix
    (`FAILURES`); return its class's exit code."""
    for classes, code, prefix in FAILURES:
        if isinstance(exc, classes):
            print(f"{where}{prefix}: {exc}", file=sys.stderr)
            return code


def load_reference_table(path=None):
    """The reference h*-vectors, keyed by integer d; by default the
    packaged table, read as a plain file beside this module."""
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "reference_hstar.json")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, dict) or not all(
        k.isdecimal() and isinstance(v, list) and all(type(x) is int for x in v)
        for k, v in rows.items()
    ):
        raise ValueError('"rows" must map decimal d to lists of integers')
    return {int(k): tuple(v) for k, v in rows.items()}


def hstar_by_method(d, method, points_budget=None, cells_budget=None):
    """h*-vector of the reduced Laplacian polytope by the chosen method."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if method == "structural":
        return hstar_structural(d)
    if method == "triangulation":
        # a unimodular triangulation T of a lattice polytope has h(T) = h*
        # (Betke and McMullen 1985), with h_(dim+1) = 0 as T is a ball.
        # Odd d triangulates P; even d triangulates the interior polytope
        # Q by its cone, ((d+2)/2)^d cells, and P = 2Q - (1, ..., 1) is
        # checked, so h*(P) = h*(2Q) = hstar_dilate(h*(Q), d, 2).
        if d % 2:
            tri = laplacian_triangulation(d, budget=cells_budget)
        else:
            tri = interior_polytope_triangulation(d, budget=cells_budget)
            doubled = [tuple(2 * x - 1 for x in p) for p in tri.carrier.points]
            if sorted(doubled) != sorted(reduce_full_dim(d)[0].points):
                raise AssertionError("polytope is not 2Q - (1, ..., 1)")
        proof = verify_triangulation(tri)
        if not (proof["ok"] and proof["unimodular"]):
            raise AssertionError("triangulation is not verified unimodular")
        h = h_vector_of(tri)
        if h[-1]:
            raise AssertionError("triangulation h-vector has nonzero tail")
        return h[:-1] if d % 2 else hstar_dilate(h[:-1], d, 2)
    if method == "fundamental":
        if d % 2 == 0:
            raise ValueError(
                "the fundamental-parallelepiped method needs a simplex "
                "(odd d only)"
            )
        poly, _ = reduce_full_dim(d)
        return hstar_simplex_fundamental(poly.points, budget=points_budget)
    if method == "ehrhart":
        poly, _ = reduce_full_dim(d)
        counts = ehrhart_counts(poly, budget=points_budget)
        return hstar_from_counts(counts, poly.ambient_dim)
    raise ValueError(f"unknown method {method!r}")


def cmd_build(args):
    t0 = time.time()
    if (args.boundary_simplex is None) == (args.complex is None):
        print("error: give exactly one of --boundary-simplex or --complex",
              file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.boundary_simplex is not None:
            c = boundary_of_simplex(args.boundary_simplex)
            source = {"boundary_simplex": args.boundary_simplex}
        else:
            c = read_complex_file(args.complex)
            source = {"complex_file": args.complex}
        poly = laplacian_polytope(c, args.k)
        dim, equations = poly.affine_hull()
        # without a zero column, column j of a Laplacian is the unique
        # maximiser of coordinate j, so the lexicographic seeds of
        # `vertex_indices` already hold every point; the reduced copy
        # inherits the answer
        vertices = poly.vertices()
        reduced, basis, base = poly.full_dimensional()
        results = {
            "ambient_dim": poly.ambient_dim,
            "dim": dim,
            "vertices": [list(p) for p in vertices],
            "vertex_count": len(vertices),
            "affine_hull": [
                {"normal": list(n), "offset": b} for n, b in equations
            ],
            "reduction": {
                "basis": [list(row) for row in basis],
                "base": list(base),
            },
            "facets": [
                {"normal": list(h.normal), "offset": h.offset}
                for h in (reduced.facets() if dim > 0 else [])
            ],
            "facet_count": len(reduced.facets()) if dim > 0 else 0,
        }
    except HANDLED as exc:
        return _fail(exc)
    inputs = {**source, "k": args.k}
    _emit(_report("build", inputs, results,
                  {"seconds": round(time.time() - t0, 3)},
                  _budget_block(args)))
    return EXIT_OK


def cmd_hstar(args):
    t0 = time.time()
    try:
        h = hstar_by_method(
            args.d, args.method,
            points_budget=args.budget_points, cells_budget=args.budget_cells,
        )
    except HANDLED as exc:
        return _fail(exc)
    uni, peak = is_unimodal(h)
    dim = hstar_length(args.d) - 1
    results = {
        "d": args.d,
        "method": args.method,
        "hstar": list(h),
        "volume": sum(h),
        "unimodal": uni,
        "peak": peak,
        "palindromic": is_palindromic(h, dim),
        "real_rooted": is_real_rooted(h),
    }
    _emit(_report("hstar", {"d": args.d, "method": args.method}, results,
                  {"seconds": round(time.time() - t0, 3)},
                  _budget_block(args)))
    return EXIT_OK


def cmd_verify_table(args):
    t0 = time.time()
    try:
        table = load_reference_table(args.table)
    except (OSError, ValueError) as exc:
        return _fail(ValueError(f"cannot load table: {exc}"))
    if args.max_d < 1:
        print("error: --max-d must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    rows = {}
    all_ok = True
    for d in range(1, args.max_d + 1):
        try:
            entry = _verify_row(d, table.get(d), args)
        except HANDLED as exc:
            return _fail(exc, f"d={d}: FAIL: ")
        row_ok = (
            entry["match"] is not False
            and "oracle_mismatch" not in entry
            and entry["volume_ok"]
        )
        all_ok = all_ok and row_ok
        rows[str(d)] = entry
        print(f"d={d}: {'pass' if row_ok else 'FAIL'}", file=sys.stderr)
    results = {"rows": rows, "ok": all_ok}
    _emit(_report("verify-table", {"max_d": args.max_d, "table": args.table},
                  results, {"seconds": round(time.time() - t0, 3)},
                  _budget_block(args)))
    return EXIT_OK if all_ok else EXIT_MISMATCH


def _verify_row(d, reference, args):
    """One verify-table row: structural h*, the reference and the oracles."""
    structural = hstar_by_method(d, "structural")
    entry = {"structural": list(structural), "oracles": {}}
    if reference is not None:
        entry["reference"] = list(reference)
        entry["match"] = structural == reference
        if not entry["match"]:
            entry["diff"] = [
                {"index": i, "computed": a, "reference": b}
                for i, (a, b) in enumerate(zip(structural, reference))
                if a != b
            ]
    else:
        entry["match"] = None
    if d <= VERIFY_ORACLE_MAX_D:
        entry["oracles"]["triangulation"] = list(
            hstar_by_method(d, "triangulation", cells_budget=args.budget_cells)
        )
        entry["oracles"]["ehrhart"] = list(
            hstar_by_method(d, "ehrhart", points_budget=args.budget_points)
        )
    if d % 2:
        entry["oracles"]["fundamental"] = list(
            hstar_by_method(d, "fundamental", points_budget=args.budget_points)
        )
    for name, vec in entry["oracles"].items():
        if tuple(vec) != tuple(structural):
            entry["oracle_mismatch"] = name
    entry["volume_ok"] = sum(structural) == (d + 2) ** d
    return entry


def _budget_block(args):
    return {"points": args.budget_points, "cells": args.budget_cells}


def _budget(text):
    """A budget flag's value: a non-negative integer."""
    try:
        return parse_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser():
    """The argument parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="lapoly",
        description="Laplacian polytopes: exact facets, triangulations and "
        "h*-vectors.",
    )
    parser.add_argument("--budget-points", type=_budget, default=None,
                        help="budget for box-scan candidates, parallelepiped "
                        "points and parallelepiped residue-DP states")
    parser.add_argument("--budget-cells", type=_budget, default=None,
                        help="cell budget for materialized triangulations")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="Laplacian polytope of a complex")
    p_build.add_argument("--boundary-simplex", type=int, default=None,
                         metavar="D", help="use the boundary of the D-simplex")
    p_build.add_argument("--complex", type=str, default=None, metavar="FILE",
                         help="complex file (order: line plus one facet per line)")
    p_build.add_argument("--k", type=int, required=True,
                         help="Laplacian index")
    p_build.set_defaults(func=cmd_build)

    p_hstar = sub.add_parser("hstar", help="h*-vector of the reduced polytope")
    p_hstar.add_argument("--d", type=int, required=True)
    p_hstar.add_argument("--method", default="structural",
                         choices=["structural", "triangulation", "fundamental",
                                  "ehrhart"])
    p_hstar.set_defaults(func=cmd_hstar)

    p_verify = sub.add_parser("verify-table",
                              help="compare against the reference table")
    p_verify.add_argument("--max-d", type=int, required=True)
    p_verify.add_argument("--table", type=str, default=None,
                          help="alternative reference table (JSON)")
    p_verify.set_defaults(func=cmd_verify_table)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # resolve the environment fallbacks once, so that a bad value is an
    # input error before any subcommand starts
    try:
        args.budget_points = point_budget(args.budget_points)
        args.budget_cells = cell_budget(args.budget_cells)
    except ValueError as exc:
        return _fail(exc)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
