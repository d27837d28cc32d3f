"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance is exact (integer equality); runtime-sensitive criteria
additionally assert their stated wall-clock budgets.
"""

import json
import random
import subprocess
import sys
import time
from math import comb

import pytest

from lapoly.cli import load_reference_table
from lapoly.complexes import from_facets
from lapoly.ehrhart import (
    ehrhart_counts,
    hstar_from_counts,
    hstar_simplex_fundamental,
    hstar_structural,
    is_real_rooted,
    is_unimodal,
)
from lapoly.laplacian import (
    interior_polytope_vertices,
    laplacian_polytope,
    reduce_full_dim,
)
from lapoly.polytope import LatticePolytope, combinatorially_equivalent, cyclic_polytope
from lapoly.triangulate import (
    Triangulation,
    h_vector_of,
    is_regular,
    standard_shelling_order,
    verify_shelling,
    verify_triangulation,
)
from oracles import face_census, h_from_f


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def even_facet_families(d):
    n = d
    odd = [1 if k % 2 == 1 else 0 for k in range(1, n + 1)]
    even = [1 if k % 2 == 0 else 0 for k in range(1, n + 1)]
    fams = {(tuple([1] * n), d + 2)}
    for i in range(2, d + 1, 2):
        v = list(odd)
        v[i - 1] -= 1
        fams.add((tuple(v), (d + 2) // 2))
    for j in range(1, d + 1, 2):
        v = list(even)
        v[j - 1] -= 1
        fams.add((tuple(v), (d + 2) // 2))
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if (i + j) % 2:
                v = [0] * n
                v[i - 1] = -1
                v[j - 1] = -1
                fams.add((tuple(v), 0))
    return fams


def test_criterion_1_table_reproduction():
    start = time.time()
    result = subprocess.run(
        [sys.executable, "-m", "lapoly.cli", "verify-table", "--max-d", "8"],
        capture_output=True,
        text=True,
    )
    elapsed = time.time() - start
    ok = result.returncode == 0
    if ok:
        out = json.loads(result.stdout)
        rows = out["results"]["rows"]
        ok = all(rows[str(d)]["match"] is True for d in range(1, 9))
    ok = ok and elapsed <= 600
    announce(1, ok, f"verify-table --max-d 8 exact match in {elapsed:.1f}s")


def test_criterion_2_oracle_triangle(triangulation_cache):
    start = time.time()
    reference = load_reference_table()
    agree = True
    for d in range(1, 5):
        structural = tuple(hstar_structural(d))
        t = triangulation_cache(d)
        # a square of routes: the half-open count on the ridge walk and
        # the face census each read the triangulation their own way
        half_open = h_vector_of(t)
        census = h_from_f(face_census(t))
        length = len(structural)
        poly, _ = reduce_full_dim(d)
        ehrhart = tuple(
            hstar_from_counts(ehrhart_counts(poly), poly.ambient_dim)
        )
        agree = agree and half_open == census and not any(census[length:])
        agree = agree and structural == census[:length] == ehrhart
        agree = agree and structural == reference[d]
    for d in (1, 3, 5, 7, 9):
        poly, _ = reduce_full_dim(d)
        fundamental = tuple(hstar_simplex_fundamental(poly.points))
        agree = agree and fundamental == tuple(hstar_structural(d))
    elapsed = time.time() - start
    announce(
        2,
        agree and elapsed <= 300,
        f"half-open/census/ehrhart/structural identical for d<=4, fundamental "
        f"agrees for odd d<=9 in {elapsed:.1f}s",
    )


def test_criterion_3_normalized_volume(triangulation_cache):
    ok = True
    for d in range(1, 9):
        ok = ok and sum(hstar_structural(d)) == (d + 2) ** d
    for d in range(1, 6):
        ok = ok and triangulation_cache(d).cell_count == (d + 2) ** d
    announce(3, ok, "sum h* = (d+2)^d for d<=8; cell counts match for d<=5")


def test_criterion_4_facet_description():
    ok = True
    for d in (2, 4, 6, 8):
        poly, _ = reduce_full_dim(d)
        got = {(h.normal, h.offset) for h in poly.facets()}
        ok = ok and got == even_facet_families(d)
        ok = ok and len(got) == (d + 2) ** 2 // 4
        graph = poly.facet_ridge_graph()
        ok = ok and graph.is_regular(d)
        ok = ok and graph.edge_count == d * (d + 2) ** 2 // 8
        ok = ok and graph.is_connected()
    announce(4, ok, "even d<=8: four facet families, count (d+2)^2/4, "
                    "d-regular ridge graph with d(d+2)^2/8 edges")


def test_criterion_5_combinatorial_type():
    start = time.time()
    ok = True
    for d in (2, 4, 6, 8):
        poly, _ = reduce_full_dim(d)
        cyc = cyclic_polytope(d, d + 2)
        equivalent, mapping = combinatorially_equivalent(poly, cyc)
        ok = ok and equivalent and mapping is not None
        if equivalent:
            image = {
                frozenset(mapping[v] for v in s)
                for s in poly.facet_vertex_sets()
            }
            ok = ok and image == {frozenset(s) for s in cyc.facet_vertex_sets()}
    elapsed = time.time() - start
    announce(5, ok and elapsed <= 120,
             f"equivalent to cyclic polytopes with witness in {elapsed:.1f}s")


def test_criterion_6_interior_polytope_identities():
    ok = True
    for d in (2, 4, 6, 8):
        poly, _ = reduce_full_dim(d)
        interior = poly.interior_polytope()
        ok = ok and sorted(interior.vertices()) == sorted(
            interior_polytope_vertices(d)
        )
        shifted = interior.translate((-1,) * d)
        ok = ok and shifted.is_reflexive()
        doubled = sorted(
            tuple(2 * (x - 1) for x in v) for v in interior.vertices()
        )
        ok = ok and doubled == sorted(
            tuple(x - 1 for x in v) for v in poly.vertices()
        )
    announce(6, ok, "even d<=8: vertices(Q) formula, Q-1 reflexive, "
                    "2(Q-1) = Ptilde-1")


def test_criterion_7_triangulation_certification(triangulation_cache):
    ok = True
    details = []
    for d in (1, 3, 5, 2, 4, 6):
        tri = triangulation_cache(d)
        report = verify_triangulation(tri)
        regular, heights = is_regular(tri)
        ok = ok and report["ok"] and report["unimodular"] and regular
        ok = ok and heights is not None
        details.append(f"d={d}:{tri.cell_count}")
    # negative control: the classical non-regular triangulation
    points = [(4, 0), (0, 4), (0, 0), (2, 1), (1, 2), (1, 1)]
    cells = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5),
             (0, 3, 5), (3, 4, 5)]
    fixture = Triangulation(points, cells, LatticePolytope(points))
    ok = ok and verify_triangulation(fixture)["ok"]
    regular, _ = is_regular(fixture)
    ok = ok and not regular
    announce(7, ok, "verified + regular for odd d<=5, even d<=6 "
                    f"({', '.join(details)}); non-regular fixture rejected")


def test_criterion_8_hstar_properties():
    ok = True
    for d in (1, 3, 5, 7):
        ok = ok and is_real_rooted(tuple(hstar_structural(d)))
    for d in range(1, 9):
        row = tuple(hstar_structural(d))
        dim = d + 1 if d % 2 else d
        unimodal, peak = is_unimodal(row)
        ok = ok and unimodal and peak == -(-dim // 2)
    # monotone first half of the dilation transform on random symmetric
    # unimodal inputs
    rng = random.Random(1234)
    for _ in range(1000):
        d = rng.randint(1, 12)
        half = sorted(rng.randint(0, 50) for _ in range((d + 2) // 2))
        if (d + 1) % 2:
            b = half + half[-2::-1]
        else:
            b = half + half[::-1]
        assert len(b) == d + 1 and all(b[i] == b[d - i] for i in range(d + 1))
        c = [
            sum(
                comb(d + 1, 2 * i - j) * b[j]
                for j in range(d + 1)
                if 0 <= 2 * i - j <= d + 1
            )
            for i in range(d + 1)
        ]
        half_idx = (d + 1) // 2
        ok = ok and all(c[i] <= c[i + 1] for i in range(half_idx))
    # antisymmetry of the dilation coefficients
    from oracles import dilation_antisymmetry_holds

    for d in range(0, 13):
        for i in range(0, d + 1):
            for k in range(0, d + 1):
                ok = ok and dilation_antisymmetry_holds(d, i, k)
    announce(8, ok, "Sturm real-rootedness odd d<=7, unimodal peaks d<=8, "
                    "1000 monotone-transform inputs, antisymmetry d<=12")


def test_criterion_9_ordering_sensitivity():
    plain = from_facets([{1, 2}, {2, 3}, {3, 4}, {1, 4}], [1, 2, 3, 4])
    swapped = from_facets([{1, 2}, {2, 3}, {3, 4}, {1, 4}], [1, 2, 4, 3])
    dims = (
        laplacian_polytope(plain, 1).dim(),
        laplacian_polytope(swapped, 1).dim(),
    )
    announce(9, dims == (3, 2), f"orderings give dimensions {dims[0]} and {dims[1]}")


def test_criterion_10_shelling_of_even_facets():
    ok = True
    for d in (2, 4, 6, 8):
        poly, _ = reduce_full_dim(d)
        ok = ok and verify_shelling(poly, standard_shelling_order(d))
    announce(10, ok, "even d<=8: the facets in the order F, E_i, O_j, then "
                     "the pair facets, are a shelling")
