import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import lapoly.triangulate as triangulate
from lapoly import lp
from lapoly.budgets import BudgetError
from lapoly.cli import hstar_by_method, load_reference_table
from lapoly.complexes import from_facets
from lapoly.laplacian import interior_polytope_vertices, reduce_full_dim
from lapoly.linalg import det_int, solve_int
from lapoly.polytope import LatticePolytope, gale_evenness_sets
from lapoly.triangulate import (
    Triangulation,
    alcove_height,
    h_vector_of,
    interior_facets,
    interior_polytope_triangulation,
    is_regular,
    laplacian_triangulation,
    standard_shelling_order,
    verify_shelling,
    verify_triangulation,
)
from lapoly.triangulate import _half_open_h, _RidgeWalk, _ridge_pass, _walk_of
from oracles import (covector_fold_values, f_from_h, face_census, fan_cells, f_vector,
                     h_from_f, nullspace, point_in_hull, primitive_vector, simplex_det,
                     ub_form)
from test_linalg import simplices_interior_overlap, solve


def standard_simplex(m):
    pts = [tuple(0 for _ in range(m))]
    pts += [tuple(1 if k == i else 0 for k in range(m)) for i in range(m)]
    return pts


def edgewise_of_dilated(points, r):
    """The r-th edgewise subdivision of a simplex given as r times a
    unimodular one, placed by the construction kernel, with the alcove
    heights of its keys; ValueError off the lattice."""
    n = len(points)
    keys, pool = {}, []
    cells = triangulate._subdivide(triangulate._edgewise_template(r, n), points,
                                   range(n), r, keys, pool)
    return Triangulation(pool, cells, LatticePolytope(points),
                         heights=[alcove_height(key, n) for key in keys])


def edgewise_of_standard(m, r):
    """The r-th edgewise subdivision of r times the standard m-simplex."""
    return edgewise_of_dilated(
        [tuple(r * x for x in p) for p in standard_simplex(m)], r
    )


def cell_points(t, cell):
    return [t.vertex_pool[i] for i in cell]


def oracle_ridges(cells):
    """Ridge index: every codimension-1 face (a cell minus one vertex, in
    the cell's vertex order) mapped to the (cell index, dropped position)
    pairs of the cells that contain it."""
    ridge_map = {}
    for ci, cell in enumerate(cells):
        for drop in range(len(cell)):
            ridge_map.setdefault(cell[:drop] + cell[drop + 1 :], []).append((ci, drop))
    return ridge_map


def oracle_fold_data(cells):
    """The folds (ca, da, cb, db) from the full ridge index, in the order
    their ridges first occur, which is sorted order."""
    folds = []
    for incident in oracle_ridges(cells).values():
        if len(incident) > 2:
            raise ValueError("three cells share a ridge; not a triangulation")
        if len(incident) == 2:
            (ca, da), (cb, db) = incident
            folds.append((ca, da, cb, db))
    return folds


def walk_fold_values(pool, cells, heights):
    """(folds, values): the folds (ca, da, cb, db) of one `_RidgeWalk` over
    the cells and, per height vector in `heights`, its fold values aligned
    with them.  ValueError where three cells share a ridge or a cell is
    degenerate."""
    walk = _RidgeWalk(pool, cells)
    walk.require_triangulation()
    return walk.folds(), [walk.fold_values(h) for h in heights]


def oracle_fold_values(t, heights):
    """Fold values from one exact Fraction `solve` per fold: the affine
    coordinates of the opposite vertex in its cell, dotted with the
    heights.  Aligned with `oracle_fold_data`."""
    dim = len(t.vertex_pool[0])
    values = []
    for ca, _, cb, db in oracle_fold_data(t.cells):
        cell = t.cells[ca]
        vb = t.cells[cb][db]
        lam = solve(
            [[t.vertex_pool[i][k] for i in cell] for k in range(dim)] + [[1] * len(cell)],
            [*t.vertex_pool[vb], 1],
        )
        assert lam is not None, "fold vertex outside the cell's affine hull"
        values.append(
            Fraction(heights[vb]) - sum(c * heights[i] for c, i in zip(lam, cell))
        )
    return values


def oracle_fold_coordinates(pool, cells, folds):
    """Affine coordinates of every fold's opposite vertex in its cell, from
    one fraction-free solve per cell: `solve_int` on the homogeneous matrix
    [v_i; 1] with every opposite vertex of the cell's folds as a right-hand
    side.  Integers on unimodular cells, Fractions over the determinant
    otherwise."""
    dim = len(pool[0])
    by_cell = {}
    for k, (ca, _, _, _) in enumerate(folds):
        by_cell.setdefault(ca, []).append(k)
    coords = [None] * len(folds)
    for ca, ks in by_cell.items():
        cell = cells[ca]
        rows = [[pool[i][c] for i in cell] for c in range(dim)]
        rows.append([1] * len(cell))
        rhs = [[*pool[cells[folds[k][2]][folds[k][3]]], 1] for k in ks]
        det, sols = solve_int(rows, rhs)
        if not det:
            raise ValueError("degenerate cell in fold computation")
        for k, lam in zip(ks, sols):
            if det in (1, -1):
                coords[k] = [det * x for x in lam]
            else:
                coords[k] = [Fraction(x, det) for x in lam]
    return coords


def folds_strict(t):
    return all(v > 0 for v in oracle_fold_values(t, t.heights))


# -- edgewise subdivisions ---------------------------------------------------


@pytest.mark.parametrize("m,r", [(1, 2), (2, 3), (2, 5), (3, 2), (3, 4),
                                 (4, 2), (4, 3), (5, 2)])
def test_esd_cell_count_and_validity(m, r):
    t = edgewise_of_standard(m, r)
    assert t.cell_count == r**m
    report = verify_triangulation(t)
    assert report["ok"] and report["unimodular"]
    # attached heights certify regularity without any LP search
    assert folds_strict(t)
    ok, heights = is_regular(t)
    assert ok and heights is not None


def test_esd_figure_case():
    t = edgewise_of_standard(2, 3)
    assert t.cell_count == 9
    assert verify_triangulation(t)["volume_sum"] == 9
    assert len(t.vertex_pool) == 10


def test_esd_segment():
    t = edgewise_of_standard(1, 2)
    assert t.cell_count == 2
    assert sorted(t.vertex_pool) == [(0,), (1,), (2,)]


def test_esd_translated_dilated_input():
    # a shifted dilated simplex subdivides the same way
    pts = [(-2, -2), (1, -2), (-2, 1)]  # 3 * Delta_2 - (2,2)
    t = edgewise_of_dilated(pts, 3)
    assert t.cell_count == 9
    assert verify_triangulation(t)["ok"]


def oracle_alcove_height(mu):
    """The alcove height by its definition, in O(m^2): the squares of all
    proper prefix sums of mu and of all their pairwise differences."""
    t = []
    acc = 0
    for x in mu[:-1]:
        acc += x
        t.append(acc)
    total = sum(v * v for v in t)
    for k in range(len(t)):
        for l in range(k + 1, len(t)):
            total += (t[l] - t[k]) ** 2
    return total


def positions_of(mu):
    return [i for i, x in enumerate(mu) for _ in range(x)]


def test_alcove_height_closed_form_random():
    rng = random.Random(20001018)
    for _ in range(10_000):
        m = rng.randint(1, 9)
        mu = [rng.randint(0, 4) for _ in range(m)]
        assert triangulate.alcove_height(positions_of(mu), m) == oracle_alcove_height(mu)


def test_alcove_height_closed_form_pairs():
    # e_a + e_b over m coordinates: every vertex of a second edgewise
    # subdivision, the refinement's case
    for m in range(1, 13):
        for a in range(m):
            for b in range(a, m):
                mu = [0] * m
                mu[a] += 1
                mu[b] += 1
                assert triangulate.alcove_height([a, b], m) == oracle_alcove_height(mu)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_edgewise_template_counts(r, n):
    vertices, cells = triangulate._edgewise_template(r, n)
    assert len(vertices) == math.comb(r + n - 1, n - 1) == len(set(vertices))
    assert all(len(v) == r and list(v) == sorted(v) for v in vertices)
    assert len(cells) == r ** (n - 1) == len({frozenset(c) for c in cells})
    assert all(len(c) == n == len(set(c)) for c in cells)
    # numbered in order of first appearance over the cells
    assert list(dict.fromkeys(i for c in cells for i in c)) == list(range(len(vertices)))


def test_edgewise_template_golden_hash():
    # sha256 of the templates for r, n = 1..5: pins the vertex numbering
    # and the cell order, also for (r, n) that no construction reaches
    text = repr([triangulate._edgewise_template(r, n)
                 for r in range(1, 6) for n in range(1, 6)])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "50a3a588aa242878"


def test_edgewise_of_dilated_rejects_off_lattice_points():
    with pytest.raises(ValueError, match="r-fold dilation"):
        edgewise_of_dilated([(0, 0), (3, 0), (0, 2)], 3)


def shift_interior_vertex(monkeypatch):
    real = triangulate.interior_polytope_vertices

    def shifted(d):
        cs = list(real(d))
        cs[0] = (cs[0][0] + 1,) + tuple(cs[0][1:])
        return cs

    monkeypatch.setattr(triangulate, "interior_polytope_vertices", shifted)


def test_interior_factor_off_lattice_is_a_construction_bug(monkeypatch):
    # at d = 2 every facet factor is a single vertex, so the first even d
    # whose factors can fail the lattice check is d = 4
    shift_interior_vertex(monkeypatch)
    for build in (laplacian_triangulation, interior_polytope_triangulation):
        with pytest.raises(AssertionError, match="r-fold dilation"):
            build(4)


@pytest.mark.parametrize("build,d", [
    (laplacian_triangulation, 3),
    (interior_polytope_triangulation, 4),
    (laplacian_triangulation, 4),
], ids=["odd", "interior-cone", "refinement"])
def test_colliding_edgewise_points_are_a_construction_bug(build, d, monkeypatch):
    # the second point a construction places lands on its first one
    if build is laplacian_triangulation and d % 2 == 0:
        # collide in the refinement only: its cone is built unpatched
        cone = triangulate._interior_cone(d)
        monkeypatch.setattr(triangulate, "_interior_cone", lambda d: cone)
    real = triangulate._edgewise_point
    placed = []

    def colliding(verts, key, r):
        placed.append(real(verts, key, r))
        return placed[0] if len(placed) == 2 else placed[-1]

    monkeypatch.setattr(triangulate, "_edgewise_point", colliding)
    with pytest.raises(AssertionError, match="two edgewise multisets share a point"):
        build(d)
    assert len(placed) > 2


# -- facet join partitions -----------------------------------------------------


def test_facet_join_partition_appendix_data():
    facets = interior_facets(4)
    # F omits labels {1, 2}
    assert facets[0] == ((3, 5), (4, 6))
    # E_2 omits {1, 4}: label i+2 = 4 in the even factor
    assert facets[1] == ((3, 5), (2, 6))
    # O_1 omits {2, 3}: label j+2 = 3 in the odd factor
    assert facets[3] == ((1, 5), (4, 6))
    # pair facets omit {i+2, j+2}, one label in each factor
    assert facets[5] == ((1, 5), (2, 6))
    assert facets[7] == ((1, 3), (2, 6))


def test_facet_join_partition_structure():
    for d in (2, 4, 6, 8):
        facets = interior_facets(d)
        assert len(facets) == (d // 2 + 1) ** 2
        for v1, v2 in facets:
            assert len(v1) == d // 2 and len(v2) == d // 2
            assert all(l % 2 == 1 for l in v1)
            assert all(l % 2 == 0 for l in v2)
            # the two factors span the facet's vertex set
            labels = set(v1) | set(v2)
            assert len(labels) == d


def test_facet_join_partition_d2_singletons():
    for v1, v2 in interior_facets(2):
        assert len(v1) == 1 and len(v2) == 1


def test_facet_join_partition_errors():
    for d in (-2, 0, 1, 3):
        with pytest.raises(ValueError):
            interior_facets(d)


def test_partition_matches_computed_facets():
    # the declared vertex sets coincide with the exact H-representations of
    # the interior polytope and of the reduced polytope, and with Gale's
    # evenness condition for C(d, d+2)
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        q = LatticePolytope(interior_polytope_vertices(d))
        declared = {frozenset(l - 1 for l in v1 + v2) for v1, v2 in interior_facets(d)}
        assert len(declared) == (d // 2 + 1) ** 2
        assert {frozenset(s) for s in q.facet_vertex_sets()} == declared
        assert {frozenset(s) for s in p.facet_vertex_sets()} == declared
        assert {frozenset(s) for s in gale_evenness_sets(d, d + 2)} == declared


# -- gluing consistency ---------------------------------------------------------


def test_facet_triangulations_agree_on_intersections():
    # restriction of two facet triangulations to the common face must
    # coincide cell-for-cell
    d = 4
    from lapoly.triangulate import _interior_boundary_triangulation

    points, _, cells = _interior_boundary_triangulation(d)
    q = LatticePolytope(interior_polytope_vertices(d))
    halfspaces = q.facets()

    def on_facet(h):
        return frozenset(
            i for i, p in enumerate(points) if h.value(p) == h.offset
        )

    per_facet = []
    for h in halfspaces:
        members = on_facet(h)
        per_facet.append(
            (members, [c for c in cells if set(c) <= members])
        )
    for a in range(len(per_facet)):
        for b in range(a + 1, len(per_facet)):
            common = per_facet[a][0] & per_facet[b][0]
            if not common:
                continue
            restrict_a = {
                frozenset(c) & common for c in per_facet[a][1]
            }
            restrict_b = {
                frozenset(c) & common for c in per_facet[b][1]
            }
            maximal_a = {
                s for s in restrict_a
                if not any(s < t for t in restrict_a)
            }
            maximal_b = {
                s for s in restrict_b
                if not any(s < t for t in restrict_b)
            }
            assert maximal_a == maximal_b


# -- the main construction -------------------------------------------------------


def test_laplacian_triangulation_small(triangulation_cache):
    t1 = triangulation_cache(1)
    assert t1.cell_count == 3
    t2 = triangulation_cache(2)
    assert t2.cell_count == 16
    t3 = triangulation_cache(3)
    assert t3.cell_count == 125
    for t in (t1, t2, t3):
        report = verify_triangulation(t)
        assert report["ok"] and report["unimodular"]
        assert folds_strict(t)


def test_interior_triangulation_d2():
    q2 = interior_polytope_triangulation(2)
    assert q2.cell_count == 4
    assert verify_triangulation(q2)["ok"]
    h = h_vector_of(q2)
    assert h[:3] == (1, 2, 1)


def test_laplacian_triangulation_census_rows(triangulation_cache):
    assert h_vector_of(triangulation_cache(1))[:3] == (1, 2, 0)
    assert h_vector_of(triangulation_cache(2))[:3] == (1, 10, 5)
    assert h_vector_of(triangulation_cache(3))[:5] == (1, 22, 78, 24, 0)


def test_laplacian_triangulation_budget():
    with pytest.raises(BudgetError):
        laplacian_triangulation(8)
    with pytest.raises(BudgetError):
        laplacian_triangulation(3, budget=100)
    with pytest.raises(ValueError):
        laplacian_triangulation(0)


def test_verify_rejects_overlap():
    # two unit triangles overlapping in an open region
    t = Triangulation(
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 1, 2), (0, 1, 3)],
        LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]),
    )
    report = verify_triangulation(t)
    assert not report["disjoint_ok"]
    assert not report["ok"]
    assert any(f[0] == "overlap" for f in report["failures"])


def test_verify_rejects_degenerate_cell():
    t = Triangulation(
        [(0, 0), (1, 0), (2, 0), (0, 1)],
        [(0, 1, 2), (0, 2, 3)],
        LatticePolytope([(0, 0), (2, 0), (0, 1)]),
    )
    report = verify_triangulation(t)
    assert not report["affinely_independent"]
    assert not report["ok"]


# -- the ridge certificate against a pairwise oracle ------------------------------


def _cell_facet_halfspaces(t, ci, cache):
    """Facet inequalities of one cell, oriented so the cell satisfies <=."""
    if ci in cache:
        return cache[ci]
    pts = cell_points(t, t.cells[ci])
    dim = len(pts[0])
    out = []
    for drop in range(len(pts)):
        face = [p for i, p in enumerate(pts) if i != drop]
        base = face[0]
        mat = [[p[k] - base[k] for k in range(dim)] for p in face[1:]]
        kernel = nullspace(mat) if mat else [[Fraction(1)]]
        if len(kernel) != 1:
            continue
        normal = primitive_vector(kernel[0])
        off = sum(a_ * x for a_, x in zip(normal, base))
        v_in = sum(a_ * x for a_, x in zip(normal, pts[drop]))
        if v_in == off:
            continue
        if v_in > off:
            normal = tuple(-x for x in normal)
            off = -off
        out.append((normal, off))
    cache[ci] = out
    return out


def _cells_disjoint(t, a, b, facet_cache=None):
    """Interiors of two full-dimensional cells do not meet."""
    if facet_cache is None:
        facet_cache = {}
    pa = cell_points(t, t.cells[a])
    pb = cell_points(t, t.cells[b])
    # fast path: a facet hyperplane of one cell separating the other
    for ci, others in ((a, pb), (b, pa)):
        for normal, off in _cell_facet_halfspaces(t, ci, facet_cache):
            if all(
                sum(a_ * x for a_, x in zip(normal, q)) >= off for q in others
            ):
                return True
    return not simplices_interior_overlap(pa, pb)


def _meet_in_common_face(t, a, b, facet_cache):
    """conv(A) and conv(B) meet in conv(A & B), their common face.

    A facet hyperplane of either cell with what is left of the other cell
    on its far side contains the intersection, so both vertex sets are cut
    down to the hyperplane.  The cells meet properly once one remainder
    consists of shared vertices; an exact LP decides the rest: no common
    point of the remainders puts weight on a vertex of A outside B.
    """
    ca, cb = t.cells[a], t.cells[b]
    shared = set(ca) & set(cb)
    rest_a, rest_b = set(ca), set(cb)

    def value(normal, v):
        return sum(n * x for n, x in zip(normal, t.vertex_pool[v]))

    cut = True
    while cut and not (rest_a <= shared or rest_b <= shared):
        cut = False
        for ci, near, far in ((a, rest_a, rest_b), (b, rest_b, rest_a)):
            for normal, off in _cell_facet_halfspaces(t, ci, facet_cache):
                if all(value(normal, v) >= off for v in far):
                    on = {v for v in near | far if value(normal, v) == off}
                    if not (near <= on and far <= on):
                        near &= on
                        far &= on
                        cut = True
                        break
            if cut:
                break
    if rest_a <= shared or rest_b <= shared:
        return True
    pa = [t.vertex_pool[v] for v in sorted(rest_a)]
    pb = [t.vertex_pool[v] for v in sorted(rest_b)]
    na, nb = len(pa), len(pb)
    a_eq = [[p[k] for p in pa] + [-q[k] for q in pb] for k in range(len(pa[0]))]
    a_eq += [[1] * na + [0] * nb, [0] * na + [1] * nb]
    b_eq = [0] * (len(a_eq) - 2) + [1, 1]
    objective = [int(v not in shared) for v in sorted(rest_a)] + [0] * nb
    res = lp.solve_lp(objective, *ub_form(a_eq, b_eq, na + nb))
    return res.status == lp.INFEASIBLE or res.value == 0


def meets_properly(t):
    """Pairwise oracle: every two cells have disjoint interiors and meet in
    a common face."""
    cache = {}
    return all(
        _cells_disjoint(t, a, b, cache) and _meet_in_common_face(t, a, b, cache)
        for a, b in combinations(range(t.cell_count), 2)
    )


def covers_carrier(t):
    """The theorem's other hypotheses, recomputed: full-dimensional cells
    with vertices in the carrier whose volumes sum to the carrier's."""
    dets = []
    for cell in t.cells:
        pts = cell_points(t, cell)
        dets.append(abs(det_int([[x - y for x, y in zip(p, pts[0])] for p in pts[1:]])))
    return (
        all(dets)
        and all(point_in_hull(t.vertex_pool[v], t.carrier.points)
                for v in t.used_vertex_indices())
        and sum(dets) == t.carrier.normalized_volume()
    )


def fixture(points, cells, carrier=None):
    return Triangulation(points, cells, LatticePolytope(carrier or points))


def nonregular_fixture():
    """The classical non-regular triangulation: a big triangle with an
    inner rotated triangle, spiral cells."""
    points = [(4, 0), (0, 4), (0, 0), (2, 1), (1, 2), (1, 1)]
    cells = [
        (0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5),
        (3, 4, 5),
    ]
    carrier = LatticePolytope(points)
    return Triangulation(points, cells, carrier)


SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

FIXTURES = {
    # (1,1) on the diagonal of (0,1,2) is a vertex of the other two cells
    "hanging_vertex": fixture([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)],
                              [(0, 1, 2), (0, 4, 3), (4, 2, 3)]),
    "double_cover": fixture(SQUARE, [(0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)]),
    "ridge_in_three_cells": fixture([(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)],
                                    [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    "cell_outside_carrier": fixture([(0, 0), (1, 0), (0, 1), (1, 1)],
                                    [(0, 1, 2), (1, 2, 3)],
                                    carrier=[(0, 0), (1, 0), (0, 1)]),
    # the tip beyond the top facet of a trapezoid has its free edges on
    # facet lines: the ridge pass holds, containment and volume fail
    "cell_in_facet_lines": fixture([(0, 0), (6, 0), (4, 2), (2, 2), (3, 3)],
                                   [(0, 1, 2), (0, 2, 3), (2, 3, 4)],
                                   carrier=[(0, 0), (6, 0), (4, 2), (2, 2)]),
    "overlap": fixture([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 2), (0, 1, 3)]),
    "degenerate_cell": fixture([(0, 0), (1, 0), (2, 0), (0, 1)],
                               [(0, 1, 2), (0, 2, 3)],
                               carrier=[(0, 0), (2, 0), (0, 1)]),
    "square": fixture(SQUARE, [(0, 1, 2), (0, 2, 3)]),
    "esd_3_2": edgewise_of_standard(3, 2),
    "nonregular": nonregular_fixture(),
}

# fixtures that are not triangulations of their carrier, with the failure
# tag each must be rejected with
REJECTED = {
    "hanging_vertex": "open_boundary",
    "double_cover": "overlap",
    "ridge_in_three_cells": "ridge_excess",
    "cell_outside_carrier": "outside_carrier",
    "cell_in_facet_lines": "outside_carrier",
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_verify_rejects_fixture(name):
    report = verify_triangulation(FIXTURES[name])
    assert not report["ok"]
    assert report["disjointness"] == "full"
    assert any(f[0] == REJECTED[name] for f in report["failures"]), report["failures"]


def test_verify_collects_every_ridge_failure():
    report = verify_triangulation(FIXTURES["overlap"])
    assert {f[0] for f in report["failures"]} == {"overlap", "open_boundary"}


@pytest.mark.parametrize(
    "name", list(FIXTURES) + ["laplacian_1", "laplacian_2", "laplacian_3"]
)
def test_certificate_agrees_with_pairwise_oracle(name, triangulation_cache):
    if name in FIXTURES:
        t = FIXTURES[name]
    else:
        t = triangulation_cache(int(name[-1]))
    report = verify_triangulation(t)
    covers = covers_carrier(t)
    proper = meets_properly(t)
    # under the covering hypotheses the ridge pass holds iff the cells meet
    # properly; without them the certificate rejects whatever the ridges say
    if covers:
        assert report["disjoint_ok"] == proper
    assert report["ok"] == (covers and proper)


def test_nonregular_fixture_is_valid_but_not_regular():
    t = nonregular_fixture()
    report = verify_triangulation(t)
    assert report["ok"], report
    ok, heights = is_regular(t)
    assert not ok and heights is None


def test_is_regular_lp_witness_roundtrip():
    t = edgewise_of_standard(2, 3)
    t.heights = None
    ok, heights = is_regular(t)
    assert ok
    # the found heights themselves certify
    assert is_regular(t, heights=heights)[0]


def test_is_regular_budget_gate(monkeypatch):
    t = edgewise_of_standard(2, 2)
    t.heights = None
    monkeypatch.setattr("lapoly.triangulate.LP_CELL_LIMIT", 1)
    with pytest.raises(BudgetError):
        is_regular(t)


def two_component_fixture():
    """Two squares apart from each other, each cut along a diagonal: the
    dual graph has two components.  The second square is dilated by 2, so
    its cells have det 4 and its coordinates are Fractions."""
    points = [(0, 0), (1, 0), (0, 1), (1, 1), (3, 0), (5, 0), (3, 2), (5, 2)]
    cells = [(0, 1, 2), (1, 2, 3), (4, 5, 6), (5, 6, 7)]
    return fixture(points, cells)


def degenerate_reached_fixture():
    """A unit triangle sharing its edge (0, 1) with a flat cell: the walk
    starts at the triangle and reaches the flat cell across that edge."""
    return fixture([(0, 0), (1, 0), (0, 1), (2, 0)], [(0, 1, 2), (0, 1, 3)],
                   carrier=[(0, 0), (2, 0), (0, 1)])


def random_heights(t, seed=7):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in t.vertex_pool]


def fold_case(name, triangulation_cache):
    if name == "nonregular":
        # non-unimodular cells (det 4) under Fraction heights
        t = nonregular_fixture()
        return t, random_heights(t)
    if name == "two_components":
        t = two_component_fixture()
        return t, random_heights(t)
    if name == "lp_witness":
        t = edgewise_of_standard(2, 3)
        t.heights = None
        ok, heights = is_regular(t)
        assert ok
        return t, heights
    if name.startswith("interior"):
        t = interior_polytope_triangulation(int(name[-1]))
        return t, t.heights
    t = triangulation_cache(int(name[-1]))
    return t, t.heights


UNIMODULAR_FOLD_CASES = ["laplacian_1", "laplacian_2", "laplacian_3", "laplacian_4",
                         "laplacian_5", "interior_2", "interior_4"]


def probe_heights(name, t, heights):
    """The case's heights, then height vectors that pin every affine
    coordinate: on the Laplacian triangulations d + 2 seeded random integer
    vectors, elsewhere the unit vector of every pool vertex (the value of
    e_v at a fold is 1 at its opposite vertex and minus the coordinate of v
    in its cell)."""
    n = len(t.vertex_pool)
    if name.startswith("laplacian"):
        rng = random.Random(name)
        return [heights] + [[rng.randint(-50, 50) for _ in range(n)]
                            for _ in range(t.dim + 2)]
    return [heights] + [[int(i == v) for i in range(n)] for v in range(n)]


@pytest.mark.parametrize(
    "name", UNIMODULAR_FOLD_CASES + ["nonregular", "lp_witness", "two_components"],
)
def test_fold_coordinates_match_solve_oracle(name, triangulation_cache):
    t, heights = fold_case(name, triangulation_cache)
    pool, cells = t.vertex_pool, t.cells
    folds = oracle_fold_data(cells)
    coords = oracle_fold_coordinates(pool, cells, folds)
    probes = probe_heights(name, t, heights)
    walked, values = walk_fold_values(pool, cells, probes)
    assert sorted(walked) == folds
    for h, got in zip(probes, values):
        # the ridge walk against one solve per cell, dotted with the heights
        by_fold = dict(zip(walked, got))
        assert [by_fold[f] for f in folds] == [
            h[cells[cb][db]] - sum(l * h[i] for l, i in zip(lam, cells[ca]))
            for (ca, _, cb, db), lam in zip(folds, coords)
        ]
        if name in UNIMODULAR_FOLD_CASES:
            # unimodular cells: integer heights give integer fold values
            assert all(type(x) is int for x in got)
    # and against one Fraction solve per fold
    by_fold = dict(zip(walked, values[0]))
    assert [by_fold[f] for f in folds] == oracle_fold_values(t, heights)
    for lam in coords:
        assert sum(lam) == 1


@pytest.mark.parametrize("name", list(FIXTURES) + ["laplacian_1", "laplacian_2",
                                                   "laplacian_3", "laplacian_4"])
def test_fold_data_matches_ridge_index(name, triangulation_cache):
    t = FIXTURES[name] if name in FIXTURES else triangulation_cache(int(name[-1]))
    if name == "ridge_in_three_cells":
        with pytest.raises(ValueError):
            oracle_fold_data(t.cells)
        assert _ridge_pass(t.cells)[2]
        return
    _, folds, excess = _ridge_pass(t.cells)
    assert not excess and sorted(folds) == oracle_fold_data(t.cells)


def test_ridge_in_three_cells_raises():
    t = FIXTURES["ridge_in_three_cells"]
    for call in (lambda: _RidgeWalk(t.vertex_pool, t.cells).require_triangulation(),
                 lambda: is_regular(t),
                 lambda: is_regular(t, heights=[0, 0, 0, 1, 1])):
        with pytest.raises(ValueError, match="three cells share a ridge"):
            call()


@pytest.mark.parametrize("name", ["laplacian_2", "laplacian_3", "interior_4", "esd_3_2"])
def test_is_regular_agrees_with_fold_oracle(name, triangulation_cache):
    """Seeded perturbations lower the opposite vertex of one fold until the
    fold is flat, then past it, or raise that vertex; is_regular must say
    what the oracle fold values say."""
    if name in FIXTURES:
        t = FIXTURES[name]
        heights = t.heights
    else:
        t, heights = fold_case(name, triangulation_cache)
    rng = random.Random(name)
    folds = oracle_fold_data(t.cells)
    values = oracle_fold_values(t, heights)
    assert all(v > 0 for v in values) and is_regular(t, heights)[0]
    verdicts = []
    for k in rng.sample(range(len(folds)), 4):
        w = t.cells[folds[k][2]][folds[k][3]]
        for shift in (-values[k], -values[k] - 1, rng.randint(1, 5)):
            h = list(heights)
            h[w] += shift
            expected = all(v > 0 for v in oracle_fold_values(t, h))
            assert is_regular(t, h) == ((True, h) if expected else (False, None))
            verdicts.append(expected)
    # the flat and the negative fold are always rejected
    assert verdicts[0::3] == verdicts[1::3] == [False] * 4


@pytest.mark.parametrize("name,roots", [("laplacian_4", 1), ("nonregular", 1),
                                        ("two_components", 2)])
def test_fold_walk_solves_once_per_component(name, roots, triangulation_cache,
                                             monkeypatch):
    t, _ = fold_case(name, triangulation_cache)
    calls = []

    def counting_solve_int(rows, rhs):
        calls.append(len(rows))
        return solve_int(rows, rhs)

    monkeypatch.setattr("lapoly.triangulate.solve_int", counting_solve_int)
    walk_fold_values(t.vertex_pool, t.cells, [])
    assert len(calls) == roots


def test_fold_coordinates_reject_degenerate_cell():
    # the flat cell is the walk's first cell, then a cell the walk reaches
    for t in (FIXTURES["degenerate_cell"], degenerate_reached_fixture()):
        with pytest.raises(ValueError, match="degenerate cell"):
            walk_fold_values(t.vertex_pool, t.cells, [])
        with pytest.raises(ValueError, match="degenerate cell"):
            is_regular(t)
        with pytest.raises(ValueError, match="degenerate cell"):
            is_regular(t, heights=[0, 1, 2, 3])


# -- one ridge walk per triangulation -----------------------------------------


def isolated_cell_fixture():
    """The square cut along a diagonal, plus a triangle of det 3 that
    shares no ridge with it: the triangle is a root with no fold."""
    return fixture(SQUARE + [(4, 0), (7, 0), (4, 1)], [(0, 1, 2), (0, 2, 3), (4, 5, 6)])


WALK_CASES = {
    **FIXTURES,
    "two_components": two_component_fixture(),
    "degenerate_reached": degenerate_reached_fixture(),
    "one_cell": fixture([(3, 0), (0, 3), (0, 0)], [(0, 1, 2)]),
    "isolated_cell": isolated_cell_fixture(),
}


@pytest.mark.parametrize("name", list(WALK_CASES) + ["laplacian_1", "laplacian_2",
                                                     "laplacian_3", "laplacian_4"])
def test_walk_determinants_match_bareiss(name, triangulation_cache):
    t = WALK_CASES[name] if name in WALK_CASES else triangulation_cache(int(name[-1]))
    walk = _RidgeWalk(t.vertex_pool, t.cells)
    # det [v_i; 1] = (-1)^ambient * det [v_i - v_0], one Bareiss elimination per cell
    sign = (-1) ** len(t.vertex_pool[0])
    assert list(walk.dets) == [sign * simplex_det(cell_points(t, c)) for c in t.cells]
    # a cell is a root or is reached once; a degenerate cell is never
    # expanded, so no step records it
    roots = [r for r, _ in walk.roots]
    flat = {c for c, det in enumerate(walk.dets) if det == 0}
    steps = list(walk.step_b)
    assert sorted(roots + steps) == sorted(set(roots + steps))
    assert set(roots + steps) | flat == set(range(t.cell_count))
    assert flat.isdisjoint(steps) and flat.isdisjoint(walk.step_a)
    assert all((m is None) == (r in flat) for r, m in walk.roots)


def test_walk_edge_cases():
    # a cell with no fold is its own root
    walk = _walk_of(WALK_CASES["isolated_cell"])
    assert [r for r, _ in walk.roots] == [0, 2] and list(map(abs, walk.dets)) == [1, 1, 3]
    walk = _walk_of(WALK_CASES["one_cell"])
    assert len(walk.roots) == 1 and list(walk.dets) == [9] and not walk.folds()
    # a flat root is not expanded: its neighbour becomes the next root
    walk = _walk_of(FIXTURES["degenerate_cell"])
    assert walk.roots[0] == (0, None) and len(walk.roots) == 2
    # a flat cell reached by a step is not expanded either
    walk = _walk_of(WALK_CASES["degenerate_reached"])
    assert list(walk.dets) == [1, 0] and len(walk.roots) == 1 and not walk.step_b
    # a ridge in three cells is recorded; the walk crosses its fold, and
    # the third cell, on no fold, is a root
    walk = _walk_of(FIXTURES["ridge_in_three_cells"])
    assert [walk.folds()[k] for k in walk.excess] == [(0, 2, 1, 2)]
    assert [r for r, _ in walk.roots] == [0, 2] and list(walk.step_b) == [1]


# the failure lists of the Bareiss-and-ridge-pass checker that the walk
# replaced, for every fixture
FIXTURE_FAILURES = {
    "hanging_vertex": [("open_boundary", (0, 2)), ("open_boundary", (0, 4)),
                       ("open_boundary", (2, 4))],
    "double_cover": [("overlap", 0, 3), ("overlap", 0, 2), ("overlap", 1, 3),
                     ("overlap", 1, 2)],
    "ridge_in_three_cells": [("open_boundary", (1, 2)), ("ridge_excess", (0, 1)),
                             ("open_boundary", (0, 4))],
    "cell_outside_carrier": [("outside_carrier", 3), ("open_boundary", (2, 3)),
                             ("open_boundary", (1, 3))],
    "cell_in_facet_lines": [("outside_carrier", 4)],
    "overlap": [("open_boundary", (1, 2)), ("overlap", 0, 1), ("open_boundary", (0, 3))],
    "degenerate_cell": [("degenerate", 0)],
    "square": [],
    "esd_3_2": [],
    "nonregular": [],
    "two_components": [("open_boundary", (2, 3)), ("open_boundary", (1, 3)),
                       ("open_boundary", (4, 6))],
    "degenerate_reached": [("degenerate", 1), ("open_boundary", (1, 2))],
    "one_cell": [],
    "isolated_cell": [("open_boundary", (1, 2)), ("open_boundary", (4, 6))],
}


@pytest.mark.parametrize("name", list(FIXTURE_FAILURES))
def test_verify_failure_lists_are_unchanged(name):
    assert verify_triangulation(WALK_CASES[name])["failures"] == FIXTURE_FAILURES[name]


@pytest.mark.parametrize("source", ["fan", "placing"])
def test_verify_accepts_fan_triangulations_of_random_polytopes(source):
    """The fan oracle's cells and the placing pass's cells
    (`LatticePolytope._place`) of seeded random lattice polytopes in
    dimensions 2-4: none is unimodular, so the walk runs on Fraction
    inverses, and simplices give one-cell triangulations.  Both are
    regular (pulling and placing), which `is_regular` proves by its LP.
    With more than dim + 2 vertices the carrier's volume comes from the
    placing pass as well, so it is checked against the fan oracle."""
    rng = random.Random(2026)
    one_cell = checked = 0
    while checked < 100:
        dim = 2 + checked % 3
        points = {tuple(rng.randint(-2, 2) for _ in range(dim))
                  for _ in range(dim + 1 + rng.randint(0, 4))}
        p = LatticePolytope(sorted(points))
        if p.dim() != dim:
            continue
        fan = fan_cells(p.points)
        t = Triangulation(p.points, fan if source == "fan" else p._placing()[2], p)
        report = verify_triangulation(t)
        assert report["ok"], report["failures"]
        volume = sum(abs(simplex_det([p.points[i] for i in c])) for c in fan)
        assert report["volume_sum"] == report["carrier_nvol"] == volume
        assert not report["unimodular"]
        assert is_regular(t)[0]
        one_cell += t.cell_count == 1
        checked += 1
    assert one_cell


def count_walk_work(monkeypatch):
    """Patch `solve_int` and `_ridge_pass` in the triangulate module to
    count their calls."""
    calls = {"solve_int": 0, "_ridge_pass": 0}
    for name in calls:
        real = getattr(triangulate, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(triangulate, name, counted)
    return calls


@pytest.mark.parametrize("name,roots", [("laplacian_2", 1), ("laplacian_3", 1),
                                        ("two_components", 2), ("interior_4", 1)])
@pytest.mark.parametrize("verify_first", [True, False])
def test_one_walk_per_triangulation(name, roots, verify_first, monkeypatch):
    # a build walks nothing; the even refinement keeps the walk that scaled
    # its heights, so its checkers walk no further, and the first check of
    # the cone walks it once, for its heights and both checkers
    walked = name == "laplacian_2"
    if name == "two_components":
        t = two_component_fixture()
    elif name.startswith("interior"):
        t = interior_polytope_triangulation(int(name[-1]))
        assert t._walk is None and callable(t._heights)
    else:
        t = laplacian_triangulation(int(name[-1]))
        assert t._walk is None
        t.heights  # the even refinement walks here, before counting
    assert (t._walk is not None) == walked
    calls = count_walk_work(monkeypatch)
    work = ({"solve_int": 0, "_ridge_pass": 0} if walked
            else {"solve_int": roots, "_ridge_pass": 1})
    order = ["verify", "regular"] if verify_first else ["regular", "verify"]
    checks = {"verify": lambda: verify_triangulation(t)["ok"],
              "regular": lambda: is_regular(t)[0]}
    results = {check: checks[check]() for check in order}
    # the two squares do not cover their convex hull, but are regular
    assert results == {"verify": roots == 1, "regular": True}
    assert calls == work
    assert t.checks["verify"]["walk_roots"] == t.checks["regular"]["walk_roots"] == roots
    rng = random.Random(name)
    for _ in range(3):
        is_regular(t, [rng.randint(-9, 9) for _ in t.vertex_pool])
    assert calls == work


def test_even_refinement_walks_its_cone_once(monkeypatch):
    # the build walks nothing; the first heights read walks the cone cells
    # once, to scale the cone's heights, then the refined cells once, and
    # the template 2 * Delta_4 is never walked; each walk inverts only its
    # root, and the refinement lets the cone go
    calls = count_walk_work(monkeypatch)
    t = laplacian_triangulation(4)
    assert calls == {"solve_int": 0, "_ridge_pass": 0}
    cone = t._heights.keywords["cone"]
    assert t._walk is None and cone._walk is None
    t.heights
    assert calls == {"solve_int": 2, "_ridge_pass": 2}
    assert t._walk is not None and cone._walk is not None
    assert not callable(t._heights)


def test_reassigning_cells_or_pool_drops_the_walk():
    t = fixture(SQUARE, [(0, 1, 2), (0, 2, 3)])
    assert verify_triangulation(t)["ok"] and t._walk is not None
    t.cells = [(0, 1, 2), (0, 1, 3)]
    assert t._walk is None
    assert ("overlap", 0, 1) in verify_triangulation(t)["failures"]
    t.cells = [(0, 1, 2), (0, 2, 3)]
    assert verify_triangulation(t)["ok"]
    # the same cells over a pool where the first is flat
    t.vertex_pool = [(0, 0), (1, 0), (2, 0), (0, 1)]
    assert t._walk is None
    assert verify_triangulation(t)["failures"][0] == ("degenerate", 0)
    with pytest.raises(ValueError, match="degenerate cell"):
        is_regular(t, heights=[0, 1, 2, 3])


def test_assignment_stores_what_the_constructor_stores():
    pool = [(0, 0), (1, 0), (0, 1), (1, 1)]
    built = fixture(pool, [(0, 1, 2), (2, 1, 3)])
    assert built.cells == [(0, 1, 2), (1, 2, 3)]
    assert verify_triangulation(built)["ok"]
    # unsorted cells: the shared ridge (1, 2) must read as one ridge
    t = fixture(pool, [(0, 1, 3), (0, 2, 3)])
    t.cells = [(0, 1, 2), (2, 1, 3)]
    assert t.cells == built.cells
    assert verify_triangulation(t)["ok"]
    # a non-integral pool point is refused, and the old pool is kept
    with pytest.raises(ValueError, match="not an integer vector"):
        t.vertex_pool = [(0, 0), (0.5, 0), (0, 1), (1, 1)]
    assert t.vertex_pool == pool and t.checks["verify"]["ok"]
    t.vertex_pool = [(0, 0), (Fraction(2, 2), 0), (0, 1.0), (1, 1)]
    assert t.vertex_pool == pool and type(t.vertex_pool[2][1]) is int
    assert verify_triangulation(t)["ok"]


# sha256 of repr((vertex_pool, cells, heights)): the constructions must
# reproduce this pool order, these cells and these heights exactly
GOLDEN = {
    ("laplacian", 1): "ab9f58909931e421",
    ("laplacian", 2): "faf8adaa897c684d",
    ("laplacian", 3): "95f0f7ff687d804c",
    ("laplacian", 4): "6313a92d9b4f260b",
    ("laplacian", 5): "c9b55fb4314bcda7",
    ("interior", 2): "40b7249031b621f4",
    ("interior", 4): "d9ddffc4e3e1a4e5",
}


@pytest.mark.parametrize("kind,d", list(GOLDEN))
def test_construction_golden_hash(kind, d, triangulation_cache):
    if kind == "laplacian":
        t = triangulation_cache(d)
    else:
        t = interior_polytope_triangulation(d)
    text = repr((t.vertex_pool, t.cells, t.heights))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == GOLDEN[kind, d]


# sha256 of the cone's cells as sorted point tuples, sorted, and of its
# sorted (point, height) pairs: no numbering of the pool changes it
CONE_DIGESTS = {2: "944cc8e0ab238102", 4: "6f4c5ed999e6d62f", 6: "e8b98518e404e313"}


@pytest.mark.parametrize("d", list(CONE_DIGESTS))
def test_interior_cone_digest_is_numbering_free(d):
    t = interior_polytope_triangulation(d)
    pool = t.vertex_pool
    text = repr((sorted(tuple(sorted(pool[i] for i in c)) for c in t.cells),
                 sorted(zip(pool, t.heights))))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == CONE_DIGESTS[d]


# -- lifting heights on first read --------------------------------------------


def stored_heights(t):
    """The primary and secondary heights that the first read of an unread
    even-d refinement scales, indexed by refined id: the cone's heights
    summed over the multiset of cone ids that placed each point, and the
    alcove height of that multiset."""
    keywords = t._heights.keywords
    cone = keywords["cone"]
    return ([sum(cone.heights[i] for i in key) for key in keywords["sources"]],
            [alcove_height(key, len(cone.vertex_pool)) for key in keywords["sources"]])


def corrupt_first_read(monkeypatch, edit):
    """Make every heights read of an even-d refinement scale its primary
    and secondary heights after `edit(primary, secondary)`; the cone's
    heights, bound when it was built, stay sound."""
    real = triangulate._scaled_heights

    def corrupted(t, primary, secondary):
        edit(primary, secondary)
        return real(t, primary, secondary)

    monkeypatch.setattr(triangulate, "_scaled_heights", corrupted)


@pytest.mark.parametrize("d", [2, 4])
def test_refined_heights_are_minimally_scaled(d):
    # oracle, with no walk: recover N from h = N * primary + secondary,
    # then one Fraction solve per fold shows that h folds strictly and
    # that N - 1 would not
    t = laplacian_triangulation(d)
    primary, secondary = stored_heights(t)
    h = t.heights
    k = next(i for i, p in enumerate(primary) if p)
    n, rem = divmod(h[k] - secondary[k], primary[k])
    assert rem == 0 and n >= 1
    assert h == [n * p + s for p, s in zip(primary, secondary)]
    assert min(oracle_fold_values(t, h)) > 0
    if n > 1:
        lower = [(n - 1) * p + s for p, s in zip(primary, secondary)]
        assert min(oracle_fold_values(t, lower)) <= 0


def flat_fold_vertex(t):
    """(w, s): the opposite vertex of a fold that is flat under the stored
    primary heights, and the fold's secondary value."""
    folds, (primary, secondary) = walk_fold_values(t.vertex_pool, t.cells,
                                                   stored_heights(t))
    k = primary.index(0)
    _, _, cb, db = folds[k]
    return t.cells[cb][db], secondary[k]


@pytest.mark.parametrize("d", [2, 4])
def test_corrupt_secondary_height_flattens_a_fold(d, monkeypatch):
    t = laplacian_triangulation(d)
    w, s = flat_fold_vertex(t)

    def edit(primary, secondary):
        secondary[w] -= s

    corrupt_first_read(monkeypatch, edit)
    with pytest.raises(AssertionError, match="flat fold with non-convex refinement"):
        t.heights
    with pytest.raises(AssertionError, match="flat fold with non-convex refinement"):
        is_regular(t)


@pytest.mark.parametrize("d", [2, 4])
def test_corrupt_primary_height_breaks_a_base_fold(d, monkeypatch):
    t = laplacian_triangulation(d)
    w, _ = flat_fold_vertex(t)

    def edit(primary, secondary):
        primary[w] -= 1

    corrupt_first_read(monkeypatch, edit)
    with pytest.raises(AssertionError, match="base fold is non-convex"):
        t.heights
    with pytest.raises(AssertionError, match="base fold is non-convex"):
        is_regular(t)


def count_refined_walks(monkeypatch, d, fail=False):
    """Patch `_scaled_heights` to count its calls, recording the number of
    cells of the triangulation it scales: ((d+2)/2)^d for the cone of
    `laplacian_triangulation(d)`, (d+2)^d for its refinement.  With `fail`
    the refinement's call raises."""
    real = triangulate._scaled_heights
    calls = []

    def counted(t, primary, secondary):
        calls.append(len(t.cells))
        if fail and len(t.cells) == (d + 2) ** d:
            raise AssertionError("flat fold with non-convex refinement")
        return real(t, primary, secondary)

    monkeypatch.setattr(triangulate, "_scaled_heights", counted)
    return calls


def test_triangulation_route_reads_no_heights(monkeypatch):
    # the route equals the reference rows, verifying and counting on one
    # walk per d, the cone's at even d, and scales no heights
    calls = count_refined_walks(monkeypatch, 4)
    work = count_walk_work(monkeypatch)
    table = load_reference_table()
    for d in range(1, 7):
        assert hstar_by_method(d, "triangulation") == table[d]
        assert work["_ridge_pass"] == d
    assert table[2] == (1, 10, 5) and table[4] == (1, 131, 726, 419, 19)
    assert calls == []


@pytest.mark.parametrize("d", [2, 4])
def test_heights_walk_runs_once_on_first_read(d, monkeypatch, triangulation_cache):
    calls = count_refined_walks(monkeypatch, d)
    t = laplacian_triangulation(d)
    cone = ((d + 2) // 2) ** d
    assert calls == []
    first = t.heights
    assert t.heights is first and calls == [cone, (d + 2) ** d]
    assert first == triangulation_cache(d).heights


def test_reassigned_heights_drop_the_regularity_record():
    t = laplacian_triangulation(2)
    assert is_regular(t)[0] and t.checks["regular"]["witness"] == "heights"
    t.heights = [0] * len(t.vertex_pool)
    assert "regular" not in t.checks
    assert is_regular(t, t.heights) == (False, None)
    assert "regular" not in t.checks
    # a failed check with explicit heights also drops an earlier record
    t.heights = None
    assert is_regular(t)[0] and t.checks["regular"]["witness"] == "lp"
    assert is_regular(t, [0] * len(t.vertex_pool)) == (False, None)
    assert "regular" not in t.checks


def test_is_regular_accepts_only_exact_heights_of_the_pool_length():
    t = laplacian_triangulation(2)
    good = list(t.heights)
    for bad in ([h + 1e-9 for h in good], good + [0], good[:-1], [0], [*good[:-1], "1"]):
        assert is_regular(t)[0] and "regular" in t.checks
        with pytest.raises(ValueError, match="one int or Fraction per pool point"):
            is_regular(t, bad)
        assert "regular" not in t.checks
    # attached heights are held to the same rule
    t.heights = [float(h) for h in good]
    with pytest.raises(ValueError, match="one int or Fraction per pool point"):
        is_regular(t)
    assert is_regular(t, [Fraction(h) for h in good])[0]


def test_triangulation_pool_rejects_non_integral_points():
    carrier = LatticePolytope(SQUARE)
    with pytest.raises(ValueError, match="not an integer vector"):
        Triangulation([(0, 0), (1, 0), (0, 1), (1, 0.5)], [(0, 1, 2)], carrier)
    t = Triangulation([(0, 0), (Fraction(2, 2), 0), (0, 1.0)], [(0, 1, 2)], carrier)
    assert t.vertex_pool[1:] == [(1, 0), (0, 1)] and type(t.vertex_pool[2][1]) is int


def test_heights_set_to_none_takes_lp_path():
    t = laplacian_triangulation(2)
    t.heights = None
    assert t.heights is None
    ok, found = is_regular(t)
    assert ok and t.checks["regular"]["witness"] == "lp"
    assert is_regular(t, heights=found)[0]


def test_lp_heights_are_checked_on_the_walk(monkeypatch):
    # a positive optimum whose heights are all 0, so every fold is 0
    solve_lp = lp.solve_lp

    def corrupted(*args):
        res = solve_lp(*args)
        return lp.LPResult(res.status, [0] * (len(res.x) - 1) + res.x[-1:], res.value)

    monkeypatch.setattr(lp, "solve_lp", corrupted)
    t = laplacian_triangulation(2)
    t.heights = None
    with pytest.raises(AssertionError, match="LP heights fail a fold"):
        is_regular(t)


def test_heights_assertion_fires_on_first_read(monkeypatch):
    count_refined_walks(monkeypatch, 2, fail=True)
    t = laplacian_triangulation(2)
    with pytest.raises(AssertionError, match="non-convex refinement"):
        t.heights
    with pytest.raises(AssertionError, match="non-convex refinement"):
        is_regular(t)


# -- census, shelling ----------------------------------------------------


def test_face_census_matches_closure_count(triangulation_cache):
    # from_facets closes the cells under inclusion level by level: an
    # independent count of the same faces
    for d in range(1, 5):
        t = triangulation_cache(d)
        closure = from_facets(t.cells, range(len(t.vertex_pool)))
        assert face_census(t) == f_vector(closure)
    t3 = triangulation_cache(3)
    assert h_vector_of(t3) == h_from_f(face_census(t3))


def test_face_census_matches_reference_rows(triangulation_cache):
    table = load_reference_table()
    for d in range(1, 6):
        t = triangulation_cache(d)
        row = table[d] + (0,) * (t.dim + 2 - len(table[d]))
        assert face_census(t) == f_from_h(row)


# -- h-vector by half-open decomposition --------------------------------------


def placing_triangulations(count, seed):
    """The placing triangulations (`LatticePolytope._place`) of `count`
    seeded random lattice polytopes in dimensions 2-4, each in its sorted
    cell order and shuffled, so that the walk also steps from cb to ca
    across non-unimodular folds."""
    rng = random.Random(seed)
    found = []
    while len(found) < 2 * count:
        dim = 2 + len(found) // 2 % 3
        points = {tuple(rng.randint(-2, 2) for _ in range(dim))
                  for _ in range(dim + 3 + rng.randint(0, 4))}
        p = LatticePolytope(sorted(points))
        if p.dim() != dim:
            continue
        cells = list(p._placing()[2])
        found.append(Triangulation(p.points, cells, p))
        rng.shuffle(cells)
        found.append(Triangulation(p.points, cells, p))
    return found


def reverse_steps(walk):
    """(all, non-unimodular) counts of the walk's steps from cb to ca."""
    n = walk.size
    back = [i for i, (a, k) in enumerate(zip(walk.step_a, walk.step_k)) if walk.cb[k] == a]
    return len(back), sum(abs(walk.lams[i * n + walk.db[walk.step_k[i]]]) != 1 for i in back)


def half_open_cases(triangulation_cache):
    yield from (triangulation_cache(d) for d in range(1, 6))
    yield from (interior_polytope_triangulation(d) for d in (2, 4))


def test_half_open_h_vector_matches_face_census(triangulation_cache):
    for t in half_open_cases(triangulation_cache):
        assert h_vector_of(t) == h_from_f(face_census(t))
    back = 0
    for t in placing_triangulations(100, 2027):
        assert h_vector_of(t) == h_from_f(face_census(t))
        back += reverse_steps(_walk_of(t))[1]
    assert back


def test_fold_values_match_covector_oracle(triangulation_cache):
    rng = random.Random(11)
    cases = list(half_open_cases(triangulation_cache)) + placing_triangulations(100, 2027)
    back = 0
    for t in cases:
        walk = _walk_of(t)
        probes = [[rng.randint(-9, 9) for _ in t.vertex_pool]]
        if t.cell_count < 2000:
            probes.append([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in t.vertex_pool])
        for h in probes:
            assert walk.fold_values(h) == covector_fold_values(walk, h)
        back += reverse_steps(walk)[0]
    assert back


def test_h_vector_reuses_the_verify_record_and_the_walk(monkeypatch):
    t = laplacian_triangulation(3)
    assert verify_triangulation(t)["ok"]
    calls = count_walk_work(monkeypatch)

    def refuse(t):
        raise AssertionError("verified twice")

    monkeypatch.setattr(triangulate, "verify_triangulation", refuse)
    assert h_vector_of(t) == (1, 22, 78, 24, 0, 0)
    assert calls == {"solve_int": 0, "_ridge_pass": 0}


def test_h_vector_refuses_unverified_triangulations():
    t = laplacian_triangulation(2)
    dropped = Triangulation(t.vertex_pool, t.cells[1:], t.carrier)
    pool = list(t.vertex_pool)
    inner = next(i for i, p in enumerate(pool)
                 if all(h.value(p) < h.offset for h in t.carrier.facets()))
    pool[inner] = (pool[inner][0] + 1, *pool[inner][1:])
    shifted = Triangulation(pool, t.cells, t.carrier)
    for bad in (dropped, shifted):
        with pytest.raises(ValueError, match="verify_triangulation accepts"):
            h_vector_of(bad)
        assert bad.checks["verify"]["ok"] is False


def test_replacing_cells_pool_or_carrier_drops_the_proofs():
    t = laplacian_triangulation(2)
    cells, pool, carrier = t.cells, t.vertex_pool, t.carrier
    assert h_vector_of(t) == (1, 10, 5, 0) and t.checks["verify"]["ok"]
    assert is_regular(t)[0] and "regular" in t.checks
    t.cells = cells[1:]
    assert t.checks == {}
    with pytest.raises(ValueError, match="verify_triangulation accepts"):
        h_vector_of(t)
    t.cells = cells
    assert t.checks == {} and h_vector_of(t) == (1, 10, 5, 0)
    t.vertex_pool = [(x + 1, y) for x, y in pool]
    assert t.checks == {}
    with pytest.raises(ValueError, match="verify_triangulation accepts"):
        h_vector_of(t)
    t.vertex_pool = pool
    assert h_vector_of(t) == (1, 10, 5, 0)
    # a new carrier keeps the walk, but not the proof against the old one
    walk = t._walk
    t.carrier = LatticePolytope([tuple(2 * x for x in p) for p in carrier.points])
    assert t.checks == {} and t._walk is walk
    with pytest.raises(ValueError, match="verify_triangulation accepts"):
        h_vector_of(t)


def test_half_open_count_refuses_a_point_on_a_ridge_hyperplane():
    # the big triangle X, Y, O around P = (1, 1); the root X Y P is cell 0,
    # and the line y = x through the ridge O P cuts it
    t = fixture([(3, 0), (0, 3), (1, 1), (0, 0)], [(0, 1, 2), (0, 2, 3), (1, 2, 3)])
    assert verify_triangulation(t)["ok"]
    walk = _walk_of(t)
    assert walk.roots[0][0] == 0
    census = h_from_f(face_census(t))
    assert h_vector_of(t) == _half_open_h(walk, [1, 2, 4]) == census == (1, 1, 1, 0)
    # weights 1, 1, 1: q = (4/3, 4/3), on y = x
    with pytest.raises(ValueError, match="hyperplane of a ridge"):
        _half_open_h(walk, [1, 1, 1])


def test_shelling_simplex_any_order():
    import itertools

    simplex = LatticePolytope(standard_simplex(3))
    sets = simplex.facet_vertex_sets()
    for perm in itertools.permutations(range(len(sets))):
        assert verify_shelling(simplex, [sets[i] for i in perm])


def test_shelling_negative_and_errors():
    p, _ = reduce_full_dim(4)
    order = standard_shelling_order(4)
    # start with F followed by a pair facet meeting it in only d-2 vertices
    f_facet = order[0]
    pair_facet = next(s for s in order if len(f_facet & s) == 2)
    rest = [s for s in order if s not in (f_facet, pair_facet)]
    assert not verify_shelling(p, [f_facet, pair_facet] + rest)
    with pytest.raises(ValueError):
        verify_shelling(p, order[:-1])
