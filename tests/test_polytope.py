import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd
from operator import mul

import pytest

from lapoly import lp, polytope
from lapoly.budgets import BudgetError
from lapoly.complexes import boundary_of_simplex
from lapoly.laplacian import interior_polytope_vertices, laplacian_polytope, reduce_full_dim
from lapoly.polytope import (
    Halfspace,
    LatticePolytope,
    NotFullDimensionalError,
    combinatorially_equivalent,
    cyclic_polytope,
    gale_evenness_sets,
)
from oracles import (
    combinatorial_type, det_int, fan_cells, nullspace, point_in_hull, ridge_graph_edges, scan_hull,
    simplex_det)


def unit_square():
    return LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)])


def even_facet_families(d):
    """The four halfspace families of the reduced polytope for even d."""
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


def test_halfspace_normalization():
    h = Halfspace((1, -2), 3)
    assert h.value((1, 1)) == -1
    with pytest.raises(ValueError):
        Halfspace((2, -4), 6)


def test_halfspace_accepts_exactly_gcd_one_normals():
    # the zero normal has gcd 0, and bounds no halfspace
    for normal in ((2, 4), (0, 0)):
        with pytest.raises(ValueError, match="primitive and nonzero"):
            Halfspace(normal, 1)
    assert Halfspace((1, -2), 0).normal == (1, -2)


def test_halfspace_rejects_non_integral_input():
    for normal, offset in (((1.5, 1), 0), ((1, 0), Fraction(1, 2)), (("1", 0), 0),
                           ((None, 1), 0), ((1, 0), float("inf"))):
        with pytest.raises(ValueError, match="not an integer vector"):
            Halfspace(normal, offset)
    h = Halfspace((Fraction(4, 4), 2.0), True)
    assert (h.normal, h.offset) == ((1, 2), 1)
    assert {type(x) for x in (*h.normal, h.offset)} == {int}


def test_lattice_polytope_rejects_non_integral_points():
    with pytest.raises(ValueError, match="not an integer vector"):
        LatticePolytope([(0, 0), (1.5, 0), (0, 1)])
    with pytest.raises(ValueError, match="not an integer vector"):
        LatticePolytope([(0, 0), (Fraction(3, 2), 0), (0, 1)])
    assert LatticePolytope([(0, 0), (Fraction(4, 2), 0), (0, 1)]).normalized_volume() == 2


def test_vertices():
    seg = LatticePolytope([(0,), (1,), (2,)])
    assert seg.vertices() == [(0,), (2,)]
    sq = unit_square()
    assert len(sq.vertex_indices()) == 4
    point = LatticePolytope([(5, 7)])
    assert point.vertices() == [(5, 7)]
    with pytest.raises(ValueError):
        LatticePolytope([(0, 0), (0, 0)])


def oracle_vertex_indices(points):
    """Per-point LP oracle: p_i is a vertex iff it is not in the convex
    hull of the other points."""
    return tuple(
        i for i, p in enumerate(points)
        if not point_in_hull(p, [q for j, q in enumerate(points) if j != i])
    )


def random_point_set(rng):
    """Distinct integer points on a random affine sublattice of dimension
    k <= 3 in Z^m with m > k; small coefficients make many points
    non-vertices."""
    k = rng.randint(0, 3)
    m = rng.randint(k + 1, k + 2)
    gens = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
    base = [rng.randint(-5, 5) for _ in range(m)]
    points = []
    for _ in range(k + 1 + rng.randint(0, 3)):
        coef = [rng.randint(-2, 2) for _ in range(k)]
        points.append(tuple(
            b + sum(c * g[i] for c, g in zip(coef, gens))
            for i, b in enumerate(base)
        ))
    return list(dict.fromkeys(points))


def test_vertex_indices_match_lp_oracle():
    rng = random.Random(20260)
    by_corank = {0: 0, 1: 0, 2: 0}
    non_vertices = {0: 0, 1: 0, 2: 0}
    for _ in range(1000):
        points = random_point_set(rng)
        expected = oracle_vertex_indices(points)
        poly = LatticePolytope(points)
        assert poly.dim() < poly.ambient_dim
        # the reduced copy, on its own and inheriting the ambient answer
        fresh, _, _ = LatticePolytope(points).full_dimensional()
        assert fresh.vertex_indices() == expected
        assert poly.vertex_indices() == expected
        assert poly.full_dimensional()[0]._vertex_indices == expected
        corank = min(len(points) - 1 - poly.dim(), 2)
        by_corank[corank] += 1
        non_vertices[corank] += len(points) - len(expected)
    assert min(by_corank.values()) >= 200
    assert non_vertices[0] == 0
    assert non_vertices[1] >= 100 and non_vertices[2] >= 100


@pytest.mark.parametrize("points, dim, expected", [
    # interior point of a triangle (corank 1)
    ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 0)], 2, (0, 1, 2)),
    # square pyramid: the dependency is 0 at the apex, which is a vertex
    ([(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (2, 2, 0, 1), (1, 1, 1, 1)],
     3, (0, 1, 2, 3, 4)),
    # three collinear points, the middle one listed last
    ([(2, 2, 2), (0, 0, 0), (1, 1, 1)], 1, (0, 1)),
    ([(5, 7)], 0, (0,)),
], ids=["interior-point", "pyramid-apex", "collinear", "one-point"])
def test_vertex_indices_named_cases(points, dim, expected):
    poly = LatticePolytope(points)
    assert poly.dim() == dim
    assert poly.vertex_indices() == expected == oracle_vertex_indices(points)


def test_paper_polytopes_need_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("vertex enumeration ran an LP")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    for d in range(1, 9):
        p, _ = reduce_full_dim(d)
        assert p.vertex_indices() == tuple(range(d + 2))
        if d % 2 == 0:
            # the interior lattice points leave corank >= 2 to decide
            q = p.interior_polytope()
            assert sorted(q.vertices()) == sorted(interior_polytope_vertices(d))
    for d in range(2, 9):
        assert cyclic_polytope(d, d + 2).vertex_indices() == tuple(range(d + 2))


def test_affine_hull_simple():
    point = LatticePolytope([(3,)])
    dim, eqs = point.affine_hull()
    assert dim == 0 and eqs == [((1,), 3)]
    diag = LatticePolytope([(0, 0), (1, 1), (2, 2)])
    dim, eqs = diag.affine_hull()
    assert dim == 1 and eqs == [((1, -1), 0)]


def test_facets_unit_square_and_cube():
    sq = unit_square()
    assert {(h.normal, h.offset) for h in sq.facets()} == {
        ((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)}
    cube = LatticePolytope(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert len(cube.facets()) == 6
    assert {len(s) for s in cube.facet_vertex_sets()} == {4}
    assert cube.normalized_volume() == 6
    with pytest.raises(NotFullDimensionalError):
        LatticePolytope([(0, 0), (1, 1)]).facets()


def test_even_d_facet_description():
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        got = {(h.normal, h.offset) for h in p.facets()}
        assert got == even_facet_families(d)
        assert len(got) == (d + 2) ** 2 // 4
        assert all(len(s) == d for s in p.facet_vertex_sets())
        g = p.facet_ridge_graph()
        assert g.is_regular(d)
        assert g.edge_count == d * (d + 2) ** 2 // 8
        assert g.is_connected()


def test_odd_d_facet_count_and_families():
    from math import gcd

    for d in (1, 3, 5):
        p, _ = reduce_full_dim(d)
        facets = p.facets()
        assert len(facets) == d + 2
        n = d + 1
        want = set()

        def add(v, b):
            g = 0
            for x in v:
                g = gcd(g, abs(x))
            want.add((tuple(x // g for x in v), b // g))

        add([1] * n, d + 2)
        odd = [1 if k % 2 == 1 else 0 for k in range(1, n + 1)]
        for i in range(2, d + 2, 2):
            v = [2 * o for o in odd]
            v[i - 1] -= 1
            add(v, d + 2)
        for j in range(1, d + 1, 2):
            v = [-2 * o for o in odd]
            v[j - 1] -= 1
            add(v, -(d + 2))
        assert {(h.normal, h.offset) for h in facets} == want


def test_simplex_facet_ridge_graph_complete():
    tri = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    g = tri.facet_ridge_graph()
    assert len(g.nodes) == 4 and g.edge_count == 6
    assert g.is_regular(3)
    # the endpoints of a segment meet in the empty face, its ridge
    g = LatticePolytope([(0,), (2,)]).facet_ridge_graph()
    assert len(g.nodes) == 2 and g.edges == [(0, 1)]


def ridge_graph_cases():
    """Cubes and a cube grid (non-simplicial facets, non-vertex points),
    the reduced polytopes, cyclic polytopes, the interior polytopes, and
    seeded 0/1 polytopes of dimension 5, where two facets can share
    d - 1 vertices in a face below a ridge."""
    rng = random.Random(5)
    cube = list(product((0, 1), repeat=5))
    yield from (LatticePolytope(rng.sample(cube, 12)) for _ in range(4))
    yield from (LatticePolytope(list(product((0, 1), repeat=d))) for d in (2, 3, 4))
    yield LatticePolytope(list(product((0, 1, 2), repeat=3)))
    yield from (reduce_full_dim(d)[0] for d in range(1, 8))
    yield from (cyclic_polytope(d, d + 3) for d in (2, 3, 4, 5))
    yield from (LatticePolytope(interior_polytope_vertices(d)) for d in (2, 4, 6))


def test_facet_ridge_graph_matches_smith_oracle(monkeypatch):
    # the tight sets decide every ridge, so the graph takes no Smith form
    # once the facets are known; the oracle takes one per candidate pair
    calls = []
    real = polytope.snf_with_transform
    monkeypatch.setattr(polytope, "snf_with_transform",
                        lambda *a: calls.append(1) or real(*a))
    below = 0
    for p in ridge_graph_cases():
        sets = p.facet_vertex_sets()
        before = len(calls)
        edges = p.facet_ridge_graph().edges
        assert len(calls) == before
        assert edges == ridge_graph_edges(p)
        below += sum(len(sets[i] & sets[j]) >= p.dim() - 1
                     for i, j in combinations(range(len(sets)), 2)) - len(edges)
    assert below > 0
    cube = LatticePolytope(list(product((0, 1), repeat=4)))
    cube.facets()
    del calls[:]
    assert len(ridge_graph_edges(cube)) == 24 and len(calls) == 24


def test_cyclic_polytopes():
    c24 = cyclic_polytope(2, 4)
    assert len(c24.facets()) == 4
    c46 = cyclic_polytope(4, 6)
    assert len(c46.facets()) == 9
    for d in (2, 4, 6, 8):
        c = cyclic_polytope(d, d + 2)
        assert len(c.facets()) == (d + 2) ** 2 // 4
    # beyond d + 2 vertices the placing pass finds the facets, which
    # cyclic_polytope checks against Gale evenness
    for d in range(2, 7):
        for n in range(d + 3, d + 6):
            assert len(cyclic_polytope(d, n).facets()) == len(gale_evenness_sets(d, n))
    assert len(gale_evenness_sets(4, 6)) == 9
    with pytest.raises(ValueError):
        cyclic_polytope(3, 3)


def test_combinatorial_equivalence():
    p2, _ = reduce_full_dim(2)
    eq, mapping = combinatorially_equivalent(p2, cyclic_polytope(2, 4))
    assert eq and sorted(mapping) == list(range(4))
    p4, _ = reduce_full_dim(4)
    eq, mapping = combinatorially_equivalent(p4, cyclic_polytope(4, 6))
    assert eq
    # the witness maps facets onto facets
    c46 = cyclic_polytope(4, 6)
    pf = {frozenset(mapping[v] for v in s) for s in p4.facet_vertex_sets()}
    qf = {frozenset(s) for s in c46.facet_vertex_sets()}
    assert pf == qf
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    eq, mapping = combinatorially_equivalent(tri, unit_square())
    assert not eq and mapping is None


def random_polytope(rng, d):
    """A d-polytope with d + 2 vertices, in shuffled order.  From d = 3 on,
    one time in three it is a pyramid, the one way for the affine
    dependency of d + 2 vertices to have a zero entry."""
    if d >= 3 and rng.random() < 1 / 3:
        base = random_polytope(rng, d - 1)
        apex = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,)
        pts = [q + (0,) for q in base.points] + [apex]
        rng.shuffle(pts)
        return LatticePolytope(pts)
    while True:
        pts = sorted({tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 2)})
        rng.shuffle(pts)
        p = LatticePolytope(pts)
        if len(pts) == d + 2 and p.dim() == d and len(p.vertex_indices()) == d + 2:
            return p


@pytest.mark.parametrize("d, types", [(2, 1), (3, 2), (4, 4)])
def test_combinatorial_equivalence_matches_brute_force(d, types):
    # every pair of 14 random d-polytopes with d + 2 vertices, against an
    # isomorphism search over all vertex bijections; the sample holds
    # every combinatorial type there is (zeros in the dependency included)
    rng = random.Random(1800 + d)
    polys = [random_polytope(rng, d) for _ in range(14)]
    kinds = [combinatorial_type(p) for p in polys]
    assert len(set(kinds)) == types
    for (p, kp), (q, kq) in combinations(zip(polys, kinds), 2):
        eq, mapping = combinatorially_equivalent(p, q)
        assert eq == (kp == kq)
        if eq:
            image = {frozenset(mapping[v] for v in s) for s in p.facet_vertex_sets()}
            assert image == set(q.facet_vertex_sets())
        else:
            assert mapping is None


def test_combinatorial_equivalence_pyramid_and_bipyramid():
    pyramid = LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    bipyramid = LatticePolytope([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)])
    assert combinatorial_type(pyramid) != combinatorial_type(bipyramid)
    assert combinatorially_equivalent(pyramid, bipyramid) == (False, None)


def test_combinatorial_equivalence_of_simplices_and_its_limit():
    tri = LatticePolytope([(0, 0), (1, 0), (0, 1)])
    # (1, 1) is no vertex, so the witness skips its position
    big = LatticePolytope([(0, 0), (4, 0), (0, 4), (1, 1)])
    eq, mapping = combinatorially_equivalent(tri, big)
    assert eq and sorted(mapping) == [0, 1, 2] and sorted(mapping.values()) == [0, 1, 2]
    hexagon = LatticePolytope([(1, 0), (2, 0), (3, 1), (2, 2), (1, 2), (0, 1)])
    with pytest.raises(ValueError, match="dim \\+ 2"):
        combinatorially_equivalent(hexagon, hexagon)


def test_lattice_point_counts():
    sq = unit_square()
    assert sq.lattice_point_count(2) == 9
    assert sq.lattice_point_count(0) == 1
    p2, _ = reduce_full_dim(2)
    assert p2.lattice_point_count(1) == 13
    # Pick's theorem cross-check: area 8, boundary 8: 8 = 13 - 8/2 - 1
    interior = len(p2.interior_lattice_points())
    boundary = 13 - interior
    assert p2.normalized_volume() == 2 * (13 - boundary // 2 - 1)
    assert interior == 5


def test_point_budget():
    p4, _ = reduce_full_dim(4)
    with pytest.raises(BudgetError):
        p4.lattice_point_count(4, budget=100)
    assert p4.lattice_point_count(1, budget=10**6) == 136


def test_interior_polytope():
    p2, _ = reduce_full_dim(2)
    q = p2.interior_polytope()
    assert sorted(q.vertices()) == sorted([(0, 1), (1, 0), (2, 1), (1, 2)])
    assert unit_square().interior_polytope() is None


def test_interior_vertices_match_formula():
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        q = p.interior_polytope()
        assert sorted(q.vertices()) == sorted(interior_polytope_vertices(d))


def test_full_dimensional_vertices_need_no_copy(monkeypatch):
    # the interior polytopes span their ambient space; the violated-facet
    # loop runs on them directly and finds what it finds on their
    # index-aligned full-dimensional copy
    copies = {}
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        q = p.interior_polytope()
        copy, _, _ = q.full_dimensional()
        copies[d] = q.points, copy.vertex_indices()

    def no_copy(self):
        raise AssertionError("full_dimensional called on a full-dimensional polytope")

    monkeypatch.setattr(LatticePolytope, "full_dimensional", no_copy)
    for d, (points, expected) in copies.items():
        q = LatticePolytope(points)
        assert q.vertex_indices() == expected
        assert sorted(q.vertices()) == sorted(interior_polytope_vertices(d))


def test_doubling_identity():
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        q = p.interior_polytope()
        doubled = sorted(tuple(2 * (x - 1) for x in v) for v in q.vertices())
        shifted = sorted(tuple(x - 1 for x in v) for v in p.vertices())
        assert doubled == shifted


def test_reflexivity():
    p2, _ = reduce_full_dim(2)
    q = p2.interior_polytope().translate((-1, -1))
    assert q.is_reflexive()
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        qc = p.interior_polytope().translate((-1,) * d)
        assert qc.is_reflexive()
        assert not p.is_reflexive()
    assert not unit_square().is_reflexive()


def test_reflexive_iff_unique_interior_and_palindromic():
    # Hibi criterion spot-check through the ehrhart module
    from lapoly.ehrhart import ehrhart_counts, hstar_from_counts, is_palindromic

    p2, _ = reduce_full_dim(2)
    q = p2.interior_polytope().translate((-1, -1))
    h = hstar_from_counts(ehrhart_counts(q), 2)
    assert is_palindromic(tuple(h), 2)
    assert len(q.interior_lattice_points()) == 1
    ptilde_h = hstar_from_counts(ehrhart_counts(p2), 2)
    assert not is_palindromic(tuple(ptilde_h), 2)


def test_full_dimensional_reduction():
    diag = LatticePolytope([(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 2)])
    reduced, basis, base = diag.full_dimensional()
    assert reduced.ambient_dim == 2
    assert reduced.dim() == 2
    # coordinates reconstruct the original points
    for orig, red in zip(diag.points, reduced.points):
        rebuilt = [
            base[i] + sum(c * basis[k][i] for k, c in enumerate(red))
            for i in range(3)
        ]
        assert tuple(rebuilt) == orig


# -- closed forms and the placing pass against the scan and the fan -----------


def scan_facets(points, spanning=None):
    """The subset scan's facets as sorted ((normal, offset), tight set)."""
    found, _ = scan_hull(points, spanning)
    return [(key, found[key]) for key in sorted(found)]


def closed_facets(poly):
    return [((h.normal, h.offset), s) for h, s in zip(poly.facets(), poly.facet_vertex_sets())]


def fan_volume(points):
    return sum(abs(simplex_det([points[i] for i in c])) for c in fan_cells(points))


def random_full_dim(rng, d, n):
    """n distinct random points spanning Z^d, in random order."""
    while True:
        pts = list({tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)})
        rng.shuffle(pts)
        if len(pts) == n and LatticePolytope(pts).dim() == d:
            return pts


def random_pyramid(rng, d):
    """An iterated pyramid over a random circuit of m + 2 points in Z^m,
    m < d: its apexes have c_j = 0."""
    m = rng.randint(1, d - 1)
    base = [p + (0,) * (d - m) for p in random_full_dim(rng, m, m + 2)]
    apexes = [
        tuple(rng.randint(-2, 2) for _ in range(m))
        + tuple(rng.choice((-2, -1, 1, 2)) * (i == j) for i in range(d - m))
        for j in range(d - m)
    ]
    pts = base + apexes
    rng.shuffle(pts)
    return pts


@pytest.mark.parametrize("corank", [0, 1, 2, 3])
def test_closed_forms_match_scan_and_fan_volume(corank):
    rng = random.Random(2100 + corank)
    seen = set()
    for trial in range(200):
        d = rng.randint(1, 5)
        if corank == 1 and d > 1 and trial % 3 == 0:
            pts = random_pyramid(rng, d)
        else:
            pts = random_full_dim(rng, d, d + 1 + corank)
        poly = LatticePolytope(pts)
        found, oracle_verts = scan_hull(pts)
        assert closed_facets(poly) == [(key, found[key]) for key in sorted(found)]
        assert poly.normalized_volume() == fan_volume([pts[i] for i in oracle_verts])
        verts = poly.vertex_indices()
        assert list(verts) == oracle_verts
        seen.add(f"dim {d}")
        if len(verts) > d + 2:
            assert poly._signs() is None
            seen.add("placing")
            if max(map(len, poly.facet_vertex_sets())) > d:
                seen.add("non-simplicial")
            continue
        sign = poly._signs()
        assert tuple(sign) == verts
        if len(verts) == d + 1:
            assert not any(sign.values())
            e = det_int([[*poly.points[i], 1] for i in verts])
            seen.add("det < 0" if e < 0 else "det > 0")
        else:
            # a lone c_i of one sign would put p_i in the hull of the others
            assert min(sum(x > 0 for x in sign.values()), sum(x < 0 for x in sign.values())) >= 2
            seen.add("pyramid" if 0 in sign.values() else "circuit")
        if len(verts) < len(pts):
            seen.add("non-vertex")
    want = {f"dim {d}" for d in range(1, 6)} | [
        {"det < 0", "det > 0"}, {"pyramid", "circuit", "non-vertex"},
        {"placing", "non-simplicial", "circuit", "non-vertex"},
        {"placing", "non-simplicial", "circuit", "non-vertex"}][corank]
    assert want <= seen


def interior_points(d):
    """The lattice points of the interior polytope of the reduced
    polytope, and the positions of its vertices by their formula."""
    q = reduce_full_dim(d)[0].interior_polytope()
    return list(q.points), [q.points.index(v) for v in interior_polytope_vertices(d)]


def named_hull(name):
    """(points, indices whose d-subsets the scan tries, or None for all)."""
    if name.endswith("cube"):
        return list(product((0, 1), repeat=int(name[0]))), None
    if name == "cube-grid":
        return list(product((0, 1, 2), repeat=3)), None
    return interior_points(int(name[-1]))


@pytest.mark.parametrize("name", ["3-cube", "4-cube", "cube-grid", "interior-4", "interior-6"])
def test_degenerate_hulls_match_scan_and_fan_volume(name):
    """The cubes have non-simplicial facets.  The grid is 2 times the
    3-cube with all its lattice points: an edge midpoint lies on two
    facets, a face centre on one and the body centre on none, and none is
    a vertex.  The interior polytopes have many more lattice points than
    vertices; the pass finds the dim + 2 vertices and the circuit form
    their facets.  The d = 6 scan spans its hyperplanes by the vertex
    formula's points, and the fan runs on those points alone."""
    pts, spanning = named_hull(name)
    poly = LatticePolytope(pts)
    d = poly.dim()
    assert closed_facets(poly) == scan_facets(pts, spanning)
    verts = poly.vertex_indices()
    assert poly.normalized_volume() == fan_volume([pts[i] for i in verts])
    if name.endswith("cube"):
        assert len(verts) == 2 ** d and {len(s) for s in poly.facet_vertex_sets()} == {2 ** (d - 1)}
    elif name == "cube-grid":
        on = [sum(h.value(p) == h.offset for h in poly.facets()) for p in pts]
        assert sorted(on) == [0] + [1] * 6 + [2] * 12 + [3] * 8
        assert [i for i in range(len(pts)) if on[i] == 3] == list(verts)
    else:
        assert len(verts) == d + 2 < len(pts) and poly._signs() is not None
        assert sorted(verts) == sorted(spanning)


def proportional(c, e):
    """c = t e for some t != 0, for a nonzero e."""
    return any(c) and all(a * y == b * x for (a, b), (x, y) in combinations(zip(c, e), 2))


def test_dependency_matches_rref_oracle():
    rng = random.Random(2103)
    seen = set()
    for trial in range(240):
        d = rng.randint(1, 5)
        pts = random_pyramid(rng, d) if d > 1 and trial % 3 == 0 else random_full_dim(rng, d, d + 2)
        poly = LatticePolytope(pts)
        # the copy reads its dependency from the preset Smith form before
        # the parent has one to hand down
        reduced, _, _ = poly.full_dimensional()
        c = reduced._dependency()
        (oracle,) = nullspace(list(zip(*pts)) + [(1,) * len(pts)])
        assert proportional(poly._dependency(), oracle)
        assert proportional(c, oracle)
        assert proportional(LatticePolytope(reduced.points)._dependency(), oracle)
        seen.add(f"dim {d}")
        if 0 in c:
            seen.add("pyramid")
        if len(poly.vertex_indices()) < len(pts):
            seen.add("non-vertex")
    assert seen == {f"dim {d}" for d in range(1, 6)} | {"pyramid", "non-vertex"}


@pytest.mark.parametrize("d", range(1, 9))
def test_closed_forms_on_reduced_boundary_polytopes(d):
    # the carriers that verify_triangulation reads facets and volume from
    p, _ = reduce_full_dim(d)
    # a simplex for odd d, d + 2 vertices in dimension d for even d
    assert len(p.vertex_indices()) == p.dim() + 2 - d % 2
    assert closed_facets(p) == scan_facets(p.points)
    assert p.normalized_volume() == fan_volume(p.points)


def test_placing_only_beyond_dim_plus_two_vertices(monkeypatch):
    cube = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    triangle = LatticePolytope([(0, 0), (2, 0), (0, 1)])
    calls = []
    place = LatticePolytope._place
    monkeypatch.setattr(
        LatticePolytope, "_place", lambda self: calls.append(self) or place(self))
    for poly in (unit_square(), triangle, cube):
        poly.vertex_indices()
        poly.facets()
        poly.facet_vertex_sets()
        poly.normalized_volume()
    assert calls == [cube] and cube._signs() is None


@pytest.mark.parametrize("name", ["reduced-4", "interior-4"])
def test_one_inverse_per_circuit_cell(name, monkeypatch):
    """Facets, tight sets and volume of a polytope with dim + 2 vertices
    come from one `solve_int` per cell of its circuit triangulation, taken
    once however often they are read.  The vertices are found before
    counting; the interior polytope's need the placing pass, whose first
    simplex is inverted too."""
    poly = reduce_full_dim(4)[0] if name == "reduced-4" else LatticePolytope(interior_points(4)[0])
    d, verts = poly.dim(), poly.vertex_indices()
    assert len(verts) == d + 2 <= len(poly.points)
    solves = []
    solve = polytope.solve_int
    monkeypatch.setattr(polytope, "solve_int",
                        lambda rows, rhs: solves.append(rows) or solve(rows, rhs))
    for _ in range(2):
        facets, sets, volume = poly.facets(), poly.facet_vertex_sets(), poly.normalized_volume()
    assert combinatorially_equivalent(poly, poly)[0]
    # Sum h* = (d + 2)^d, and the interior polytope is half as wide
    assert volume == ((d + 2) // (1 if name == "reduced-4" else 2)) ** d
    assert len(facets) == len(sets) > d
    sign = poly._signs()
    side = min(([i for i in sign if sign[i] == s] for s in (1, -1)), key=len)
    cells = sorted(sorted(poly.points[i] for i in verts if i != k) for k in side)
    # a cell's inverse has its d + 1 homogenized points as rows; the
    # dependency solve of the vertex sub-polytope has d + 2 rows
    inverted = [sorted(tuple(r[:-1]) for r in rows) for rows in solves if len(rows) == d + 1]
    assert sorted(inverted) == cells


def test_oracles_run_no_placing_pass(monkeypatch):
    def refuse(self):
        raise AssertionError("an oracle ran the placing pass")

    monkeypatch.setattr(LatticePolytope, "_place", refuse)
    # the unit 4-cube has volume 4!, the 3-cube of side 2 has 2^3 * 3!
    for pts, volume in ((list(product((0, 1), repeat=4)), 24),
                        (list(product((0, 1, 2), repeat=3)), 48)):
        facets, verts = scan_hull(pts)
        assert len(verts) == 2 ** len(pts[0]) and len(facets) == 2 * len(pts[0])
        assert fan_volume(pts) == volume


def test_affine_hull_equations_are_saturated():
    # the normals of the kernel, (1, 0, -2) and (0, 2, -2), miss (0, 1, -1)
    dim, eqs = LatticePolytope([(0, 0, 0), (2, 1, 1)]).affine_hull()
    assert (dim, eqs) == (1, [((1, 0, -2), 0), ((0, 1, -1), 0)])
    rng = random.Random(2101)
    for _ in range(60):
        n, r = rng.randint(2, 5), rng.randint(0, 3)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        base = [rng.randint(-3, 3) for _ in range(n)]
        pts = {tuple(b + sum(rng.randint(-2, 2) * g[i] for g in gens) for i, b in enumerate(base))
               for _ in range(6)}
        poly = LatticePolytope(pts)
        dim, eqs = poly.affine_hull()
        assert len(eqs) == n - dim
        assert all(sum(map(mul, a, p)) == b for a, b in eqs for p in pts)
        # a lattice basis is saturated iff its maximal minors have gcd 1
        normals = [a for a, _ in eqs]
        minors = [det_int([[a[j] for j in cols] for a in normals])
                  for cols in combinations(range(n), len(normals))]
        assert gcd(*minors) == 1


def test_preset_reduced_hull_matches_recomputed():
    rng = random.Random(2102)
    polys = [laplacian_polytope(boundary_of_simplex(d + 1), k)
             for d in range(1, 5) for k in range(d + 1)]
    for _ in range(40):
        n = rng.randint(1, 5)
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        polys.append(LatticePolytope(
            {tuple(sum(rng.randint(-2, 2) * g[i] for g in gens) for i in range(n))
             for _ in range(5)}))
    for poly in polys:
        reduced, _, _ = poly.full_dimensional()
        # the preset Smith form of the copy has V = V^-1 = I
        assert reduced._smith[2] == reduced._smith[3] == [
            [int(i == j) for j in range(reduced.ambient_dim)] for i in range(reduced.ambient_dim)]
        assert reduced.affine_hull() == LatticePolytope(reduced.points).affine_hull()
