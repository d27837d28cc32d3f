from itertools import combinations
from pathlib import Path

import pytest

import lapoly.laplacian as laplacian
import lapoly.linalg as la
from lapoly.complexes import boundary_of_simplex, from_facets
from lapoly.laplacian import (
    LaplacianOrderingError,
    interior_polytope_vertices,
    laplacian_boundary_simplex,
    laplacian_matrix,
    laplacian_polytope,
    reduce_full_dim,
    reduced_vertices,
)
from oracles import dense_laplacian, full_simplex, homology_dimension, rank

BENCH = Path(__file__).resolve().parent.parent / "bench"


def four_cycle(ordering=(1, 2, 3, 4)):
    return from_facets([{1, 2}, {2, 3}, {3, 4}, {1, 4}], ordering)


def test_closed_form_small_d():
    assert laplacian_boundary_simplex(0) == [[0, 0], [0, 0]]
    assert laplacian_boundary_simplex(1) == [
        [2, 1, -1], [1, 2, 1], [-1, 1, 2]]
    assert laplacian_boundary_simplex(2) == [
        [3, 1, -1, 1], [1, 3, 1, -1], [-1, 1, 3, 1], [1, -1, 1, 3]]


def test_closed_form_matches_construction_up_to_d6():
    # the constructor itself cross-checks the permuted laplacian_matrix
    for d in range(0, 7):
        lap = laplacian_boundary_simplex(d)
        assert lap == [list(col) for col in zip(*lap)]


def test_four_cycle_laplacian_entries():
    c = four_cycle()
    lap = laplacian_matrix(c, 1)
    faces = list(c.faces(1))
    perm = [faces.index(f) for f in [(0, 1), (1, 2), (2, 3), (0, 3)]]
    got = [[lap[perm[i]][perm[j]] for j in range(4)]
           for i in range(4)]
    assert got == [[2, -1, 0, 1], [-1, 2, -1, 0], [0, -1, 2, 1], [1, 0, 1, 2]]


def test_graph_laplacian_at_index_zero():
    c = four_cycle()
    lap = laplacian_matrix(c, 0)
    assert lap == [
        [2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]


def test_sparse_assembly_matches_dense_oracle_on_simplex_boundaries():
    for dim_plus_1 in range(1, 9):
        c = boundary_of_simplex(dim_plus_1)
        for k in range(c.dim + 1):
            assert laplacian_matrix(c, k) == dense_laplacian(c, k), (dim_plus_1, k)


def test_sparse_assembly_matches_dense_oracle_on_complex_build_corpus(monkeypatch):
    # the benchmark's seeded complexes, every Laplacian index of each
    monkeypatch.syspath_prepend(str(BENCH))
    from worker import draw_complexes

    for seed in range(1, 11):
        for drawn in draw_complexes(seed, 0):
            c = from_facets(drawn["facets"], drawn["order"])
            for k in range(c.dim + 1):
                assert laplacian_matrix(c, k) == dense_laplacian(c, k), (seed, drawn)


def corrupt_assembly(monkeypatch, a, b):
    """Make the assembly add 1 at entry (a, b) after its first outer
    product."""
    real = laplacian._add_star
    done = []

    def corrupted(lap, star):
        real(lap, star)
        if not done:
            lap[a][b] += 1
            done.append(True)

    monkeypatch.setattr(laplacian, "_add_star", corrupted)


@pytest.mark.parametrize("pair", [((0, 1), (2, 3)), ((0, 1), (0, 2)), ((1, 2), (1, 2))],
                         ids=["off-candidate", "candidate", "diagonal"])
def test_corrupted_assembled_entry_is_caught(pair, monkeypatch):
    c = boundary_of_simplex(3)
    faces = list(c.faces(1))
    a, b = (faces.index(f) for f in pair)
    corrupt_assembly(monkeypatch, a, b)
    with pytest.raises(LaplacianOrderingError, match="Laplacian entry"):
        laplacian_matrix(c, 1)


@pytest.mark.parametrize("k", [0, 1])
def test_corrupted_rule_sign_is_caught(k, monkeypatch):
    real = laplacian._combinatorial_entry

    def negated(i, upper, degree, f, g):
        value = real(i, upper, degree, f, g)
        return value if f == g else -value

    monkeypatch.setattr(laplacian, "_combinatorial_entry", negated)
    with pytest.raises(LaplacianOrderingError, match="Laplacian entry"):
        laplacian_matrix(four_cycle(), k)


@pytest.mark.parametrize("c, k", [(boundary_of_simplex(8), 3), (boundary_of_simplex(5), 1),
                                  (four_cycle(), 0), (four_cycle(), 1)],
                         ids=["bd8-k3", "bd5-k1", "cycle-k0", "cycle-k1"])
def test_rule_runs_on_diagonal_and_candidates_only(c, k, monkeypatch):
    real = laplacian._combinatorial_entry
    pairs = []

    def counted(i, upper, degree, f, g):
        pairs.append((f, g))
        return real(i, upper, degree, f, g)

    monkeypatch.setattr(laplacian, "_combinatorial_entry", counted)
    laplacian_matrix(c, k)
    faces = c.faces(k)
    if k == 0:
        candidates = [((u,), (v,)) for e in c.faces(1) for u, v in (e, e[::-1])]
    else:
        candidates = [(f, g) for f in faces for g in faces
                      if f != g and len(set(f) & set(g)) == k]
    assert sorted(pairs) == sorted([(f, f) for f in faces] + candidates)
    assert len(pairs) < len(faces) ** 2


def test_laplacian_diagonal_rule():
    # diagonal = upper degree + i + 1 for i > 0
    c = boundary_of_simplex(3)
    lap = laplacian_matrix(c, 1)
    for idx, face in enumerate(c.faces(1)):
        deg = sum(1 for up in c.faces(2) if set(face) <= set(up))
        assert lap[idx][idx] == deg + 2


def test_index_out_of_range():
    c = four_cycle()
    with pytest.raises(IndexError):
        laplacian_matrix(c, 2)
    with pytest.raises(IndexError):
        laplacian_polytope(c, -1)


def test_rank_facts():
    for d in range(1, 7):
        mat = laplacian_boundary_simplex(d)
        n = d + 2
        assert rank(mat) == d + 1
        cols = list(zip(*mat))
        for sub in combinations(range(n), d + 1):
            rows = [[cols[j][i] for j in sub] for i in range(n)]
            assert rank(rows) == d + 1
        stacked = mat + [[1] * n]
        expected = d + 1 if d % 2 == 0 else d + 2
        assert rank(stacked) == expected


def test_polytope_vertex_count_and_dim():
    for d in range(1, 6):
        p = laplacian_polytope(boundary_of_simplex(d + 1), d)
        assert len(p.vertex_indices()) == d + 2
        assert p.dim() == (d if d % 2 == 0 else d + 1)


def test_vertex_count_general_corpus():
    corpus = [
        (four_cycle(), 1),
        (four_cycle(), 0),
        (boundary_of_simplex(3), 1),
        (full_simplex(2), 1),
        (from_facets([{1, 2, 3}, {2, 3, 4}], [1, 2, 3, 4]), 2),
    ]
    for c, k in corpus:
        p = laplacian_polytope(c, k)
        assert len(p.vertex_indices()) == len(c.faces(k))


def test_simplex_criterion_on_balls():
    # H_d = 0 forces a simplex with f_d vertices
    balls = [
        full_simplex(2),
        full_simplex(3),
        from_facets([{1, 2, 3}, {2, 3, 4}], [1, 2, 3, 4]),
        from_facets([{1, 2, 3}, {2, 3, 4}, {3, 4, 5}], [1, 2, 3, 4, 5]),
    ]
    for c in balls:
        d = c.dim
        assert homology_dimension(c, d) == 0
        p = laplacian_polytope(c, d)
        assert p.dim() == len(c.faces(d)) - 1
        assert len(p.vertex_indices()) == len(c.faces(d))


def test_ordering_changes_dimension():
    assert laplacian_polytope(four_cycle((1, 2, 3, 4)), 1).dim() == 3
    assert laplacian_polytope(four_cycle((1, 2, 4, 3)), 1).dim() == 2


def test_affine_hull_equations():
    p = laplacian_polytope(boundary_of_simplex(3), 2)
    dim, eqs = p.affine_hull()
    assert dim == 2
    assert la.hnf([[1, 0, 1, 0], [0, 1, 0, 1]]) == la.hnf([list(n) for n, _ in eqs])
    for n, b in eqs:
        if list(n) == [1, 0, 1, 0]:
            assert b == 2
        if list(n) == [0, 1, 0, 1]:
            assert b == 2

    p = laplacian_polytope(boundary_of_simplex(2), 1)
    dim, eqs = p.affine_hull()
    assert dim == 2
    assert eqs == [((1, -1, 1), 0)]


def test_affine_hull_even_d_sums():
    for d in (2, 4):
        p = laplacian_polytope(boundary_of_simplex(d + 1), d)
        n = d + 2
        odd = [1 if k % 2 == 1 else 0 for k in range(1, n + 1)]
        even = [1 if k % 2 == 0 else 0 for k in range(1, n + 1)]
        for v in p.points:
            assert sum(o * x for o, x in zip(odd, v)) == (d + 2) // 2
            assert sum(e * x for e, x in zip(even, v)) == (d + 2) // 2


def test_reduce_full_dim():
    p2, transform = reduce_full_dim(2)
    assert sorted(p2.points) == sorted([(1, -1), (-1, 1), (3, 1), (1, 3)])
    assert transform is not None and abs(la.det_int(transform)) == 1
    p1, _ = reduce_full_dim(1)
    assert p1.normalized_volume() == 3
    p0, transform0 = reduce_full_dim(0)
    assert transform0 is None and p0.points == ((),)
    for d in range(1, 7):
        p, transform = reduce_full_dim(d)
        n = d + 2
        assert p.ambient_dim == (d if d % 2 == 0 else d + 1)
        assert p.dim() == p.ambient_dim
        assert p.points == tuple(reduced_vertices(d))
        # the transform maps each Laplacian column to a constant head of
        # 2 (even d) or 1 (odd d) rows, then the polytope's coordinates
        drop = 2 if d % 2 == 0 else 1
        constant = (n // 2, n // 2) if d % 2 == 0 else (0,)
        images = [
            [sum(a * b for a, b in zip(row, col)) for row in transform]
            for col in zip(*laplacian_boundary_simplex(d))
        ]
        assert len(transform) == n and abs(la.det_int(transform)) == 1
        assert {tuple(im[:drop]) for im in images} == {constant}
        assert tuple(tuple(im[drop:]) for im in images) == p.points


def test_reduce_full_dim_builds_the_laplacian_once(monkeypatch):
    expected = {}
    for d in range(1, 7):
        p, transform = reduce_full_dim(d)
        expected[d] = (p.points, transform)
    real = laplacian.laplacian_boundary_simplex
    calls = []

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(laplacian, "laplacian_boundary_simplex", counted)
    for d in range(1, 7):
        calls.clear()
        p, transform = reduce_full_dim(d)
        assert calls == [d]
        assert (p.points, transform) == expected[d]


def test_interior_polytope_vertex_formula():
    for d in (2, 4, 6):
        cs = interior_polytope_vertices(d)
        bs = reduced_vertices(d)
        assert len(cs) == d + 2
        for c, b in zip(cs, bs):
            assert tuple(2 * x - 1 for x in c) == b
    with pytest.raises(ValueError):
        interior_polytope_vertices(3)


def test_odd_padding_leaves_the_next_polytope():
    # zero-padding does not embed P_d into P_{d+2} for odd d: every padded
    # vertex of P_d violates some facet inequality of P_{d+2}
    for d in (1, 3, 5):
        small, _ = reduce_full_dim(d)
        big, _ = reduce_full_dim(d + 2)
        for v in small.points:
            padded = v + (0,) * (big.ambient_dim - small.ambient_dim)
            assert any(h.value(padded) > h.offset for h in big.facets())
