import random
from fractions import Fraction

import pytest

from lapoly import lp
from lapoly.linalg import (
    ExactMatrix,
    det_int,
    hnf,
    nullspace,
    primitive_vector,
    rank,
    saturation_basis,
    snf_with_transform,
    solve,
    solve_int,
)


def det_cofactor(m):
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(sub)
    return total


def test_det_matches_cofactor_expansion():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(0, 5)
        m = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == det_cofactor(m)


def test_solve_int_is_det_times_solve():
    rng = random.Random(13)
    cases = [
        [[0, 1, 2], [1, 0, 3], [4, 5, 6]],  # zero corner: pivot swap
        [[0, 0, 1], [0, 2, 0], [3, 0, 0]],  # swap at every step
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular, found late
        [[0, 0], [0, 0]],  # singular, no first pivot
        [[2, 0], [0, 3]],  # |det| > 1
    ]
    cases += [
        [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        for n in (rng.randint(1, 6) for _ in range(300))
    ]
    seen = set()
    for a in cases:
        n = len(a)
        rhs = [[rng.randint(-9, 9) for _ in range(n)]
               for _ in range(rng.randint(0, 3))]
        det, sols = solve_int(a, rhs)
        assert det == det_int(a) == det_cofactor(a)
        assert (rank(a) == n) == (det != 0)
        if det == 0:
            assert sols is None
            seen.add("singular")
            continue
        seen.add("unimodular" if abs(det) == 1 else "large det")
        if a[0][0] == 0:
            seen.add("pivot swap")
        assert len(sols) == len(rhs)
        for b, x in zip(rhs, sols):
            assert all(type(v) is int for v in x)
            assert x == [det * v for v in solve(a, b)]
    assert seen == {"singular", "unimodular", "large det", "pivot swap"}


def test_rank_and_nullspace():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank(m) == 2
    for v in nullspace(m):
        assert all(sum(r * x for r, x in zip(row, v)) == 0 for row in m)


def test_solve_consistency():
    m = [[2, 1], [1, 3]]
    x = solve(m, [5, 5])
    assert x == [Fraction(2), Fraction(1)]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_primitive_vector():
    assert primitive_vector([Fraction(2, 3), Fraction(4, 3)]) == [1, 2]
    assert primitive_vector([4, -6]) == [2, -3]
    assert primitive_vector([0, 0]) == [0, 0]


def test_hnf_canonical_for_row_lattice():
    a = [[2, 0], [0, 2], [1, 1]]
    b = [[1, 1], [0, 2], [2, 0]]
    assert hnf(a) == hnf(b)
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_randomized():
    rng = random.Random(5)
    for _ in range(200):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        u, s, v = snf_with_transform(a)
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        assert mat_mul(mat_mul(u, s), v) == a
        diag = [s[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i] == 0:
                assert diag[i + 1] == 0
            else:
                assert diag[i + 1] % diag[i] == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert s[i][j] == 0


def test_saturation_basis():
    basis = saturation_basis([[2, 0, 0], [0, 3, 0]])
    assert len(basis) == 2
    # e1 and e2 must lie in the saturation
    got = hnf(basis)
    assert got == [[1, 0, 0], [0, 1, 0]]


def test_exact_matrix_mul_and_zero_shapes():
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[0, 1], [1, 0]])
    assert (a * b).entries == [[2, 1], [4, 3]]
    tall = ExactMatrix.zero(3, 0)
    wide = tall.T
    assert (tall * wide).entries == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert (wide * tall).rows == 0


def test_lp_optimum_and_statuses():
    res = lp.solve_lp([1, 1], a_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]],
                      b_ub=[2, 3, 0, 0])
    assert res.status == lp.OPTIMAL and res.value == 5
    assert lp.solve_lp([1], a_ub=[[-1]], b_ub=[-4],
                       a_eq=[[1]], b_eq=[3]).status == lp.INFEASIBLE
    assert lp.solve_lp([1], a_ub=[[-1]], b_ub=[0]).status == lp.UNBOUNDED


def test_lp_against_vertex_enumeration():
    rng = random.Random(3)
    from itertools import combinations

    for _ in range(40):
        a_ub = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b_ub = [rng.randint(1, 4), rng.randint(0, 3),
                rng.randint(1, 4), rng.randint(0, 3)]
        for _ in range(3):
            a_ub.append([rng.randint(-3, 3), rng.randint(-3, 3)])
            b_ub.append(rng.randint(-2, 6))
        c = [rng.randint(-4, 4), rng.randint(-4, 4)]
        res = lp.solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        best = None
        for i, j in combinations(range(len(a_ub)), 2):
            det = a_ub[i][0] * a_ub[j][1] - a_ub[i][1] * a_ub[j][0]
            if det == 0:
                continue
            x = Fraction(b_ub[i] * a_ub[j][1] - a_ub[i][1] * b_ub[j], det)
            y = Fraction(a_ub[i][0] * b_ub[j] - b_ub[i] * a_ub[j][0], det)
            if all(a_ub[k][0] * x + a_ub[k][1] * y <= b_ub[k]
                   for k in range(len(a_ub))):
                val = c[0] * x + c[1] * y
                best = val if best is None else max(best, val)
        if res.status == lp.OPTIMAL:
            assert best is not None and res.value == best
        elif res.status == lp.INFEASIBLE:
            assert best is None


def test_point_in_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert lp.point_in_hull((1, 1), square)
    assert not lp.point_in_hull((3, 1), square)
    assert lp.point_in_hull((2, 2), [(0, 0), (2, 2), (4, 4)])


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([(0, 0), (2, 0), (0, 2)], [(1, 1), (3, 1), (1, 3)], False),
        ([(0, 0), (2, 0), (0, 2)], [(0, 0), (2, 0), (0, 2)], True),
        ([(0, 0), (3, 0), (0, 3)], [(1, 1), (2, 1), (1, 2)], True),
        ([(0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], False),
    ],
)
def test_simplices_interior_overlap(a, b, expected):
    assert lp.simplices_interior_overlap(a, b) is expected
