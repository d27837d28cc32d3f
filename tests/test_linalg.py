import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from lapoly import lp
from lapoly.linalg import (
    _back_substitute,
    _echelon,
    _pivot_minor,
    hnf,
    snf_with_transform,
    solve_int,
)
from lapoly.polytope import LatticePolytope
from oracles import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    det_int,
    point_in_hull,
    primitive_vector,
    rank,
    reference_lp,
    rref,
    ub_form,
)


def det_cofactor(m):
    """Cofactor (Laplace) expansion along the rows, memoised on the column
    subset, so a 7 x 7 matrix takes 2^7 minors instead of 7! terms."""
    minors = {(): 1}
    for i, row in enumerate(m):
        minors = {
            cols: sum(
                (-1) ** (len(cols) - 1 - pos) * row[j] * minors[cols[:pos] + cols[pos + 1:]]
                for pos, j in enumerate(cols)
            )
            for cols in combinations(range(len(m)), i + 1)
        }
    return minors[tuple(range(len(m)))]


def oracle_solve(rows, rhs):
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    for row in m:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        if p == ncols:
            return None
        x[p] = m[r][-1]
    return x


def solve(rows, rhs):
    """Solve A x = b on the fraction-free elimination of `lapoly.linalg`:
    one solution (0 at every free unknown), or None if inconsistent.  The
    rref oracle checks it, and it is the oracle for `solve_int`."""
    ncols = len(rows[0]) if rows else 0
    m = []
    for row in (list(map(Fraction, r)) + [Fraction(b)] for r, b in zip(rows, rhs)):
        s = lcm(*(x.denominator for x in row))  # integer rows, same solutions
        m.append([int(x * s) for x in row])
    pivots, _ = _echelon(m, ncols)
    if any(row[ncols] for row in m[len(pivots):]):
        return None
    det = _pivot_minor(m, pivots)
    (x,) = _back_substitute(m, pivots, ncols, [ncols], det)
    return [Fraction(v, det) for v in x]


def simplices_interior_overlap(cell_a, cell_b):
    """Do two full-dimensional simplices have intersecting interiors?

    Maximizes the smallest barycentric coordinate of a common point by an
    exact LP; the interiors meet iff the optimum is strictly positive.  The
    pairwise oracle of the triangulation certificate.
    """
    na, nb = len(cell_a), len(cell_b)
    dim = len(cell_a[0])
    nvars = na + nb + 1  # lambdas, mus, s
    a_eq = [[p[i] for p in cell_a] + [-q[i] for q in cell_b] + [0] for i in range(dim)]
    a_eq.append([1] * na + [0] * nb + [0])
    a_eq.append([0] * na + [1] * nb + [0])
    b_eq = [0] * dim + [1, 1]
    a_ub, b_ub = ub_form(a_eq, b_eq, na + nb)  # coords >= 0, s free
    for j in range(na + nb):
        row = [0] * nvars
        row[j] = -1
        row[-1] = 1
        a_ub.append(row)  # s - coord_j <= 0
    a_ub.append([0] * (nvars - 1) + [1])  # s <= 1
    b_ub += [0] * (na + nb) + [1]
    res = reference_lp([0] * (na + nb) + [1], a_ub, b_ub)
    if res.status == INFEASIBLE:
        return False
    assert res.status == OPTIMAL
    return res.value > 0


def assert_matches_oracle(a, rhs):
    """solve equals the rref oracle exactly (Fraction entries, None where
    inconsistent); for a square matrix, det and solve_int equal the
    cofactor expansion and the oracle.  Returns (rank, solution)."""
    expected_rank = rank(a)
    got = solve(a, rhs)
    expected = oracle_solve(a, rhs)
    assert got == expected
    assert got is None or all(type(x) is Fraction for x in got)
    if len(a) == len(a[0]):
        det = det_cofactor(a)
        if all(type(x) is int for row in a for x in row):
            assert det_int(a) == det
            d, sols = solve_int(a, [rhs])
            assert d == det
            if det == 0:
                assert sols is None
            else:
                assert sols == [[det * x for x in expected]]
    return expected_rank, got


def test_elimination_matches_rref_oracle():
    rng = random.Random(17)
    seen = set()
    for _ in range(5000):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        k = rng.randint(0, min(r, c))  # the rank, by construction
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
        a = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)]
             for i in range(r)]
        if rng.random() < 0.15:
            a = [[Fraction(x, rng.randint(1, 5)) for x in row] for row in a]
            seen.add("rational")
        if rng.random() < 0.5:
            x = [rng.randint(-3, 3) for _ in range(c)]
            rhs = [sum(v * w for v, w in zip(row, x)) for row in a]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(r)]
        n, x = assert_matches_oracle(a, rhs)
        seen.add("full rank" if n == min(r, c) else "rank-deficient")
        seen.add("consistent" if x is not None else "inconsistent")
        seen.add("wide" if c > r else "tall" if r > c else "square")
    assert seen == {"rational", "full rank", "rank-deficient", "consistent",
                    "inconsistent", "wide", "tall", "square"}


@pytest.mark.parametrize("a,rhs", [
    ([[0, 1, 2], [0, 3, 4]], [1, 2]),  # zero leading column
    ([[0, 0, 1], [0, 0, 2], [0, 0, 3]], [1, 2, 3]),  # two zero leading columns
    ([[0, 0], [0, 0]], [0, 0]),  # zero matrix, consistent
    ([[0, 0, 0]], [1]),  # zero matrix, inconsistent
    ([[1, 2, 3, 4], [2, 4, 6, 9]], [1, 3]),  # wide
    ([[1, 2], [3, 4], [5, 6], [7, 8]], [1, 1, 1, 1]),  # tall, consistent
    ([[1, 2], [3, 4], [5, 6], [7, 8]], [1, 1, 1, 2]),  # tall, inconsistent
    ([[1, 1], [1, 1]], [0, 1]),  # square singular, inconsistent
    ([[Fraction(1, 2), Fraction(1, 3)], [1, 0]], [Fraction(5, 6), 1]),
], ids=["zero-col", "zero-cols", "zero", "zero-inconsistent", "wide",
        "tall", "tall-inconsistent", "singular-inconsistent", "rational"])
def test_elimination_named_cases(a, rhs):
    assert_matches_oracle(a, rhs)


def test_solve_named_cases():
    assert solve([[0, 1, 2], [0, 3, 4]], [1, 2]) == [0, 0, Fraction(1, 2)]
    assert solve([[0, 0, 0]], [1]) is None
    assert solve([[1, 2], [3, 4], [5, 6], [7, 8]], [1, 1, 1, 2]) is None


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
        u, s, v, vinv = snf_with_transform(a)
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        assert mat_mul(mat_mul(u, s), v) == a
        assert mat_mul(v, vinv) == [[int(i == j) for j in range(c)] for i in range(c)]
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
    # the Smith basis of the affine hull spans its saturated lattice:
    # e1 and e2, though the points differ by 2 e1 and 3 e2
    _, basis, _ = LatticePolytope([(0, 0, 0), (2, 0, 0), (0, 3, 0)]).full_dimensional()
    assert len(basis) == 2
    assert hnf(basis) == [[1, 0, 0], [0, 1, 0]]


def test_lp_optimum_and_statuses():
    res = reference_lp([1, 1], a_ub=[[1, 0], [0, 1], [-1, 0], [0, -1]],
                        b_ub=[2, 3, 0, 0])
    assert res.status == OPTIMAL and res.value == 5
    # x >= 4 and x = 3, the equality as two rows
    assert reference_lp([1], a_ub=[[-1], [1], [-1]],
                        b_ub=[-4, 3, -3]).status == INFEASIBLE
    assert reference_lp([1], a_ub=[[-1]], b_ub=[0]).status == UNBOUNDED


def test_lp_against_vertex_enumeration():
    rng = random.Random(3)

    for _ in range(40):
        a_ub = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        b_ub = [rng.randint(1, 4), rng.randint(0, 3),
                rng.randint(1, 4), rng.randint(0, 3)]
        for _ in range(3):
            a_ub.append([rng.randint(-3, 3), rng.randint(-3, 3)])
            b_ub.append(rng.randint(-2, 6))
        c = [rng.randint(-4, 4), rng.randint(-4, 4)]
        res = reference_lp(c, a_ub=a_ub, b_ub=b_ub)
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
        if res.status == OPTIMAL:
            assert best is not None and res.value == best
        elif res.status == INFEASIBLE:
            assert best is None


def test_one_phase_lp_against_vertex_enumeration():
    # max c.x over A x <= b, x >= 0 with b >= 0, in two variables: the
    # optimum is the best feasible vertex, where two of the rows, the
    # sign rows included, are tight; it is unbounded iff a ray of the
    # recession cone, which lies on one row's line, raises c
    rng = random.Random(5)
    unbounded = bounded = 0
    for _ in range(150):
        a_ub = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(rng.randint(1, 4))]
        b_ub = [rng.choice([0, 0, rng.randint(1, 6)]) for _ in a_ub]  # b = 0 rows: degenerate
        c = [rng.randint(-4, 4), rng.randint(-4, 4)]
        rows = a_ub + [[-1, 0], [0, -1]]
        rhs = b_ub + [0, 0]

        def feasible(x, y, b):
            return all(r[0] * x + r[1] * y <= v for r, v in zip(rows, b))

        rays = [(s * -r[1], s * r[0]) for r in rows for s in (1, -1)]
        if any(feasible(*r, [0] * len(rows)) and c[0] * r[0] + c[1] * r[1] > 0 for r in rays):
            assert lp.solve_lp(c, a_ub, b_ub) is None
            unbounded += 1
            continue
        best = None
        for i, j in combinations(range(len(rows)), 2):
            det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            if det == 0:
                continue
            x = Fraction(rhs[i] * rows[j][1] - rows[i][1] * rhs[j], det)
            y = Fraction(rows[i][0] * rhs[j] - rhs[i] * rows[j][0], det)
            if feasible(x, y, rhs):
                val = c[0] * x + c[1] * y
                best = val if best is None else max(best, val)
        value, x = lp.solve_lp(c, a_ub, b_ub)
        assert value == best == c[0] * x[0] + c[1] * x[1] and feasible(*x, rhs)
        bounded += 1
    assert unbounded >= 20 and bounded >= 20


def test_one_phase_lp_agrees_with_the_reference_lp():
    rng = random.Random(7)
    statuses = []
    for _ in range(200):
        n, m = rng.randint(1, 4), rng.randint(1, 5)
        a_ub = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.choice([0, rng.randint(1, 5)]) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        signs = [[-int(k == j) for k in range(n)] for j in range(n)]
        ref = reference_lp(c, a_ub + signs, b_ub + [0] * n)
        res = lp.solve_lp(c, a_ub, b_ub)
        statuses.append(ref.status)
        if ref.status == UNBOUNDED:
            assert res is None
            continue
        assert ref.status == OPTIMAL
        value, x = res
        assert value == ref.value == sum(a * b for a, b in zip(c, x))
        assert min(x) >= 0 and all(
            sum(a * b for a, b in zip(row, x)) <= b for row, b in zip(a_ub, b_ub))
    assert statuses.count(UNBOUNDED) >= 20 and statuses.count(OPTIMAL) >= 20


def test_one_phase_lp_rejects_a_negative_right_hand_side():
    with pytest.raises(ValueError, match="b_ub >= 0"):
        lp.solve_lp([1], [[1], [-1]], [3, -1])


def test_point_in_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert point_in_hull((1, 1), square)
    assert not point_in_hull((3, 1), square)
    assert point_in_hull((2, 2), [(0, 0), (2, 2), (4, 4)])


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
    assert simplices_interior_overlap(a, b) is expected
