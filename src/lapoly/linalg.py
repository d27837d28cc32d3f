"""Exact linear algebra over the rationals and the integers.

A matrix is a plain list of rows, as everywhere in this package.
Everything in this package runs on exact arithmetic, and one fraction-free
elimination serves it: rank, kernels, solves and determinants all run on
the integer Bareiss loop `_echelon` and one exact back-substitution.
Rational input rows are first scaled to integer rows.  Results are
integers or `fractions.Fraction`s.  No floating point, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _integer_rows(rows):
    """Each row scaled by the lcm of its denominators to an integer row, so
    the row space is unchanged."""
    out = []
    for row in rows:
        if all(isinstance(x, int) for x in row):
            out.append(list(row))
            continue
        fracs = [Fraction(x) for x in row]
        s = lcm(*(x.denominator for x in fracs))
        out.append([int(x * s) for x in fracs])
    return out


def _echelon(m, ncols):
    """Fraction-free (Bareiss) row echelon form of the integer matrix m over
    its first ncols columns, in place; trailing columns ride along.

    Zero columns are skipped, so m may be rectangular and rank-deficient.
    Returns (pivot columns p_0 < p_1 < ..., sign of the row permutation).
    Afterwards row k is zero left of p_k, and its entry in a column j >= p_k
    is the minor of the row-permuted matrix on rows 0..k and columns
    p_0..p_(k-1), j (Bareiss, Math. Comp. 22, 1968).  So every division is
    exact, the last pivot is the leading minor of the pivot block, and the
    rows below the rank are zero in the first ncols columns.
    """
    nrows = len(m)
    width = len(m[0]) if m else 0
    sign = 1
    prev = 1
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        if m[r][col] == 0:
            pivot = next((i for i in range(r + 1, nrows) if m[i][col] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        mr = m[r]
        prc = mr[col]
        for i in range(r + 1, nrows):
            mi = m[i]
            mic = mi[col]
            for j in range(col + 1, width):
                mi[j] = (prc * mi[j] - mic * mr[j]) // prev
            mi[col] = 0
        prev = prc
        pivots.append(col)
        r += 1
    return pivots, sign


def _pivot_minor(m, pivots):
    """The leading minor of the pivot block after `_echelon`: its last pivot."""
    return m[len(pivots) - 1][pivots[-1]] if pivots else 1


def _back_substitute(m, pivots, ncols, cols, det):
    """For each column c in cols, det times the solution x of the echelon
    system of `_echelon` against column c, with every free unknown 0.  det
    is +-`_pivot_minor`, so det * x is integral (Cramer's rule on the pivot
    block) and each division is exact."""
    sols = []
    for c in cols:
        x = [0] * ncols
        for k in range(len(pivots) - 1, -1, -1):
            row = m[k]
            p = pivots[k]
            acc = det * row[c]
            for j in range(p + 1, ncols):
                acc -= row[j] * x[j]
            x[p] = acc // row[p]
        sols.append(x)
    return sols


def det_int(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    pivots, sign = _echelon(m, n)
    return sign * _pivot_minor(m, pivots) if len(pivots) == n else 0


def _simplex_det(points):
    """Signed determinant of the edge matrix [p_i - p_0] of a simplex given
    by its d+1 vertices in Z^d: +-(normalized volume), 0 when degenerate."""
    base = points[0]
    return det_int([[a - b for a, b in zip(p, base)] for p in points[1:]])


def solve_int(rows, rhs):
    """Fraction-free solve of A x = b for several integer right-hand sides.

    Returns (det A, [det(A) * A^-1 b for b in rhs]).  Each solution is an
    integer vector (the adjugate of A times b), found by fraction-free
    elimination of [A | B] and an exact back-substitution.  The list is
    None when A is singular.
    """
    n = len(rows)
    m = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    pivots, sign = _echelon(m, n)
    if len(pivots) < n:
        return 0, None
    det = sign * _pivot_minor(m, pivots)
    return det, _back_substitute(m, pivots, n, range(n, n + len(rhs)), det)


def rank(rows):
    """Rank of a matrix given as a list of rows: its pivot count."""
    m = _integer_rows(rows)
    return len(_echelon(m, len(m[0]) if m else 0)[0])


def nullspace(rows):
    """Basis of the right kernel, as lists of Fractions: one vector per free
    column, 1 there and 0 at the other free columns."""
    m = _integer_rows(rows)
    ncols = len(m[0]) if m else 0
    pivots, _ = _echelon(m, ncols)
    det = _pivot_minor(m, pivots)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f, x in zip(free, _back_substitute(m, pivots, ncols, free, det)):
        v = [Fraction(-y, det) for y in x]
        v[f] = Fraction(1)
        basis.append(v)
    return basis


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector (gcd 1).

    The direction is preserved; an all-zero vector is returned unchanged.
    """
    fracs = [Fraction(x) for x in v]
    if all(x == 0 for x in fracs):
        return [0] * len(fracs)
    denom = 1
    for x in fracs:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in fracs]
    g = vec_gcd(ints)
    return [x // g for x in ints]


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the list of nonzero rows: pivots positive, entries above each
    pivot reduced to [0, pivot).  Canonical for a given row lattice.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    nrows = len(m)
    row = 0
    for col in range(ncols):
        piv = None
        for i in range(row, nrows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for i in range(row + 1, nrows):
            while m[i][col] != 0:
                q = m[row][col] // m[i][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[i])]
                m[row], m[i] = m[i], m[row]
        if m[row][col] < 0:
            m[row] = [-x for x in m[row]]
        for i in range(row):
            q = m[i][col] // m[row][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[row])]
        row += 1
        if row == nrows:
            break
    return [r for r in m[:row] if any(r)]


def snf_with_transform(rows):
    """Smith normal form with transforms: returns (U, S, V) with A = U*S*V.

    U and V are unimodular integer matrices, S is diagonal (as a full
    matrix) with s_1 | s_2 | ... >= 0.
    """
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

    # Row ops act on U inversely: we maintain A_orig = U * A * V with U, V
    # updated by the inverse of each elementary operation applied to A.
    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in u:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # a[i] += q * a[j]; U column j -= q * column i
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        for r in u:
            r[j] -= q * r[i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        for r in u:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def col_add(i, j, q):
        # column i += q * column j; V row j -= q * row i
        for r in a:
            r[i] += q * r[j]
        v[j] = [x - q * y for x, y in zip(v[j], v[i])]

    def diagonalize(start):
        t = start
        while t < min(nrows, ncols):
            piv = None
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                        best = abs(a[i][j])
                        piv = (i, j)
            if piv is None:
                break
            row_swap(t, piv[0])
            col_swap(t, piv[1])
            # reduce row/column t until clear; pivot magnitude strictly
            # decreases on each retry, so this terminates
            while True:
                for i in range(t + 1, nrows):
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
                for j in range(t + 1, ncols):
                    q = a[t][j] // a[t][t]
                    if q:
                        col_add(j, t, -q)
                leftover = [
                    (abs(a[i][t]), i, None) for i in range(t + 1, nrows) if a[i][t]
                ] + [
                    (abs(a[t][j]), None, j) for j in range(t + 1, ncols) if a[t][j]
                ]
                if not leftover:
                    break
                _, i, j = min(leftover, key=lambda item: item[0])
                if i is not None:
                    row_swap(t, i)
                else:
                    col_swap(t, j)
            if a[t][t] < 0:
                row_negate(t)
            t += 1
        return t

    t = diagonalize(0)
    # enforce the divisibility chain d_1 | d_2 | ...
    while True:
        bad = next(
            (i for i in range(t - 1) if a[i + 1][i + 1] % a[i][i] != 0), None
        )
        if bad is None:
            break
        col_add(bad, bad + 1, 1)
        diagonalize(bad)
    return u, a, v


def saturation_basis(rows):
    """Basis of the saturation of the integer row lattice.

    Given integer generators, returns a basis (list of integer rows) of
    span_Q(rows) intersected with Z^n: the first r rows of V in
    A = U*S*V, r the rank of A, which is the number of nonzero diagonal
    entries of S (they come first).
    """
    _, s, v = snf_with_transform(rows)
    r = sum(1 for i in range(min(len(s), len(v))) if s[i][i])
    return [list(v[i]) for i in range(r)]

