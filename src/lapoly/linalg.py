"""Exact linear algebra over the rationals and the integers.

A matrix is a plain list of rows, as everywhere in this package.
Everything in this package runs on exact arithmetic.  Solves and
determinants run on the integer Bareiss loop `_echelon` and one exact
back-substitution.  Ranks, lattice kernels and saturated bases come from
the Smith normal form with its transforms (`snf_with_transform`), which
`polytope.LatticePolytope` computes once per point set.  Results are
integers or `fractions.Fraction`s.  No floating point, ever.
"""

from __future__ import annotations

from math import gcd


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


def int_tuple(values):
    """The values as a tuple of ints; ValueError unless each is integral."""
    values = tuple(values)
    try:
        if (out := tuple(map(int, values))) == values:
            return out
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"not an integer vector: {values!r}")


def vec_gcd(v):
    g = 0
    for x in v:
        g = gcd(g, abs(int(x)))
    return g


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
    """Smith normal form with transforms: returns (U, S, V, V^-1) with
    A = U*S*V.

    U and V are unimodular integer matrices, S is diagonal (as a full
    matrix) with s_1 | s_2 | ... >= 0.  V^-1 is carried along by the
    column operations, so with r nonzero invariants the columns r.. of
    V^-1 are a basis of the integer kernel of A.
    """
    a = [list(map(int, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    vinv = [row[:] for row in v]

    # Row ops act on U inversely: we maintain A_orig = U * A * V with U, V
    # updated by the inverse of each elementary operation applied to A, and
    # V^-1 by the operation itself.
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
        for r in vinv:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]

    def col_add(i, j, q):
        # column i += q * column j, in A and in V^-1; V row j -= q * row i
        for r in a:
            r[i] += q * r[j]
        for r in vinv:
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
    return u, a, v, vinv

