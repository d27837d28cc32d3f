"""Exact linear algebra over the rationals and the integers.

Everything in this package runs on exact arithmetic: integer matrices are
handled with fraction-free (Bareiss) elimination, everything else with
`fractions.Fraction`.  No floating point, ever.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


class ExactMatrix:
    """Dense matrix with arbitrary-precision rational entries.

    Entries are stored as `int` or `Fraction`; all derived quantities
    (rank, determinant, kernels) are computed exactly.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        if self.entries:
            self.cols = len(self.entries[0])
        else:
            self.cols = 0 if cols is None else cols
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def zero(cls, rows, cols):
        m = cls.__new__(cls)
        m.entries = [[0] * cols for _ in range(rows)]
        m.rows = rows
        m.cols = cols
        return m

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.entries[i][i] = 1
        return m

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(
            Fraction(self.entries[i][j]) == Fraction(other.entries[i][j])
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash(
            tuple(tuple(Fraction(x) for x in row) for row in self.entries)
        )

    def __repr__(self):
        return f"ExactMatrix({self.entries!r})"

    def copy(self):
        return ExactMatrix(self.entries)

    def transpose(self):
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    @property
    def T(self):
        return self.transpose()

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            ot = other.transpose().entries
            return ExactMatrix(
                [
                    [sum(a * b for a, b in zip(row, col)) for col in ot]
                    for row in self.entries
                ],
                cols=other.cols,
            )
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, ExactMatrix):
            if (self.rows, self.cols) != (other.rows, other.cols):
                raise ValueError("shape mismatch")
            return ExactMatrix(
                [
                    [a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.entries, other.entries)
                ]
            )
        return NotImplemented

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return [sum(a * b for a, b in zip(row, v)) for row in self.entries]

    def column(self, j):
        return [row[j] for row in self.entries]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def is_zero(self):
        return all(x == 0 for row in self.entries for x in row)

    def is_symmetric(self):
        if self.rows != self.cols:
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def rank(self):
        return rank(self.entries)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        if all(isinstance(x, int) for row in self.entries for x in row):
            return det_int(self.entries)
        return det_fraction(self.entries)

    def nullspace(self):
        return nullspace(self.entries)


def _bareiss(m, n):
    """Fraction-free (Bareiss) forward elimination of the n x n leading block
    of the n-row integer matrix m, in place; trailing columns ride along.

    Afterwards row k is the k-th row of Gaussian elimination of the
    row-permuted matrix, scaled by the integer leading k x k minor, and
    m[n-1][n-1] is the determinant of the permuted leading block.  Returns
    the sign of the row permutation, or 0 when a pivot column is zero (the
    block is singular).
    """
    width = len(m[0]) if m else 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        pkk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            for j in range(k + 1, width):
                mi[j] = (pkk * mi[j] - mik * mk[j]) // prev
            mi[k] = 0
        prev = pkk
    return sign


def det_int(rows):
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    return _bareiss(m, n) * m[n - 1][n - 1]


def solve_int(rows, rhs):
    """Fraction-free solve of A x = b for several integer right-hand sides.

    Returns (det A, [det(A) * A^-1 b for b in rhs]).  Each solution is an
    integer vector (the adjugate of A times b), found by Bareiss elimination
    of [A | B] and a back-substitution whose divisions are exact.  The list
    is None when A is singular.
    """
    n = len(rows)
    m = [list(r) + [b[i] for b in rhs] for i, r in enumerate(rows)]
    sign = _bareiss(m, n)
    det = m[n - 1][n - 1] if n else 1
    if not sign or not det:
        return 0, None
    sols = []
    for c in range(n, n + len(rhs)):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = det * row[c]
            for j in range(i + 1, n):
                acc -= row[j] * x[j]
            x[i] = acc // row[i]
        sols.append([sign * v for v in x])
    return sign * det, sols


def det_fraction(rows):
    m = _as_fraction_rows(rows)
    n = len(m)
    if n == 0:
        return Fraction(1)
    sign = 1
    result = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        result *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return sign * result


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = _as_fraction_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows):
    """Rank of a matrix given as a list of rows: the pivot count of `rref`."""
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel, as lists of Fractions."""
    m, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """Solve A x = b exactly.  Returns one solution or None if inconsistent."""
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

    def col_negate(i):
        for r in a:
            r[i] = -r[i]
        v[i] = [-x for x in v[i]]

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
    span_Q(rows) intersected with Z^n.
    """
    r = rank(rows)
    if r == 0:
        return []
    _, _, v = snf_with_transform(rows)
    return [list(v[i]) for i in range(r)]


def affinely_independent(points):
    if not points:
        return True
    base = points[0]
    diffs = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    if not diffs:
        return True
    return rank(diffs) == len(diffs)
