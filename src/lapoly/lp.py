"""Exact rational linear programming (two-phase simplex, Bland's rule).

Small and deliberately simple, with zero tolerance.  One question in the
package needs it: the height search of `triangulate.is_regular` when no
heights witness is attached.  So `solve_lp` takes the one form that search
poses, max c.x subject to A x <= b over free x; an equality row is two
such rows, and x_j >= 0 is the row -x_j <= 0.  Bland's rule makes cycling
impossible; everything runs on `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LPResult:
    __slots__ = ("status", "x", "value")

    def __init__(self, status, x=None, value=None):
        self.status = status
        self.x = x
        self.value = value

    def __repr__(self):
        return f"LPResult({self.status}, value={self.value})"


def _pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [x / piv for x in tableau[row]]
    for i, trow in enumerate(tableau):
        if i != row and trow[col] != 0:
            f = trow[col]
            tableau[i] = [a - f * b for a, b in zip(trow, tableau[row])]
    basis[row] = col


def _simplex(tableau, basis, cost):
    """Minimize cost over the standard-form tableau; returns status.

    `tableau` rows are [a_1 ... a_n | b] with b >= 0 and an identity on the
    basis columns; `cost` is the reduced objective row [c_1 ... c_n | v].
    """
    ncols = len(cost) - 1
    while True:
        col = next((j for j in range(ncols) if cost[j] < 0), None)
        if col is None:
            return OPTIMAL
        best = None
        for i, row in enumerate(tableau):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        _pivot(tableau, basis, best[1], col)
        f = cost[col]
        if f != 0:
            cost[:] = [a - f * b for a, b in zip(cost, tableau[best[1]])]


def solve_lp(objective, a_ub, b_ub):
    """Maximize objective . x subject to a_ub x <= b_ub, over free x.

    Variable j is split into the nonnegative columns 2j and 2j+1, its
    positive and negative parts; a slack column follows for each row.
    Phase 1 starts from artificial columns, since b_ub may be negative.
    Returns an LPResult; `x` is a list of Fractions when the status is
    "optimal".
    """
    nvars, m = len(objective), len(a_ub)
    total = 2 * nvars + m
    art0 = total
    tableau = []
    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        t = [Fraction(0)] * (total + m) + [Fraction(b)]
        for j, v in enumerate(row):
            t[2 * j], t[2 * j + 1] = Fraction(v), Fraction(-v)
        t[2 * nvars + i] = Fraction(1)
        if b < 0:
            t = [-x for x in t]
        t[art0 + i] = Fraction(1)
        tableau.append(t)

    # phase 1: artificial variables
    basis = [art0 + i for i in range(m)]
    cost = [Fraction(0)] * total + [Fraction(1)] * m + [Fraction(0)]
    for i in range(m):
        cost = [a - b for a, b in zip(cost, tableau[i])]
    status = _simplex(tableau, basis, cost)
    assert status == OPTIMAL
    if -cost[-1] != 0:
        return LPResult(INFEASIBLE)
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= art0:
            col = next((j for j in range(total) if tableau[i][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, i, col)
    keep = [i for i in range(m) if basis[i] < art0]
    tableau = [tableau[i][:total] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # phase 2: minimize -objective . x
    cost = [Fraction(0)] * (total + 1)
    for j, c in enumerate(objective):
        cost[2 * j], cost[2 * j + 1] = -Fraction(c), Fraction(c)
    for i, b in enumerate(basis):
        if cost[b] != 0:
            f = cost[b]
            cost = [a - f * t for a, t in zip(cost, tableau[i])]
    status = _simplex(tableau, basis, cost)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    xfull = [Fraction(0)] * total
    for i, b in enumerate(basis):
        xfull[b] = tableau[i][-1]
    x = [xfull[2 * j] - xfull[2 * j + 1] for j in range(nvars)]
    value = sum(Fraction(c) * v for c, v in zip(objective, x))
    return LPResult(OPTIMAL, x, value)
