"""Exact rational linear programming (two-phase simplex, Bland's rule).

Small and deliberately simple, with zero tolerance.  One question in the
package needs it: the height search of `triangulate.is_regular` when no
heights witness is attached.  Bland's rule makes cycling impossible;
everything runs on `Fraction`.
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


def solve_lp(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=True,
             nonneg=None):
    """Solve max/min objective . x subject to a_ub x <= b_ub, a_eq x = b_eq.

    Variables are free by default (internally split into positive parts);
    pass `nonneg` (per-variable booleans, or True for all) to keep sign-
    constrained variables as single columns.  Returns an LPResult; `x` is a
    list of Fractions when the status is "optimal".
    """
    nvars = len(objective)
    if nonneg is None:
        nonneg = [False] * nvars
    elif nonneg is True:
        nonneg = [True] * nvars
    else:
        nonneg = list(nonneg)
    rows = []
    rhs = []
    n_slack = len(a_ub)
    for r, b in zip(a_ub, b_ub):
        rows.append([Fraction(x) for x in r])
        rhs.append(Fraction(b))
    for r, b in zip(a_eq, b_eq):
        rows.append([Fraction(x) for x in r])
        rhs.append(Fraction(b))

    # standard-form columns: one per nonneg var, a +/- pair per free var
    pos_col = [0] * nvars
    neg_col = [None] * nvars
    total = 0
    for j in range(nvars):
        pos_col[j] = total
        total += 1
        if not nonneg[j]:
            neg_col[j] = total
            total += 1
    slack0 = total
    total += n_slack
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        t = [Fraction(0)] * total
        for j, v in enumerate(row):
            if v:
                t[pos_col[j]] = v
                if neg_col[j] is not None:
                    t[neg_col[j]] = -v
        if i < n_slack:
            t[slack0 + i] = Fraction(1)
        if b < 0:
            t = [-x for x in t]
            b = -b
        tableau.append(t + [b])

    m = len(tableau)
    # phase 1: artificial variables
    art0 = total
    for i in range(m):
        tableau[i] = tableau[i][:-1] + [
            Fraction(1) if k == i else Fraction(0) for k in range(m)
        ] + [tableau[i][-1]]
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

    # phase 2
    sign = -1 if maximize else 1
    cost = [Fraction(0)] * total + [Fraction(0)]
    for j in range(nvars):
        c = sign * Fraction(objective[j])
        cost[pos_col[j]] = c
        if neg_col[j] is not None:
            cost[neg_col[j]] = -c
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
    x = []
    for j in range(nvars):
        v = xfull[pos_col[j]]
        if neg_col[j] is not None:
            v = v - xfull[neg_col[j]]
        x.append(v)
    value = sum(Fraction(objective[j]) * x[j] for j in range(nvars))
    return LPResult(OPTIMAL, x, value)

