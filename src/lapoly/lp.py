"""Exact rational linear programming (one-phase simplex, Bland's rule).

Small and deliberately simple, with zero tolerance.  One question in the
package needs it: the height search of `triangulate.is_regular` when no
heights witness is attached.  That search poses max c.x subject to
A x <= b and x >= 0 with b >= 0, so the slack basis is feasible from the
start and one phase suffices.  Bland's rule (least entering column, least
leaving basis column on a ratio tie) makes cycling impossible; everything
runs on `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction


def solve_lp(objective, a_ub, b_ub):
    """Maximize objective . x subject to a_ub x <= b_ub and x >= 0.

    Every entry of b_ub must be >= 0 (ValueError otherwise).  The tableau
    rows are [a | slack identity | b], the basis starts at the slacks, and
    `cost` holds the reduced costs of -objective with the current value
    last.  Returns (value, x), x a list of Fractions, at an optimum, or
    None when the objective is unbounded.
    """
    if any(b < 0 for b in b_ub):
        raise ValueError("solve_lp needs b_ub >= 0")
    n, m = len(objective), len(a_ub)
    tableau = [
        [Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(m)] + [Fraction(b)]
        for i, (row, b) in enumerate(zip(a_ub, b_ub))
    ]
    basis = list(range(n, n + m))
    cost = [-Fraction(c) for c in objective] + [Fraction(0)] * (m + 1)
    while (col := next((j for j in range(n + m) if cost[j] < 0), None)) is not None:
        rows = [i for i in range(m) if tableau[i][col] > 0]
        if not rows:
            return None
        row = min(rows, key=lambda i: (tableau[i][-1] / tableau[i][col], basis[i]))
        p = tableau[row][col]
        piv = tableau[row] = [x / p for x in tableau[row]]
        support = [j for j, x in enumerate(piv) if x]  # the tableau is sparse
        for other in tableau + [cost]:
            f = other[col]
            if other is not piv and f:
                for j in support:
                    other[j] -= f * piv[j]
        basis[row] = col
    x = [Fraction(0)] * (n + m)
    for i, b in enumerate(basis):
        x[b] = tableau[i][-1]
    return cost[-1], x[:n]
