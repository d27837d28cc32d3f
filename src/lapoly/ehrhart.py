"""Ehrhart counting, h*-vectors and polynomial property checks.

An h*-vector is a tuple of ints, low degree first, of length
`hstar_length(d)` for the d-th polytope of the family (trailing zeros
kept).  Four independent routes give the same tuple:

* interpolation from exact lattice-point counts of the first dilations;
* the h-vector of a verified unimodular triangulation, counted by
  half-open decomposition (`hstar --method triangulation`);
* the lattice points of the half-open fundamental parallelepiped of a
  full-dimensional simplex, counted by degree.  With W = U*S*V the Smith
  normal form of the homogenized vertex matrix and e its largest
  invariant, they are the W*y/e with y in [0, e)^n and
  (V*y)_i = 0 mod e/s_i for every invariant s_i != e, since U is
  unimodular.  The walk visits the vol points one by one; a residue
  dynamic program visits (e^n/vol)*(n(e-1)+1) states.  The SNF gives
  both counts and the smaller one runs: for the odd-d family the walk at
  d = 1 and 3, the DP from d = 5;
* the structural route, in closed form and polynomial time at every d.
  One operator, `hstar_dilate`, gives h*(rP) from h*(P); on a unimodular
  simplex it gives the h-polynomial of the r-th edgewise subdivision, the
  r-th Veronese numerator (Brenti-Welker, Adv. Appl. Math. 2009;
  Athanasiadis, SIAM J. Discrete Math. 2014).  For odd d, h* is the
  product of two of them (the triangulation is a join).  For even d, h*
  of the interior polytope Q is the square of the h-vector of a
  subdivided simplex boundary (Dehn-Sommerville for balls), and h* is the
  2-dilation of h*(Q).

All arithmetic is exact.  Real-rootedness is one Sturm sequence of
integer polynomials: it is also Euclid's loop for gcd(p, p'), so the
count of distinct real roots and the count of distinct roots come out of
the same loop (`is_real_rooted`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product
from math import ceil, comb, floor, prod

from .budgets import BudgetError, point_budget
from .linalg import int_tuple, snf_with_transform, solve_int, vec_gcd


def hstar_length(d):
    """Length of the h*-vector of the d-th reduced Laplacian polytope:
    one more than its dimension, which is d + 1 for odd d (a simplex) and
    d for even d."""
    return d + 2 if d % 2 else d + 1


def _poly_mul(a, b):
    """Product of two coefficient sequences, low degree first, as a tuple
    of length len(a) + len(b) - 1."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def hstar_from_counts(counts, dim):
    """h* from the exact counts E(0..dim) of a dim-polytope.

    h*_i = sum_j (-1)^j C(dim+1, j) E(i-j); integrality and non-negativity
    are enforced (a violation means the counts are wrong).
    """
    counts = list(counts)
    if len(counts) != dim + 1:
        raise ValueError(f"need exactly {dim + 1} counts")
    if counts[0] != 1:
        raise ValueError("E(0) must be 1")
    hstar = tuple(
        sum((-1) ** j * comb(dim + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(dim + 1)
    )
    if min(hstar) < 0:
        raise ValueError(f"negative entry in h* = {hstar}: bad counts")
    return hstar


def ehrhart_counts(p, budget=None):
    """Exact L(n) = |nP| for n = 0..dim of a full-dimensional lattice
    polytope P.  With k = dim // 2, box scans count nP for n = 0..dim-k and
    the interiors of nP for n = 1..k; the budget is checked up front on
    the largest box, that of (dim-k)P.

    Theorem (Ehrhart-Macdonald reciprocity; Macdonald 1971; Beck and
    Robins, *Computing the Continuous Discretely*, Thm 4.1).  L is a
    polynomial of degree dim on n >= 0, and its value at -n is
    (-1)^dim |int(nP) ∩ Z^dim| for n >= 1.

    Proof of the counts.  Each facet is a.x <= b with a primitive integer
    normal a and integer b, so for a lattice point x, a.x < n*b iff
    a.x <= n*b - 1: the strict scan counts int(nP) exactly.  Reciprocity
    gives L(-k..-1), so L is known at the dim + 1 consecutive integers
    -k..dim-k.  Its (dim+1)-th difference vanishes, so
    L(m) = sum_{j=1}^{dim+1} (-1)^(j+1) C(dim+1, j) L(m-j) extends the
    values to n = dim in exact integers.
    """
    dim = p.dim()
    if dim != p.ambient_dim:
        raise ValueError("count the full-dimensional copy")
    k = dim // 2
    p._check_box(dim - k, budget)
    counts = [(-1) ** dim * p._scan(n, budget=budget, strict=True) for n in range(k, 0, -1)]
    counts += [p.lattice_point_count(n, budget=budget) for n in range(dim - k + 1)]
    for _ in range(k):
        counts.append(sum(
            (-1) ** (j + 1) * comb(dim + 1, j) * counts[-j] for j in range(1, dim + 2)
        ))
    return counts[k:]


def _simplex_snf(simplex_points):
    """(W, U, diag, V) for a full-dimensional lattice simplex: W has the
    homogenized vertices [v_j; 1] as columns and W = U*S*V is its Smith
    normal form with invariants `diag` (s_0 | s_1 | ... | s_d)."""
    pts = [int_tuple(p) for p in simplex_points]
    d = len(pts[0])
    if len(pts) != d + 1:
        raise ValueError("need a full-dimensional simplex")
    cols = [[p[i] for p in pts] for i in range(d)] + [[1] * (d + 1)]
    u, s, v, _ = snf_with_transform(cols)
    return cols, u, [s[i][i] for i in range(d + 1)], v


def _fundamental_kernel(diag):
    """(kernel, count): the parallelepiped kernel with less work for SNF
    invariants `diag`, and the points ("walk") or states ("residue DP") it
    visits.  Ties go to the walk."""
    n, e, volume = len(diag), diag[-1], prod(diag)
    states = e**n // volume * (n * (e - 1) + 1)
    return ("walk", volume) if volume <= states else ("residue DP", states)


def _parallelepiped_walk(cols, u, diag):
    """Degree counts of the parallelepiped points, one point at a time.

    The points are one per residue class of Z^(d+1) modulo the column
    lattice of W, walked through the SNF group structure; a point's degree
    is its last coordinate.
    """
    n = len(diag)
    # fractional parts of W^{-1} z tracked as residues modulo the volume:
    # nu_i = volume * frac(lambda_i); z walks U times the SNF residue grid.
    # After `order` additions of a generator's step the state returns to
    # its entry value (order * step == 0 mod volume), so no reset needed.
    # A generator's step is volume * W^{-1} u_j = sign(det W) * adj(W) u_j.
    gen_cols = [j for j in range(n) if diag[j] != 1]
    det, sols = solve_int(cols, [[u[i][j] for i in range(n)] for j in gen_cols])
    volume = abs(det)
    sign = 1 if det > 0 else -1
    gens = [(diag[j], [sign * x % volume for x in x_j]) for j, x_j in zip(gen_cols, sols)]
    gens.sort()  # largest order innermost
    h = [0] * n
    nu = [0] * n

    def walk(g):
        if g == len(gens):
            h[sum(nu) // volume] += 1
            return
        order, step = gens[g]
        for _ in range(order):
            walk(g + 1)
            for i in range(n):
                val = nu[i] + step[i]
                nu[i] = val - volume if val >= volume else val

    walk(0)
    return h


def _parallelepiped_dp(v, diag):
    """Degree counts of the parallelepiped points by the residue DP.

    The points are the y in [0, e)^n with (V*y)_i = 0 mod e/s_i for every
    s_i != e (see `hstar_simplex_fundamental`).  Step j adds y_j * V[:, j]
    to the residues for every y_j in [0, e).  A state is one residue
    vector, numbered in mixed radix as in `grid`.  It holds, packed into
    one integer with `width` bits per coefficient, the polynomial in t
    whose coefficient of t^m counts the prefixes (y_0..y_j) that reach it
    with sum m.  A coefficient counts tuples of [0, e)^n, so it stays
    below e^n < 2^width and never carries.
    """
    n, e = len(diag), diag[-1]
    rows = [(v[i], e // s) for i, s in enumerate(diag) if s != e]
    mods = [m for _, m in rows]
    grid = list(product(*map(range, mods)))  # residue vectors, by number
    width = (e**n).bit_length()
    states = [1] + [0] * (len(grid) - 1)
    for j in range(n):
        step = []  # number of residue vector + V[:, j]
        for res in grid:
            k = 0
            for r, (row, m) in zip(res, rows):
                k = k * m + (r + row[j]) % m
            step.append(k)
        nxt = [0] * len(grid)
        for k, poly in enumerate(states):
            if poly:
                for y in range(e):
                    nxt[k] += poly << (width * y)
                    k = step[k]
        states = nxt
    mask = (1 << width) - 1
    return [(states[0] >> (width * e * k)) & mask for k in range(n)]


def hstar_simplex_fundamental(simplex_points, budget=None):
    """h* of a full-dimensional lattice simplex from the lattice points of
    its half-open fundamental parallelepiped, counted by degree (Beck and
    Robins, *Computing the Continuous Discretely*, Cor. 3.11).

    Let W have the homogenized vertices [v_j; 1] as columns, W = U*S*V its
    Smith normal form and e the largest invariant.  e*W^-1 =
    V^-1*(e*S^-1)*U^-1 is integral, so the points are among the
    z = W*y/e with y in [0, e)^n, and z has degree sum(y)/e.  Theorem: z
    is a lattice point iff (V*y)_i = 0 mod e/s_i for every invariant
    s_i != e.  Proof: U is unimodular, so W*y = 0 mod e iff S*V*y = 0
    mod e, which reads s_i*(V*y)_i = 0 mod e row by row.

    Two exact kernels count these points: the walk visits all vol of
    them, and the residue DP over j with state (residues, sum(y)) visits
    R*(n(e-1)+1) states, R = e^n/vol.  The SNF alone gives both counts;
    the kernel with the smaller one runs, after that count is checked
    against the point budget.
    """
    cols, u, diag, v = _simplex_snf(simplex_points)
    volume = prod(diag)
    if volume == 0:
        raise ValueError("degenerate simplex")
    kernel, count = _fundamental_kernel(diag)
    limit = point_budget(budget)
    if count > limit:
        unit = "points" if kernel == "walk" else "states"
        raise BudgetError(
            f"parallelepiped {kernel} needs {count} {unit}, budget is {limit}"
        )
    if kernel == "walk":
        h = _parallelepiped_walk(cols, u, diag)
    else:
        h = _parallelepiped_dp(v, diag)
    if sum(h) != volume:
        raise AssertionError("parallelepiped enumeration lost points")
    return tuple(h)


def hstar_dilate(h, dim, r):
    """h* of the dilation rP from the h* of a dim-polytope P: every r-th
    coefficient of h(t) * c(t), c = (1 + t + ... + t^(r-1))^(dim+1).

    Proof.  (1 - t) * (1 + t + ... + t^(r-1)) = 1 - t^r, so
    sum_n |nP| t^n = h/(1-t)^(dim+1) = h*c/(1-t^r)^(dim+1), and the
    t^(rn) terms of that are sum_n |rnP| t^(rn): in u = t^r they read
    sum_n |n(rP)| u^n = (sum_i (h*c)_(ri) u^i) / (1-u)^(dim+1).

    h*c is formed by dim + 1 window sums of width r.  The r-th edgewise
    subdivision of an (n-1)-simplex is a unimodular triangulation of its
    r-fold dilation, so its h-polynomial is hstar_dilate((1,), n - 1, r),
    the numerator of the r-th Veronese Hilbert series (Brenti and Welker,
    Adv. Appl. Math. 42, 2009).
    """
    if r < 1 or len(h) > dim + 1:
        raise ValueError(f"need r >= 1 and at most {dim + 1} entries of h*")
    p = list(h) + [0] * (dim + 1 - len(h))
    for _ in range(dim + 1):
        s = list(accumulate(p + [0] * (r - 1), initial=0))
        p = [b - a for a, b in zip([0] * (r - 1) + s, s[1:])]
    return tuple(p[::r])


def dilation_coefficient(d, i, j):
    """r_j = C(d+1, 2i+2-j) - C(d+1, 2i-j), defined for any integer j."""

    def c(n, k):
        return comb(n, k) if 0 <= k <= n else 0

    return c(d + 1, 2 * i + 2 - j) - c(d + 1, 2 * i - j)


def dilation_antisymmetry_holds(d, i, k):
    """-r_{ceil(2i+2-(d+3)/2)-k} == r_{floor(2i+2-(d+3)/2)+k}."""
    center = Fraction(4 * i + 1 - d, 2)  # 2i + 2 - (d+3)/2
    return -dilation_coefficient(d, i, ceil(center) - k) == dilation_coefficient(
        d, i, floor(center) + k
    )


# ---------------------------------------------------------------------------
# structural h* computation
# ---------------------------------------------------------------------------


def _interior_hstar_structural(d):
    """h* of the interior polytope Q (even d) in closed form: s(t)^2, with
    s the h-vector of the boundary of the m-th edgewise subdivision B of an
    (m-1)-simplex, m = d/2 + 1.

    Proof.  The triangulation of Q cones its interior lattice point over a
    boundary complex whose part over a facet of Q is the join of the m-th
    edgewise subdivisions of the facet's odd- and even-labelled vertex
    sets.  Q has m labels of each parity, and every facet omits one odd
    and one even label (`triangulate.interior_facets`), so that complex is
    the join of the boundaries of B over the odd- and the even-labelled
    simplex.  h is multiplicative under joins, and coning does not change
    it.  B is an (m-1)-ball with h-vector v, v_m = 0, and for a ball
    h_i(B) - h_(m-i)(B) = h_i(dB) - h_(i-1)(dB) (Dehn-Sommerville for
    balls; Stanley, *Combinatorics and Commutative Algebra*, 1996), so the
    running sums s of v_i - v_(m-i) are h(dB).
    """
    m = d // 2 + 1
    v = hstar_dilate((1,), m - 1, m) + (0,)
    s = tuple(accumulate(v[i] - v[m - i] for i in range(m)))
    return _poly_mul(s, s)


def hstar_structural(d):
    """h* of the reduced Laplacian polytope by the closed-form structural
    route.  For odd d the polytope's triangulation is the join of the
    (d+2)-th edgewise subdivisions of simplices with (d+3)/2 and (d+1)/2
    vertices, so h* is the product of their h-polynomials.  For even d
    the polytope is 2Q - (1, ..., 1), so h* is the 2-dilation of the
    interior polytope's h*."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d % 2:
        h = _poly_mul(
            hstar_dilate((1,), (d + 1) // 2, d + 2),
            hstar_dilate((1,), (d - 1) // 2, d + 2),
        )
    else:
        h = hstar_dilate(_interior_hstar_structural(d), d, 2)
    return h + (0,) * (hstar_length(d) - len(h))


# ---------------------------------------------------------------------------
# polynomial property checks
# ---------------------------------------------------------------------------


def is_unimodal(h):
    """(unimodal, peak index): weakly rising then weakly falling."""
    h = list(h)
    if not h:
        raise ValueError("empty sequence")
    peak = max(range(len(h)), key=lambda i: (h[i], -i))
    for i in range(peak):
        if h[i] > h[i + 1]:
            return False, None
    for i in range(peak, len(h) - 1):
        if h[i] < h[i + 1]:
            return False, None
    return True, peak


def is_palindromic(h, dim):
    """h_i == h_(dim-i) for i = 0..dim; a nonzero entry past dim fails."""
    h = list(h) + [0] * (dim + 1 - len(h))
    return not any(h[dim + 1:]) and all(h[i] == h[dim - i] for i in range(dim + 1))


def is_real_rooted(h):
    """All roots real?  One Sturm sequence, which is also Euclid's loop.

    `h` lists integer coefficients, lowest degree first.  Zero top-degree
    coefficients (its trailing entries) are stripped first; the zero
    polynomial is rejected.

    Let p have degree n >= 1, p_0 = p, p_1 = p' and p_(k+1) =
    -rem(p_(k-1), p_k) until the remainder is zero.  This is Euclid's
    loop, so the last member p_m is g = gcd(p, p') up to a constant.
    Theorem: p is real-rooted iff V(-oo) - V(+oo) = n - deg g, where V(x)
    counts the sign changes of p_0(x), ..., p_m(x).

    Proof.  g divides every p_k (backwards from p_m), and q_k = p_k / g
    satisfy q_(k+1) = -rem(q_(k-1), q_k) with the same quotients, ending
    in the constant q_m.  Away from the roots of g, and at +-oo, the p_k(x)
    are the q_k(x) times one nonzero number, so both sequences have the
    same V.  Consecutive q_k have no common root, as it would pass down
    to q_m; so at a root x of some q_k, 0 < k < m, q_(k-1)(x) =
    -q_(k+1)(x) != 0 and V does not change.  At a real root x of q_0 =
    p / g, p^2 has a strict minimum, so p*p' = g^2 * q_0*q_1 changes from
    negative to positive; q_1(x) != 0, so V drops by one.  Hence
    V(-oo) - V(+oo) counts the distinct real roots (Sturm's theorem
    without squarefreeness; Basu, Pollack and Roy, *Algorithms in Real
    Algebraic Geometry*, Thm 2.50).  p has deg(p / g) = n - deg g
    distinct complex roots, and it is real-rooted iff all are real.

    Each member is divided by its content (the gcd of its integer
    coefficients), a positive rational multiple: that keeps every sign,
    and the remainders of positive multiples are positive multiples of the
    remainders.  `_poly_rem` returns a positive multiple of the remainder
    too, so the loop runs in integers.
    """
    p = list(h)
    while p and p[-1] == 0:
        p.pop()
    if not p:
        raise ValueError("zero polynomial")
    if len(p) == 1:
        return True

    def primitive(q):
        g = vec_gcd(q)
        return [c // g for c in q]

    chain = [primitive(p), primitive([i * c for i, c in enumerate(p)][1:])]
    while True:
        r = _poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(primitive([-c for c in r]))

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_plus = [1 if q[-1] > 0 else -1 for q in chain]
    at_minus = [s if len(q) % 2 else -s for s, q in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus) == len(p) - len(chain[-1])


def _poly_rem(a, b):
    """Pseudo-remainder |lc(b)|^s * (a mod b) of integer polynomials, low
    degree first, with s = max(0, len(a) - len(b) + 1), in integers.

    `b` must have a nonzero leading coefficient.  Each of the s steps
    scales a by |lc(b)| and cancels its top term, so the result is that
    positive multiple of the rational remainder (by uniqueness of
    division).  It carries no trailing zeros; the zero remainder is [].
    """
    a = list(a)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    while len(a) >= len(b):
        f = sign * a.pop()
        shift = len(a) - len(b) + 1
        a = [scale * c for c in a]
        for i, c in enumerate(b[:-1]):
            a[shift + i] -= f * c
    while a and a[-1] == 0:
        a.pop()
    return a
