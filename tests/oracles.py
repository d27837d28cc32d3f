"""Independent oracles and fixtures shared by the tests.

Each answers a question that `lapoly` settles another way, or builds an
input the package itself never needs: the tests compare the two.
"""

from fractions import Fraction
from itertools import chain, combinations, permutations, repeat
from math import comb, gcd

from lapoly import lp
from lapoly.complexes import SimplicialComplex
from lapoly.ehrhart import _poly_mul
from lapoly.linalg import det_int, vec_gcd
from lapoly.polytope import LatticePolytope


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Fraction Gauss-Jordan elimination, independent of the fraction-free
    and Smith-form routines in `lapoly.linalg`: the oracle for rank,
    kernels and solves.
    """
    m = [[Fraction(x) for x in row] for row in rows]
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
    """Rank of a matrix given as a list of rows: its rref pivot count."""
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel, as lists of Fractions: one vector per
    free column, 1 there and 0 at the other free columns."""
    m, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][f]
        basis.append(v)
    return basis


def ub_form(a_eq, b_eq, nonneg):
    """a_eq x = b_eq and x_j >= 0 for j < `nonneg` as `<=` rows (a_ub,
    b_ub), the one form `lp.solve_lp` takes: each equality as two rows,
    each sign constraint as -x_j <= 0."""
    n = len(a_eq[0])
    a_ub = a_eq + [[-x for x in row] for row in a_eq]
    a_ub += [[-int(k == j) for k in range(n)] for j in range(nonneg)]
    return a_ub, b_eq + [-b for b in b_eq] + [0] * nonneg


def point_in_hull(point, generators):
    """Is `point` in the convex hull of `generators`?  One exact LP."""
    if not generators:
        return False
    n = len(generators)
    a_eq = [[Fraction(g[i]) for g in generators] for i in range(len(point))]
    b_eq = [Fraction(x) for x in point]
    a_eq.append([Fraction(1)] * n)
    b_eq.append(Fraction(1))
    return lp.solve_lp([0] * n, *ub_form(a_eq, b_eq, n)).status == lp.OPTIMAL


def scan_hull(points, spanning=None):
    """({(normal, offset): tight vertex set}, vertex indices) of the
    full-dimensional conv(points), by a subset scan.

    A hyperplane spanned by d of the points (of the indices `spanning`,
    all by default; they must include every vertex) with every point on
    one side is a facet; its primitive normal spans the rref kernel of
    the difference rows.  A point is a vertex iff the normals of the
    facets through it have rank d: the smallest face that holds it is the
    polytope cut with their hyperplanes, and the affine hull of that face
    is their intersection, a single point iff the normals span.
    """
    d = len(points[0])
    planes = {}
    for subset in combinations(range(len(points)) if spanning is None else spanning, d):
        base = points[subset[0]]
        kernel = nullspace([[a - b for a, b in zip(points[i], base)] for i in subset[1:]]
                           or [[0] * d])
        if len(kernel) != 1:
            continue
        normal = primitive_vector(kernel[0])
        values = [sum(a * x for a, x in zip(normal, p)) for p in points]
        offset = values[subset[0]]
        if max(values) > offset:
            if min(values) < offset:
                continue
            normal, offset, values = [-a for a in normal], -offset, [-v for v in values]
        planes[(tuple(normal), offset)] = {i for i, v in enumerate(values) if v == offset}
    through = [[key[0] for key, on in planes.items() if i in on] for i in range(len(points))]
    verts = [i for i, normals in enumerate(through) if len(normals) >= d and rank(normals) == d]
    return {key: frozenset(on.intersection(verts)) for key, on in planes.items()}, verts


def simplex_det(points):
    """Signed det [p_i - p_0] of a simplex of d + 1 points in Z^d."""
    return det_int([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def fan_cells(points):
    """Cells of a fan triangulation of the full-dimensional conv(points),
    as sorted index tuples: the least vertex coned over the fan
    triangulations of the `scan_hull` facets that miss it, each reduced to
    full dimension; a simplex is its own one cell.  It pulls the vertices
    in index order, so it is regular."""
    if len(points) == len(points[0]) + 1:
        return [tuple(range(len(points)))]
    facets, verts = scan_hull(points)
    apex = verts[0]
    cells = []
    for on in facets.values():
        if apex not in on:
            idx = sorted(on)
            reduced, _, _ = LatticePolytope([points[i] for i in idx]).full_dimensional()
            cells += [tuple(sorted([apex] + [idx[i] for i in c])) for c in fan_cells(reduced.points)]
    return cells


def covector_fold_values(walk, h):
    """Fold values of the height vector h on a `_RidgeWalk`, one covector
    dot product per fold: every cell's covector c_a follows the walk's
    steps (c_b = c_a + phi * piv), and the value at (ca, da, cb, db) is
    h[w] - c_ca . [w; 1] for w = cells[cb][db].  It reads neither the
    steps' fold indices nor their lam vectors."""
    walk.require_triangulation()
    pool, cells = walk.pool, walk.cells
    cov = [None] * len(cells)
    for root, m in walk.roots:
        cov[root] = [sum(h[i] * x for i, x in zip(cells[root], col)) for col in zip(*m)]
    rows = zip(*[iter(walk.pivots)] * walk.size)
    for b, a, w, piv in zip(walk.step_b, walk.step_a, walk.step_w, rows):
        c = cov[a]
        phi = h[w] - sum(x * y for x, y in zip(c, pool[w])) - c[-1]
        cov[b] = [x + phi * y for x, y in zip(c, piv)]
    values = []
    for a, b, k in zip(walk.ca, walk.cb, walk.db):
        c, w = cov[a], cells[b][k]
        values.append(h[w] - sum(x * y for x, y in zip(c, pool[w])) - c[-1])
    return values


def ehrhart_polynomial(counts):
    """Interpolating polynomial through (n, E(n)), rational coefficients."""
    n = len(counts)
    # Newton's divided differences on the integer grid 0..n-1
    table = [Fraction(c) for c in counts]
    coeffs_newton = [table[0]]
    for level in range(1, n):
        table = [
            (table[i + 1] - table[i]) / level for i in range(len(table) - 1)
        ]
        coeffs_newton.append(table[0])
    # expand sum_k newton_k * x(x-1)...(x-k+1)/1 (falling factorial basis)
    poly = [Fraction(0)] * n
    basis = (1,)
    for k, cn in enumerate(coeffs_newton):
        for i, b in enumerate(basis):
            poly[i] += cn * b
        basis = _poly_mul(basis, (-k, 1))
    return poly


def poly_rem(a, b):
    """Remainder of rational polynomials, low degree first, by long
    division in Fractions; no trailing zeros, the zero remainder is []."""
    a = [Fraction(c) for c in a]
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


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


def boundary_matrix(c, i):
    """Signed incidence matrix of the i-th boundary map, as a list of rows.

    Rows are indexed by the (i-1)-faces, columns by the i-faces, both in
    lexicographic order of position tuples.  The chain groups vanish
    outside 0..dim, so i == 0 yields no rows (f_0 columns) and
    i == dim+1 yields f_dim empty rows.
    """
    if i < 0 or i > c.dim + 1:
        raise IndexError(f"boundary index {i} out of range for dim {c.dim}")
    cols = c.faces(i)
    rows = c.faces(i - 1)
    row_index = {f: r for r, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, face in enumerate(cols):
        sign = 1
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            if sub:
                mat[row_index[sub]][j] = sign
            sign = -sign
    return mat


def dense_laplacian(c, i):
    """The i-th Laplacian as the Gram matrix of the rows of
    [d_{i+1} | d_i^T], one row per i-face, from the dense boundary
    matrices: the definition, apart from the sparse assembly of
    `lapoly.laplacian.laplacian_matrix`."""
    di = boundary_matrix(c, i)
    stacked = [
        up + [row[a] for row in di]
        for a, up in enumerate(boundary_matrix(c, i + 1))
    ]
    return [[sum(x * y for x, y in zip(r, s)) for s in stacked] for r in stacked]


def homology_dimension(c, i):
    """dim_Q of the i-th rational homology group, ker(d_i)/im(d_{i+1})."""
    if i < 0 or i > c.dim:
        raise IndexError(f"homology index {i} out of range for dim {c.dim}")
    return (
        len(c.faces(i))
        - rank(boundary_matrix(c, i))
        - rank(boundary_matrix(c, i + 1))
    )


def f_vector(c):
    """(f_-1, f_0, ..., f_dim) as a tuple of integers."""
    return (1,) + tuple(len(level) for level in c.faces_by_dim)


def face_census(t):
    """f-vector of the triangulation as a simplicial complex.

    Faces are counted one size at a time: the s-subsets of all cells go
    into one set, built in one C-level pass, its length is f_(s-1), and the
    set is dropped before the next size.  The empty face is counted once.
    Peak memory is therefore that of the largest level, not of all levels
    together.  The default cell budget admits d <= 6, where the largest
    level of `laplacian_triangulation(6)` holds 1.43M faces, so no
    triangulation it admits needs more than a few hundred MB.
    """
    counts = [1]
    for size in range(1, t.dim + 2):
        faces = set(chain.from_iterable(map(combinations, t.cells, repeat(size))))
        counts.append(len(faces))
    return tuple(counts)


def h_from_f(f):
    """h-vector from an f-vector via the standard polynomial identity.

    For f = (f_-1, ..., f_{d-1}) this expands
    sum_k f_{k-1} (t-1)^(d-k) and reads off h_0..h_d.
    """
    d = len(f) - 1
    # coefficients of sum_k f_{k-1} (t-1)^{d-k}, highest power first
    poly = [0] * (d + 1)  # poly[j] multiplies t^(d-j)
    for k in range(d + 1):
        # (t-1)^(d-k) contributes binomials
        m = d - k
        c = 1
        for j in range(m + 1):
            # coefficient of t^(m-j) in (t-1)^m is C(m,j) * (-1)^j
            poly[d - (m - j)] += f[k] * c * ((-1) ** j)
            c = c * (m - j) // (j + 1)
    return tuple(poly)


def f_from_h(h):
    """Inverse of `h_from_f`: substitute t -> t+1 and read off f."""
    d = len(h) - 1
    f = [0] * (d + 1)
    for k in range(d + 1):
        # h_k t^{d-k} with t -> t+1: sum_j C(d-k, j) t^j; t^{d-m} term: j = d-m
        m = d - k
        c = 1
        for j in range(m + 1):
            f[d - j] += h[k] * c
            c = c * (m - j) // (j + 1)
    return tuple(f)


def hstar_double(h, dim):
    """h* of the second dilation of a dim-polytope from its h*, by the
    binomial formula h*_i(2P) = sum_j C(dim+1, 2i-j) h*_j; out-of-range
    binomials are zero."""
    return tuple(
        sum(
            comb(dim + 1, 2 * i - j) * h_j
            for j, h_j in enumerate(h)
            if 0 <= 2 * i - j <= dim + 1
        )
        for i in range(dim + 1)
    )


# The structural route for even d by face counts: the reference for the
# Dehn-Sommerville closed form `lapoly.ehrhart._interior_hstar_structural`.


def esd_h_polynomial(r, nverts):
    """h-polynomial of the r-th edgewise subdivision of a simplex with
    `nverts` >= 1 vertices, from the Veronese Hilbert series:
    h(t) = (1-t)^n * sum_k C(kr+n-1, n-1) t^k, of degree < n."""
    series = [comb(k * r + nverts - 1, nverts - 1) for k in range(nverts)]
    return tuple(
        sum((-1) ** j * comb(nverts, j) * series[i - j] for j in range(i + 1))
        for i in range(nverts)
    )


def esd_face_enumerator(r, nverts):
    """Face enumerator F(t) = sum over faces of t^|face| of the r-th
    edgewise subdivision of a simplex with `nverts` vertices (empty face
    included), read off its h-polynomial."""
    if nverts == 0:
        return (1,)
    return f_from_h(esd_h_polynomial(r, nverts) + (0,))


def boundary_signatures(d):
    """{(a1, a2): count}: the number of faces of the interior polytope's
    boundary with a1 odd and a2 even labels (even d).

    Q has m = d/2 + 1 labels of each parity, and its facets omit exactly
    the m^2 pairs of one odd and one even label, once each (Gale's
    evenness condition).  Q is simplicial, so a label set is a face of its
    boundary exactly when it omits at least one odd and one even label:
    C(m, a1) * C(m, a2) sets for 0 <= a1, a2 < m.
    """
    m = d // 2 + 1
    return {(a1, a2): comb(m, a1) * comb(m, a2) for a1 in range(m) for a2 in range(m)}


def interior_hstar_by_faces(d, face_enumerator=esd_face_enumerator,
                            signatures=boundary_signatures):
    """h* of the interior polytope Q (even d) from the face counts of its
    cone triangulation.

    Each face of the boundary complex lies in the relative interior of
    exactly one face of Q.  If that face has a1 odd and a2 even labels,
    the complex's faces inside it are the joins of interior faces of
    edgewise subdivisions of simplices with a1 and a2 vertices, counted by
    inclusion-exclusion from `face_enumerator(r, a)`; `signatures(d)`
    counts the faces of Q by (a1, a2).  Coning with the interior point
    and reading h off the f-vector gives h*(Q).
    """
    r = (d + 2) // 2
    enum = {a: face_enumerator(r, a) for a in range(0, d // 2 + 1)}
    interior = {
        a: [
            sum((-1) ** (a - i) * comb(a, i) * enum[i][k] for i in range(k, a + 1))
            for k in range(a + 1)
        ]
        for a in enum
    }
    # a face has at most d/2 labels of each parity, so degree <= d
    boundary = [0] * (d + 1)
    for (a1, a2), mult in signatures(d).items():
        for k, c in enumerate(_poly_mul(interior[a1], interior[a2])):
            boundary[k] += mult * c
    h = h_from_f(_poly_mul(boundary, (1, 1)))
    if h[d + 1] != 0:
        raise AssertionError("cone triangulation h-vector must end in 0")
    return h[: d + 1]


def full_simplex(d):
    """The full d-simplex 2^[d+1] as a complex."""
    n = d + 1
    faces = [combinations(range(n), k + 1) for k in range(n)]
    return SimplicialComplex(range(1, n + 1), faces)


def ridge_graph_edges(p):
    """The facet pairs of `p` whose common vertices span a polytope of
    dimension dim - 2, the empty set having dimension -1: the oracle for
    `LatticePolytope.facet_ridge_graph`, one Smith form per candidate."""
    sets = p.facet_vertex_sets()
    edges = []
    d = p.dim()
    for i, j in combinations(range(len(sets)), 2):
        common = sets[i] & sets[j]
        if len(common) < d - 1:
            continue
        ridge = LatticePolytope([p.points[k] for k in common]).dim() if common else -1
        if ridge == d - 2:
            edges.append((i, j))
    return edges


def combinatorial_type(p):
    """The least relabelling of the computed facet vertex sets of `p` over
    every ordering of its vertices.  Two polytopes get the same value iff
    some vertex bijection carries the facets of one onto the other's."""
    verts = p.vertex_indices()
    return min(
        tuple(sorted(tuple(sorted(label[v] for v in f)) for f in p.facet_vertex_sets()))
        for label in (dict(zip(perm, range(len(verts)))) for perm in permutations(verts))
    )
