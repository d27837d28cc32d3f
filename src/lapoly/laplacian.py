"""Laplacian matrices of simplicial complexes and their polytopes.

The i-th Laplacian is d_{i+1} d_{i+1}^T + d_i^T d_i over the face bases
fixed by the complex's vertex ordering; like every matrix in this package
it is a list of integer rows.  It is assembled from the signed face
incidences, one outer product per (i+1)-face and per (i-1)-face, with no
boundary matrix built.  Every entry of it is then compared with the
combinatorial description (upper degree on the diagonal, +-1 via
similar/dissimilar common lower simplices), evaluated apart from those
sums and only where it can be nonzero, so an ordering bug anywhere
upstream fails fast instead of corrupting geometry.

The top Laplacian of a simplex boundary, and the reduced polytope and
interior polytope built on it, come from closed forms proved in their
docstrings; no complex is built for them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .polytope import LatticePolytope


class LaplacianOrderingError(RuntimeError):
    """Raised when the assembled matrix disagrees with the combinatorial rule."""


def _combinatorial_entry(i, upper, degree, f, g):
    """Entry (f, g) of the i-th Laplacian by the combinatorial rule, for
    i-faces f and g that are equal or share i vertices.

    `upper` is the set of (i+1)-faces and `degree` counts the (i+1)-faces
    on each i-face.  The diagonal is the upper degree, plus i + 1 when
    i > 0.  For i = 0 an edge gives -1.  For i > 0 two faces whose union
    is an (i+1)-face give 0; otherwise the entry is the product of the
    signs (-1)^k with which their common (i-1)-face lies in each, k the
    position of the vertex it omits.
    """
    if f == g:
        return degree[f] + (i + 1 if i > 0 else 0)
    for x, v in enumerate(f):
        if v not in g:
            break
    for y, w in enumerate(g):
        if w not in f:
            break
    if tuple(sorted(f + (w,))) in upper:
        return -1 if i == 0 else 0
    return 1 if (x + y) % 2 == 0 else -1


def _add_star(lap, star):
    """Add the outer product of the signed incidences `star`, pairs
    (row, sign), to `lap`."""
    for a, s in star:
        row = lap[a]
        for b, t in star:
            row[b] += s * t


def laplacian_matrix(c, i):
    """The i-th Laplacian of `c`, verified against the combinatorial rule.

    Assembly: each (i+1)-face U adds (-1)^(j+l) at (a, b) for its
    boundary faces a and b, omitting positions j and l of U; each
    (i-1)-face adds likewise over the i-faces that contain it.

    Check: the rule is evaluated on the diagonal and on the candidate
    pairs, the i-faces that share an (i-1)-face (i > 0) or the two ends of
    an edge (i = 0); every other entry must be 0, and all n^2 are
    compared.  Proof that the rule gives 0 off the candidates: for
    distinct f and g, (d_{i+1} d_{i+1}^T)[f, g] sums over the
    (i+1)-faces that contain both, which must be f | g, so |f & g| = i;
    (d_i^T d_i)[f, g] sums over the (i-1)-faces in both, so again
    |f & g| = i, and f & g is then a face since the complex is closed.
    For i = 0 the second term is absent (d_0 = 0) and the first is
    nonzero only on an edge.
    """
    if i < 0 or i > c.dim:
        raise IndexError(f"Laplacian index {i} out of range for dim {c.dim}")
    faces = c.faces(i)
    index = {f: a for a, f in enumerate(faces)}
    n = len(faces)
    lap = [[0] * n for _ in range(n)]
    upper = c.faces(i + 1)
    for up in upper:
        _add_star(lap, [(index[up[:j] + up[j + 1 :]], (-1) ** j) for j in range(i + 2)])
    lower = {}
    for a, f in enumerate(faces if i > 0 else ()):
        for j in range(i + 1):
            lower.setdefault(f[:j] + f[j + 1 :], []).append((a, (-1) ** j))
    for star in lower.values():
        _add_star(lap, star)
    # the check: candidates, degrees and entries found apart from the sums
    shared = {}
    for a, f in enumerate(faces if i > 0 else ()):
        for low in combinations(f, i):
            shared.setdefault(low, []).append(a)
    groups = (
        shared.values() if i > 0
        else ([index[(u,)], index[(v,)]] for u, v in c.faces(1))
    )
    near = [[a] for a in range(n)]
    for group in groups:
        for a in group:
            near[a] += (b for b in group if b != a)
    degree = Counter(sub for up in upper for sub in combinations(up, i + 1))
    upper = frozenset(upper)
    for a, f in enumerate(faces):
        expected = [0] * n
        for b in near[a]:
            expected[b] = _combinatorial_entry(i, upper, degree, f, faces[b])
        if lap[a] != expected:
            b = next(b for b in range(n) if lap[a][b] != expected[b])
            raise LaplacianOrderingError(
                f"Laplacian entry ({f}, {faces[b]}) is {lap[a][b]}, "
                f"combinatorial rule gives {expected[b]}"
            )
    return lap


def laplacian_boundary_simplex(d):
    """The top Laplacian L_d of the boundary of a (d+1)-simplex, in closed
    form: zero for d = 0, otherwise d + 1 on the diagonal and (-1)^(i+j+1)
    at (i, j) off it, rows and columns in the lexicographic order of the
    d-faces, the order `laplacian_matrix` uses.

    Proof.  The boundary has no (d+1)-faces, so L_d = d_d^T d_d, which is
    0 for d = 0 (d_0 = 0).  Each d-face has d + 1 faces of dimension
    d - 1, each with sign +-1, so the diagonal is d + 1.  The d-faces are
    the vertex set [d+2] less one vertex, and in lexicographic order face
    a omits vertex u = d + 1 - a (0-based).  Two distinct faces a < b,
    omitting u > w, share exactly one (d-1)-face, [d+2] less {u, w}.  It
    omits w, at position w, from face a, and u, at position u - 1, from
    face b, so their entry is (-1)^(w + u - 1) = (-1)^(a + b + 1).
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    n = d + 2
    return [
        [(d + 1 if i == j else (-1) ** (i + j + 1)) if d else 0 for j in range(n)]
        for i in range(n)
    ]


def laplacian_polytope(c, k):
    """Convex hull of the columns of the k-th Laplacian, one point per
    distinct column (isolated vertices, for one, all give the zero column),
    in the order of the k-faces that first give them.  The Laplacian is
    symmetric, so its rows are its columns."""
    if k < 0 or k > c.dim:
        raise IndexError(f"Laplacian index {k} out of range for dim {c.dim}")
    return LatticePolytope(dict.fromkeys(map(tuple, laplacian_matrix(c, k))))


def reduced_vertices(d):
    """Vertices of the full-dimensional copy of the top Laplacian polytope
    of the simplex boundary: the columns of `laplacian_boundary_simplex(d)`
    without their first row (odd d, ambient dimension d + 1) or their
    first two rows (even d, ambient dimension d), which `reduce_full_dim`
    proves constant."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return list(zip(*laplacian_boundary_simplex(d)[2 - d % 2 :]))


def interior_polytope_vertices(d):
    """The d+2 lattice points (b + 1)/2 for even d; vertices of the
    interior polytope of the reduced Laplacian polytope.  Every coordinate
    of a reduced vertex b is d + 1 or +-1, so odd."""
    if d < 2 or d % 2 != 0:
        raise ValueError("defined for even d >= 2")
    return [tuple((x + 1) // 2 for x in b) for b in reduced_vertices(d)]


def reduce_full_dim(d):
    """Full-dimensional copy of the top Laplacian polytope of the simplex
    boundary, with its unimodular change of coordinates.

    Returns (polytope, transform).  The polytope's points are
    `reduced_vertices(d)`.  The transform T is a (d+2)x(d+2) matrix, as a
    list of rows, and T L, for L = `laplacian_boundary_simplex(d)`, has
    the constant head (0) for odd d, (d/2+1, d/2+1) for even d, in its
    first row or two, and the polytope's points as its columns below.  T
    is None for d = 0, where the polytope is a single point.

    T's head is the alternating row (1, -1, 1, ...) for odd d, and the
    indicator rows of the even and of the odd 0-based positions for even
    d.  Below the head T is the identity, so T L keeps the rows of L past
    the head, and the polytope is L with its head rows deleted.

    det T = 1: T is block triangular, with unit rows past the head, and
    the head's leading minor is det (1) or det of the 2x2 identity.

    The head rows are constant on every column j of L.  Odd d: the sum
    over i of (-1)^i L[i][j] is (-1)^j (d + 1) from the diagonal plus d + 1
    terms (-1)^i (-1)^(i+j+1) = -(-1)^j, so 0.  Even d, n = d + 2: the n/2
    positions i of one parity sum to d + 1 - (n/2 - 1) = n/2 when j has
    that parity (the diagonal and n/2 - 1 entries -1), and to n/2 entries
    +1 when it has not.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return LatticePolytope([()]), None
    n = d + 2
    if d % 2:
        head = [[(-1) ** j for j in range(n)]]
    else:
        head = [[1 - j % 2 for j in range(n)], [j % 2 for j in range(n)]]
    unit = [[int(j == i) for j in range(n)] for i in range(len(head), n)]
    return LatticePolytope(reduced_vertices(d)), head + unit
