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
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .complexes import boundary_of_simplex
from .linalg import det_int
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
    """Closed form for the top Laplacian of the boundary of a (d+1)-simplex.

    Zero for d = 0; otherwise d+1 on the diagonal and (-1)^(i+j-1) off it,
    rows/columns ordered F_1, ..., F_(d+2), F_i = [d+2] minus {d+3-i}.
    That is the lexicographic order of the d-faces, so the result is
    cross-checked against `laplacian_matrix` as it stands.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    n = d + 2
    mat = [
        [(d + 1 if i == j else (-1) ** (i + j + 1)) if d else 0 for j in range(n)]
        for i in range(n)
    ]
    if laplacian_matrix(boundary_of_simplex(d + 1), d) != mat:
        raise LaplacianOrderingError(
            "closed form disagrees with the constructed Laplacian"
        )
    return mat


def laplacian_polytope(c, k):
    """Convex hull of the columns of the k-th Laplacian, one point per
    distinct column (isolated vertices, for one, all give the zero column),
    in the order of the k-faces that first give them.  The Laplacian is
    symmetric, so its rows are its columns."""
    if k < 0 or k > c.dim:
        raise IndexError(f"Laplacian index {k} out of range for dim {c.dim}")
    return LatticePolytope(dict.fromkeys(map(tuple, laplacian_matrix(c, k))))


def reduced_vertices(d):
    """Vertices of the full-dimensional copy of the top Laplacian polytope.

    For odd d the first coordinate row is deleted (ambient dimension d+1),
    for even d the first two are (ambient dimension d).  Entry formula:
    d+1 at coordinate l-1 (odd) / l-2 (even), alternating signs elsewhere.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    return _deleted_rows(laplacian_boundary_simplex(d), d)


def _deleted_rows(lap, d):
    """The columns of `lap` with the first row (odd d) or two (even d) deleted."""
    return list(zip(*lap[1 if d % 2 == 1 else 2 :]))


def interior_polytope_vertices(d):
    """The d+2 lattice points (b + 1)/2 for even d; vertices of the
    interior polytope of the reduced Laplacian polytope."""
    if d < 2 or d % 2 != 0:
        raise ValueError("defined for even d >= 2")
    verts = reduced_vertices(d)
    if any(x % 2 == 0 for b in verts for x in b):
        raise AssertionError("reduced vertex coordinates must be odd")
    return [tuple((x + 1) // 2 for x in b) for b in verts]


def reduce_full_dim(d):
    """Full-dimensional copy of the top Laplacian polytope of the simplex
    boundary, with its verified unimodular change of coordinates.

    Returns (polytope, transform).  The transform is a unimodular
    (d+2)x(d+2) matrix, as a list of rows; applied to every column of the
    Laplacian it yields the constant (0) for odd d, (d/2+1, d/2+1) for
    even d, in the first row or two, and the polytope's coordinates in the
    rest.  It is None for d = 0, where the polytope is a single point.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return LatticePolytope([()]), None
    n = d + 2
    lap = laplacian_boundary_simplex(d)
    odd = [k % 2 for k in range(1, n + 1)]  # ones at the odd 1-based positions
    even = [1 - o for o in odd]
    if d % 2 == 1:
        head = [[o - e for o, e in zip(odd, even)]]
        constant = (0,)
    else:
        head = [odd, even]
        constant = (n // 2, n // 2)
    drop = len(head)
    transform = head + [[int(j == i) for j in range(n)] for i in range(drop, n)]
    if abs(det_int(transform)) != 1:
        raise AssertionError("reduction transform must be unimodular")
    reduced_points = []
    for col in zip(*lap):
        image = [sum(a * b for a, b in zip(row, col)) for row in transform]
        if tuple(image[:drop]) != constant:
            raise AssertionError(
                "affine-hull equations violated: transform does not split "
                "off constant coordinates"
            )
        reduced_points.append(tuple(image[drop:]))
    if reduced_points != _deleted_rows(lap, d):
        raise AssertionError("reduction disagrees with row deletion")
    return LatticePolytope(reduced_points), transform
