"""Laplacian matrices of simplicial complexes and their polytopes.

The i-th Laplacian is d_{i+1} d_{i+1}^T + d_i^T d_i over the face bases
fixed by the complex's vertex ordering; like every matrix in this package
it is a list of integer rows.  Every constructed matrix is
verified entry-by-entry against the combinatorial description (upper degree
on the diagonal, +-1 via similar/dissimilar common lower simplices), so an
ordering bug anywhere upstream fails fast instead of corrupting geometry.
"""

from __future__ import annotations

from .complexes import boundary_matrix, boundary_of_simplex
from .linalg import det_int
from .polytope import LatticePolytope


class LaplacianOrderingError(RuntimeError):
    """Raised when the matrix product disagrees with the combinatorial rule."""


def _lower_simplex_sign(face, sub):
    # sign of e_sub inside the boundary of e_face
    k = next(i for i, v in enumerate(face) if v not in sub)
    return (-1) ** k


def _combinatorial_entry(c, i, faces, upper, f, g):
    """Entry predicted by the combinatorial description of the Laplacian."""
    if f == g:
        return upper[f] + (i + 1 if i > 0 else 0)
    union = tuple(sorted(set(f) | set(g)))
    inter = tuple(sorted(set(f) & set(g)))
    if i == 0:
        return -1 if union in faces.get(i + 1, frozenset()) else 0
    if len(inter) != i or union in faces.get(i + 1, frozenset()):
        return 0
    same = _lower_simplex_sign(f, inter) == _lower_simplex_sign(g, inter)
    return 1 if same else -1


def laplacian_matrix(c, i):
    """The i-th Laplacian of `c`, verified against the combinatorial rule.

    It is the Gram matrix of the rows of [d_{i+1} | d_i^T], one row per
    i-face.
    """
    if i < 0 or i > c.dim:
        raise IndexError(f"Laplacian index {i} out of range for dim {c.dim}")
    di = boundary_matrix(c, i)
    stacked = [
        up + [row[a] for row in di]
        for a, up in enumerate(boundary_matrix(c, i + 1))
    ]
    lap = [[sum(x * y for x, y in zip(r, s)) for s in stacked] for r in stacked]
    faces_i = c.faces(i)
    faces = {i + 1: frozenset(c.faces(i + 1))}
    upper = {
        f: sum(1 for up in c.faces(i + 1) if set(f) <= set(up)) for f in faces_i
    }
    for a, f in enumerate(faces_i):
        for b, g in enumerate(faces_i):
            expected = _combinatorial_entry(c, i, faces, upper, f, g)
            if lap[a][b] != expected:
                raise LaplacianOrderingError(
                    f"Laplacian entry ({f}, {g}) is {lap[a][b]}, "
                    f"combinatorial rule gives {expected}"
                )
    return lap


def boundary_simplex_face_order(d):
    """Top-face order used for the closed form: F_i = [d+2] minus {d+3-i}.

    Faces are returned as position tuples (0-based); this coincides with
    the lexicographic order used by `boundary_matrix`.
    """
    n = d + 2
    return [
        tuple(p for p in range(n) if p != n - i) for i in range(1, n + 1)
    ]


def laplacian_boundary_simplex(d):
    """Closed form for the top Laplacian of the boundary of a (d+1)-simplex.

    Zero for d = 0; otherwise d+1 on the diagonal and (-1)^(i+j-1) off it,
    rows/columns ordered by `boundary_simplex_face_order`.  The result is
    cross-checked against `laplacian_matrix` after permuting to that order.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    n = d + 2
    if d == 0:
        mat = [[0, 0], [0, 0]]
    else:
        mat = [
            [d + 1 if i == j else (-1) ** (i + j - 1) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
    c = boundary_of_simplex(d + 1)
    computed = laplacian_matrix(c, d)
    order = boundary_simplex_face_order(d)
    lex = list(c.faces(d))
    perm = [lex.index(f) for f in order]
    permuted = [[computed[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    if permuted != mat:
        raise LaplacianOrderingError(
            "closed form disagrees with the constructed Laplacian"
        )
    return mat


def laplacian_polytope(c, k):
    """Convex hull of the columns of the k-th Laplacian, one point per
    distinct column (isolated vertices, for one, all give the zero column),
    in the order of the k-faces that first give them."""
    if k < 0 or k > c.dim:
        raise IndexError(f"Laplacian index {k} out of range for dim {c.dim}")
    return LatticePolytope(dict.fromkeys(zip(*laplacian_matrix(c, k))))


def ones_pattern(n, parity):
    """0/1 vector of length n with ones at positions of the given parity.

    Positions are 1-based: parity "odd" marks coordinates 1, 3, 5, ...
    """
    want = 1 if parity == "odd" else 0
    return tuple(1 if (k % 2) == want else 0 for k in range(1, n + 1))


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
    verts = []
    for b in reduced_vertices(d):
        v = tuple((x + 1) // 2 for x in b)
        if any((x + 1) % 2 for x in b):
            raise AssertionError("reduced vertex coordinates must be odd")
        verts.append(v)
    return verts


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
    odd = ones_pattern(n, "odd")
    even = ones_pattern(n, "even")
    if d % 2 == 1:
        head = [[o - e for o, e in zip(odd, even)]]
        constant = (0,)
    else:
        head = [list(odd), list(even)]
        constant = (n // 2, n // 2)
    drop = len(head)
    body = [
        [1 if j == drop + i else 0 for j in range(n)] for i in range(n - drop)
    ]
    transform = head + body
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
