"""Exact lattice-polytope kernel.

V-representations over the integers with lazily computed exact affine
hulls, vertex sets, irredundant H-representations, facet-ridge graphs,
lattice-point scans, interior polytopes and reflexivity, all exact, with
no floating point and no LP.  One Smith normal form of the difference
rows p_i - p_0 serves each point set: its dimension, affine-hull
equations, saturated lattice basis, reduced coordinates and, at corank
1, its affine dependency.  Facets, tight sets and volume are one record
(`_hull`) with two routes.  With at most dim + 2 vertices one exact
inverse per circuit cell gives its facets and its |det|, and the signs of
the affine dependency give the combinatorial type; past that, one
beneath-beyond placing pass gives vertices, facets and volume.  Both stay:
on 768 seeded random complexes the placing pass answered corank-1
polytopes 40 % and simplices 10 % slower than the circuit cells.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import mul

from .budgets import BudgetError, point_budget
from .linalg import (
    _back_substitute,
    _echelon,
    _pivot_minor,
    hnf,
    int_tuple,
    snf_with_transform,
    solve_int,
    vec_gcd,
)


class Halfspace:
    """Inequality normal . x <= offset with a primitive integer normal."""

    __slots__ = ("normal", "offset")

    def __init__(self, normal, offset):
        *normal, self.offset = int_tuple((*normal, offset))
        if vec_gcd(normal) != 1:
            raise ValueError("halfspace normal must be primitive and nonzero")
        self.normal = tuple(normal)

    def value(self, point):
        return sum(a * x for a, x in zip(self.normal, point))

    def __repr__(self):
        return f"Halfspace({self.normal}.x <= {self.offset})"


class NotFullDimensionalError(ValueError):
    """Operation needs a polytope that spans its ambient space."""


class FacetRidgeGraph:
    """Graph on facets, adjacent when they meet in a ridge."""

    __slots__ = ("nodes", "edges")

    def __init__(self, nodes, edges):
        self.nodes = list(nodes)
        self.edges = sorted(set(tuple(sorted(e)) for e in edges))

    @property
    def edge_count(self):
        return len(self.edges)

    def degrees(self):
        deg = [0] * len(self.nodes)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def is_regular(self, k):
        return all(d == k for d in self.degrees())

    def is_connected(self):
        if not self.nodes:
            return True
        adj = {i: [] for i in range(len(self.nodes))}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.nodes)


class LatticePolytope:
    """Convex hull of integer points, with exact cached derived data."""

    __slots__ = (
        "points",
        "ambient_dim",
        "_vertex_indices",
        "_smith",
        "_dependency_cache",
        "_affine",
        "_hull_cache",
        "_placed",
    )

    def __init__(self, points):
        pts = [int_tuple(p) for p in points]
        if not pts:
            raise ValueError("a polytope needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("generator points must be distinct")
        self.points = tuple(pts)
        self.ambient_dim = len(pts[0])
        for p in pts:
            if len(p) != self.ambient_dim:
                raise ValueError("points of mixed dimension")
        self._vertex_indices = None
        self._smith = None
        self._dependency_cache = None
        self._affine = None
        self._hull_cache = None
        self._placed = None

    # -- basic geometry ----------------------------------------------------

    def dim(self):
        return self.affine_hull()[0]

    def _smith_form(self):
        """(U, diag, V, V^-1) of the Smith form D = U S V of the difference
        rows D_i = p_i - p_0, the zero row of p_0 included; diag holds the
        r nonzero invariants, r = dim, which come first on S's diagonal.
        Computed once, and preset on the copy from `full_dimensional`."""
        if self._smith is None:
            base = self.points[0]
            diffs = [[a - b for a, b in zip(p, base)] for p in self.points]
            u, s, v, vinv = snf_with_transform(diffs)
            diag = [s[i][i] for i in range(min(len(s), len(v))) if s[i][i]]
            self._smith = (u, diag, v, vinv)
        return self._smith

    def affine_hull(self):
        """(dimension, equations); each equation is (normal, offset) with
        the normals forming a canonical (HNF) basis of the saturated
        equation lattice.  With D = U S V (`_smith_form`) and r nonzero
        invariants, the dimension is r, and the columns r.. of V^-1 are a
        unimodular basis of the integer kernel of D: D V^-1 = U S vanishes
        past column r, and x in ker D has V x zero up to r."""
        if self._affine is None:
            _, diag, _, vinv = self._smith_form()
            base = self.points[0]
            normals = list(zip(*vinv))[len(diag):]
            equations = [(tuple(a), sum(map(mul, a, base))) for a in hnf(normals)]
            self._affine = (len(diag), equations)
        return self._affine

    def _dependency(self):
        """The affine dependency c (sum c_i p_i = 0, sum c_i = 0) of a
        point set whose dependencies form a line (corank 1).

        With D = U S V (`_smith_form`) and r nonzero invariants, y D = 0
        iff y U vanishes on its first r entries, so the rows r.. of U^-1,
        found by one solve of U^T, span the left kernel of D.  Such a y
        gives the dependency c_i = y_i (i >= 1), c_0 = -sum_{i>=1} y_i,
        as D_i = p_i - p_0; y_0 multiplies the zero row and drops out.
        Of the (two) rows the first with a nonzero image is kept."""
        if self._dependency_cache is None:
            u, diag, _, _ = self._smith_form()
            n = len(u)
            _, ys = solve_int(
                [list(col) for col in zip(*u)],
                [[int(i == j) for i in range(n)] for j in range(len(diag), n)],
            )
            self._dependency_cache = next(
                c for c in ([-sum(y[1:]), *y[1:]] for y in ys) if any(c)
            )
        return self._dependency_cache

    def _lex_extreme(self, functional):
        """Index of the lexicographically largest maximizer of a linear
        functional; always a vertex."""
        values = [sum(map(mul, functional, p)) for p in self.points]
        top = max(values)
        return max((i for i, v in enumerate(values) if v == top), key=self.points.__getitem__)

    def vertex_indices(self):
        """Indices of generator points that are genuine vertices.

        Decided from the affine dependencies
        D = {c : sum c_i p_i = 0, sum c_i = 0}, the kernel of the lifted
        matrix with columns (p_i, 1).  Theorem: p_i lies in the convex hull
        of the other points iff some c in D has c_i < 0 and c_j >= 0 for
        every j != i.  Proof: p_i = sum_{j != i} l_j p_j with l >= 0,
        sum l = 1 gives c = (l with -1 at i) in D.  Conversely,
        sum c = 0 makes sum_{j != i} c_j = -c_i > 0, and dividing
        sum_{j != i} c_j p_j = -c_i p_i by -c_i writes p_i as a convex
        combination of the others.

        D has dimension n - 1 - dim (the corank).  Corank 0: every point
        is a vertex.  Corank 1: D is spanned by one c, so p_i is a
        non-vertex iff i is the only negative index of c or of -c; a
        point with c_i = 0 is a vertex.  Corank >= 2: the lexicographic
        maximisers of the +-e_k if they are all the points, else the points
        that the placing pass (`_place`) places.  Proof: a lexicographic
        maximiser of a linear functional is a vertex, as maximising it and
        then each coordinate in turn narrows the maximising face to one
        point, and the pass places only such maximisers.  It stops when no
        point is beyond a boundary simplex of the hull of the placed
        points; a point beneath or on all of them lies in that hull, so
        the hull holds every point, and every vertex is placed.
        """
        if self._vertex_indices is None:
            n = len(self.points)
            corank = n - 1 - self.dim()
            if corank == 0:
                self._vertex_indices = tuple(range(n))
            elif corank == 1:
                c = self._dependency()
                negative = [i for i, x in enumerate(c) if x < 0]
                positive = [i for i, x in enumerate(c) if x > 0]
                inside = {s[0] for s in (negative, positive) if len(s) == 1}
                self._vertex_indices = tuple(i for i in range(n) if i not in inside)
            else:
                seeds = {
                    self._lex_extreme([sgn * (j == k) for j in range(self.ambient_dim)])
                    for k in range(self.ambient_dim) for sgn in (1, -1)
                }
                self._vertex_indices = (
                    tuple(range(n)) if len(seeds) == n else self._placing()[0])
        return self._vertex_indices

    def _placing(self):
        """`_place`, run once on the polytope if it spans its ambient space,
        else on its copy from `full_dimensional`, whose later copies inherit it."""
        if self._placed is None:
            full = self if self.is_full_dimensional() else self.full_dimensional()[0]
            self._placed = full._place()
        return self._placed

    def _place(self):
        """One beneath-beyond placing pass (Edelsbrunner, *Algorithms in
        Combinatorial Geometry*, 1987) over full-dimensional points:
        (vertex indices, {(normal, offset): tight vertex set}, sorted cells,
        normalized volume), proved in `vertex_indices` and `_hull`.  The
        hull of the placed points is kept as its triangulated boundary, each
        simplex t_0, ..., t_(d-1) with its cofactor normal n . x <= c,
        n . (x - t_0) = +-det[t_1 - t_0; ...; x - t_0], and the points
        beyond it.  It starts as a simplex grown by maximisers of
        affine-hull equations, whose boundary and |det| come from one
        `_simplex_inverse`.  While a point is beyond, the lexicographic
        maximiser q of a normal is coned over the visible simplices
        (n . q > c), new cells of |det| n . q - c, and over each horizon
        ridge (held by one visible simplex), new boundary.  The cones fill
        conv(hull, q) outside the hull: a placing triangulation, which is
        regular (De Loera, Rambau and Santos, *Triangulations*, 4.3)."""
        pts, d = self.points, self.ambient_dim
        hull, cells = {}, []

        def equations(face):
            # a . x = c on aff(face), a = det * (x - e_f) for each free column
            # f, x solving the pivot columns against f: the cofactor normal
            base = pts[face[0]]
            m = [[a - b for a, b in zip(pts[i], base)] for i in face[1:]]
            pivots, _ = _echelon(m, d)
            free = [f for f in range(d) if f not in pivots]
            det = _pivot_minor(m, pivots)
            kernel = _back_substitute(m, pivots, d, free, det)
            for a, f in zip(kernel, free):
                a[f] = -det
            return [(a, sum(map(mul, a, base))) for a in kernel]

        def add(face, normal, offset, outside):
            # a point beyond the face is outside the previous hull, so
            # `outside` holds every point beyond it
            hull[face] = normal, offset, [
                i for i in outside if sum(map(mul, normal, pts[i])) > offset]

        simplex = [self._lex_extreme([0] * d)]
        while len(simplex) <= d:
            simplex.append(next(
                i for a, c in equations(simplex) for f, b in ((a, c), ([-x for x in a], -c))
                for i in [self._lex_extreme(f)] if sum(map(mul, f, pts[i])) > b))
        simplex.sort()
        volume, boundary = _simplex_inverse([pts[i] for i in simplex])
        for k, (normal, offset) in zip(simplex, boundary):
            add(tuple(i for i in simplex if i != k), normal, offset, range(len(pts)))
        cells.append(tuple(simplex))
        while any(above for _, _, above in hull.values()):
            # the maximiser over the points beyond a face is the one over all
            normal, _, above = next(v for v in hull.values() if v[2])
            q = max(above, key=lambda i: (sum(map(mul, normal, pts[i])), pts[i]))
            outside = {i for _, _, above in hull.values() for i in above}
            horizon = {}
            for f in [f for f, (n, c, _) in hull.items() if sum(map(mul, n, pts[q])) > c]:
                normal, offset, _ = hull.pop(f)
                volume += sum(map(mul, normal, pts[q])) - offset
                cells.append(tuple(sorted(f + (q,))))
                for k in range(d):
                    ridge = f[:k] + f[k + 1:]
                    if horizon.pop(ridge, None) is None:
                        horizon[ridge] = f[k]
            for ridge, apex in horizon.items():
                ((normal, offset),) = equations(face := tuple(sorted(ridge + (q,))))
                s = -1 if sum(map(mul, normal, pts[apex])) > offset else 1
                add(face, [s * a for a in normal], s * offset, outside)
        verts = tuple(sorted({i for cell in cells for i in cell}))
        facets = dict.fromkeys(_primitive(n, c) for n, c, _ in hull.values())
        for n, c in facets:
            facets[n, c] = frozenset(i for i in verts if sum(map(mul, n, pts[i])) == c)
        return verts, facets, cells, volume

    def vertices(self):
        return [self.points[i] for i in self.vertex_indices()]

    def is_full_dimensional(self):
        return self.dim() == self.ambient_dim

    def translate(self, vec):
        return LatticePolytope(
            [tuple(x + v for x, v in zip(p, vec)) for p in self.points]
        )

    # -- H-representation ---------------------------------------------------

    def facets(self):
        """Irredundant H-representation, sorted by (normal, offset) (`_hull`)."""
        return self._hull()[0]

    def facet_vertex_sets(self):
        """Vertex-index sets, aligned with `facets()`."""
        return self._hull()[1]

    def _hull(self):
        """(facets as sorted `Halfspace`s, aligned tight vertex-index sets,
        normalized volume) of a full-dimensional polytope, computed once.
        With more than dim + 2 vertices all three are read from the placing
        pass (`_place`): each boundary simplex lies in a facet, each facet
        is a union of them, and its cells triangulate P.  With at most
        dim + 2 vertices V they are read off the circuit triangulation, one
        `_simplex_inverse` per cell giving its facets and its |det|.

        Theorem.  Let c be the affine dependency of V (0 for a simplex;
        signs from `_signs`).  The cells V - {k}, k in the smaller sign
        class (V itself for a simplex), triangulate P (the circuit
        triangulation; De Loera, Rambau and Santos, *Triangulations*, 2.4),
        and P's facets are the facets of a cell V - {k} opposite an i with
        c_i = 0, tight at V - {i}, or with c_i c_k < 0, tight at V - {i, k}.
        Proof.  V - {k} is a simplex, as c_k != 0 and every dependency is a
        multiple of c.  The convex weights of a point of P are l + t c, t
        in an interval, and at its lower end some weight of the positive
        class vanishes, so the cells cover P.  If x were interior to
        V - {k} and V - {k'}, k != k' positive, its weights would differ
        by t c with t c_k > 0 > t c_k', so the interiors are disjoint; the
        negative class is alike.  P's facets are the V - {j} with c_j = 0
        and the V - {i, k} with c_i c_k < 0 (`combinatorially_equivalent`).
        A cell's facet opposite i spans aff(V - {i, k}), the hyperplane of
        V - {i} when c_i = 0, and the cell lies in P on p_i's side.  Every
        cell gives each V - {j}, and the cell of whichever of i, k lies in
        the smaller class gives V - {i, k}.
        """
        if self._hull_cache is None:
            d = self.dim()
            if d != self.ambient_dim or d < 1:
                raise NotFullDimensionalError(
                    f"polytope has dim {d} in ambient {self.ambient_dim}, not full and >= 1")
            sign = self._signs()
            if sign is None:
                _, found, _, volume = self._placing()
            else:
                verts, found, volume = frozenset(sign), {}, 0
                side = min(([i for i in sign if sign[i] == s] for s in (1, -1)), key=len)
                for k in side or [None]:
                    cell = [i for i in sign if i != k]
                    det, boundary = _simplex_inverse([self.points[i] for i in cell])
                    volume += det
                    for i, (n, c) in zip(cell, boundary):
                        if not sign[i]:
                            found[_primitive(n, c)] = verts - {i}
                        elif sign[i] != sign[k]:
                            found[_primitive(n, c)] = verts - {i, k}
            keys = sorted(found)
            self._hull_cache = ([Halfspace(*key) for key in keys],
                                [found[key] for key in keys], volume)
        return self._hull_cache

    def _signs(self):
        """With at most dim + 2 vertices, {vertex i: sign of c_i}, c the
        affine dependency of the vertices (all 0 for a simplex), built as a
        polytope of their own only if some point is not one; None with more."""
        verts = self.vertex_indices()
        if len(verts) == self.dim() + 1:
            return dict.fromkeys(verts, 0)
        if len(verts) > self.dim() + 2:
            return None
        hull = self if len(verts) == len(self.points) else LatticePolytope(
            [self.points[i] for i in verts])
        return {i: (x > 0) - (x < 0) for i, x in zip(verts, hull._dependency())}

    def facet_ridge_graph(self):
        """Facets joined when their common vertices span a ridge, a face
        of dimension d - 2; the empty face has dimension -1, so the two
        endpoints of a segment are adjacent.

        Theorem.  Facets F, G meet in a ridge iff no third facet contains
        their common vertices.  Proof.  F & G is the hull of those
        vertices.  A ridge lies in exactly two facets (the diamond
        property); a face of dimension k <= d - 3, the empty one included,
        lies in at least d - k >= 3, as its dual face in the polar has
        dimension d - 1 - k.  A ridge has at least d - 1 vertices.
        """
        sets = self.facet_vertex_sets()
        edges = []
        d = self.dim()
        for i, j in combinations(range(len(sets)), 2):
            common = sets[i] & sets[j]
            if len(common) >= d - 1 and not any(
                    common <= s for k, s in enumerate(sets) if k != i and k != j):
                edges.append((i, j))
        return FacetRidgeGraph(sets, edges)

    # -- full-dimensional reduction ------------------------------------------

    def full_dimensional(self):
        """Unimodular copy spanning its ambient space.

        Returns (polytope, basis, base) where basis rows generate the
        saturated lattice of the affine hull and base is the translation:
        original point = base + coords . basis.  Both are read from
        D = U S V (`_smith_form`) with r nonzero invariants: basis = V[:r]
        and coords = (U S)[:, :r], as S vanishes past column r; an exact
        check rebuilds every point.  The copy's points follow the
        original's index for index under an injective affine map, which
        preserves vertices and affine dependencies, so a computed vertex
        set and dependency carry over, as does the placing pass of a polytope
        short of its ambient space, which ran on such a copy.  The copy's
        base point is 0, so its difference rows are its coords and its
        Smith form is (U, diag, I, I).
        """
        u, diag, v, _ = self._smith_form()
        r = len(diag)
        base = self.points[0]
        basis = [list(row) for row in v[:r]]
        coords = [tuple(map(mul, row, diag)) for row in u]
        columns = list(zip(*basis)) if basis else [()] * self.ambient_dim
        for p, x in zip(self.points, coords):
            if tuple([b + sum(map(mul, x, col)) for b, col in zip(base, columns)]) != p:
                raise AssertionError("saturated basis must span all points")
        reduced = LatticePolytope(coords)
        identity = [[int(i == j) for j in range(r)] for i in range(r)]
        reduced._smith = (u, diag, identity, identity)
        reduced._vertex_indices = self._vertex_indices
        reduced._dependency_cache = self._dependency_cache
        if r < self.ambient_dim:
            reduced._placed = self._placed
        return reduced, basis, base

    # -- lattice points -------------------------------------------------------

    def _check_box(self, n, budget=None):
        """The bounding box (lo, hi) of nP; BudgetError if it holds more
        candidate points than the budget."""
        lo = [min(p[i] for p in self.points) * n for i in range(self.ambient_dim)]
        hi = [max(p[i] for p in self.points) * n for i in range(self.ambient_dim)]
        volume, limit = prod(b - a + 1 for a, b in zip(lo, hi)), point_budget(budget)
        if volume > limit:
            raise BudgetError(f"box scan needs {volume} candidate points, budget is {limit}")
        return lo, hi

    def _scan(self, n, budget=None, collect=False, strict=False):
        """Count (or collect) lattice points of the n-th dilation.

        Recursive box scan: coordinates are fixed left to right, pruning
        each inequality by its best possible remaining contribution.  The
        candidate budget is the bounding-box volume, checked up front.
        """
        d = self.ambient_dim
        if d == 0:
            return ([()] if collect else 1)
        if n == 0:
            origin = (0,) * d
            return ([origin] if collect else 1)
        ineqs = [
            (h.normal, n * h.offset - (1 if strict else 0)) for h in self.facets()
        ]
        lo, hi = self._check_box(n, budget)
        # suffix_min[j][k]: minimal contribution of coordinates k.. to ineq j
        suffix_min = []
        for normal, _ in ineqs:
            s = [0] * (d + 1)
            for k in range(d - 1, -1, -1):
                a = normal[k]
                s[k] = s[k + 1] + min(a * lo[k], a * hi[k])
            suffix_min.append(s)

        out = [] if collect else None
        count = 0
        prefix = [0] * d

        def rec(depth, partial):
            nonlocal count
            lo_k, hi_k = lo[depth], hi[depth]
            for j, (normal, b) in enumerate(ineqs):
                a = normal[depth]
                room = b - partial[j] - suffix_min[j][depth + 1]
                if a > 0:
                    q = room // a  # floor(room / a)
                    if q < hi_k:
                        hi_k = q
                elif a < 0:
                    q = -(room // -a)  # ceil(room / a)
                    if q > lo_k:
                        lo_k = q
                else:
                    if room < 0:
                        return
            if lo_k > hi_k:
                return
            if depth == d - 1:
                if collect:
                    for x in range(lo_k, hi_k + 1):
                        out.append(tuple(prefix[:depth]) + (x,))
                else:
                    count += hi_k - lo_k + 1
                return
            for x in range(lo_k, hi_k + 1):
                prefix[depth] = x
                nxt = [
                    partial[j] + ineqs[j][0][depth] * x for j in range(len(ineqs))
                ]
                rec(depth + 1, nxt)

        rec(0, [0] * len(ineqs))
        if collect:
            out.sort()
            return out
        return count

    def lattice_point_count(self, n=1, budget=None):
        """|nP intersect Z^d| by exact box scan (full-dimensional P)."""
        if n < 0:
            raise ValueError("dilation must be >= 0")
        return self._scan(n, budget=budget, collect=False)

    def interior_lattice_points(self):
        """Lattice points satisfying every facet inequality strictly."""
        if self.ambient_dim == 0:
            return []
        return self._scan(1, collect=True, strict=True)

    def interior_polytope(self):
        """Convex hull of the interior lattice points, or None if empty."""
        if not self.is_full_dimensional():
            raise NotFullDimensionalError("interior polytope needs full dim")
        pts = self.interior_lattice_points()
        if not pts:
            return None
        return LatticePolytope(pts)

    def is_reflexive(self):
        """True iff, after translating the unique interior lattice point to
        the origin, every facet inequality has offset exactly 1."""
        if not self.is_full_dimensional():
            raise NotFullDimensionalError("reflexivity needs full dim")
        interior = self.interior_lattice_points()
        if len(interior) != 1:
            return False
        z = interior[0]
        return all(
            h.offset - h.value(z) == 1 for h in self.facets()
        )

    # -- volume ----------------------------------------------------------------

    def normalized_volume(self):
        """dim! times the Euclidean volume (`_hull`); 1 for the point Z^0."""
        return 1 if self.ambient_dim == 0 else self._hull()[2]

    def __repr__(self):
        return (
            f"LatticePolytope({len(self.points)} points, "
            f"ambient={self.ambient_dim})"
        )


def cyclic_polytope(d, n):
    """Cyclic polytope C(d, n) from the moment curve at t = 1..n.

    The computed facets are cross-checked against Gale's evenness
    condition.
    """
    if not (n >= d + 1 >= 2):
        raise ValueError("need n >= d+1 >= 2")
    points = [tuple(t**k for k in range(1, d + 1)) for t in range(1, n + 1)]
    poly = LatticePolytope(points)
    computed = {frozenset(s) for s in poly.facet_vertex_sets()}
    gale = {frozenset(s) for s in gale_evenness_sets(d, n)}
    if computed != gale:
        raise AssertionError("cyclic polytope facets fail Gale's condition")
    return poly


def gale_evenness_sets(d, n):
    """All facet vertex sets (0-based indices) of C(d, n) by Gale evenness."""
    sets = []
    for s in combinations(range(n), d):
        rest = [i for i in range(n) if i not in s]
        if all(sum(a < k < b for k in s) % 2 == 0 for a, b in combinations(rest, 2)):
            sets.append(s)
    return sets


def _simplex_inverse(points):
    """(|det E|, [(n_k, c_k) for each k]) for the d-simplex conv(points) in
    Z^d, E with the rows (p_j, 1): n_k . x <= c_k on the simplex, tight on
    the facet opposite p_k, and n_k . x - c_k = +-det E_k(x), E_k(x) being
    E with row k replaced by (x, 1): the cofactor normal of that facet.

    Proof.  `solve_int` gives det(E) E^-1.  Its column k is (a, b) with
    a . x + b = det E_k(x): both sides are affine in x, vanish at every
    p_j, j != k (two equal rows), and equal det E at p_k.  Divided by
    det E it is the barycentric coordinate of p_k, >= 0 on the simplex, so
    n_k = -sign(det E) a and c_k = sign(det E) b.
    """
    n = len(points)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    det, cols = solve_int([[*p, 1] for p in points], identity)
    s = 1 if det > 0 else -1
    return abs(det), [([-s * a for a in col[:-1]], s * col[-1]) for col in cols]


def _primitive(normal, offset):
    """normal . x <= offset divided by the gcd g of the normal; g divides
    offset, which is normal . p for a lattice point p on the hyperplane."""
    g = vec_gcd(normal)
    return tuple(a // g for a in normal), offset // g


def combinatorially_equivalent(p, q):
    """Vertex bijection carrying the facet hypergraph of `p` onto `q`'s:
    (True, mapping) with mapping a dict over vertex positions, or
    (False, None).  Simplices match by any bijection; with dim + 2
    vertices the signs of the one affine dependency c decide (Gale
    duality; Grünbaum, *Convex Polytopes*, 6.1; Ziegler, *Lectures on
    Polytopes*, ch. 6); more vertices raise ValueError.

    Theorem.  Two d-polytopes with d + 2 vertices are combinatorially
    equivalent iff their classes of zero, positive and negative c_i have
    equal sizes, the two signs allowed to swap; a bijection that maps
    class onto class is then a witness.
    Proof.  c is unique up to scale and has two entries of each sign, as
    a lone negative c_i would put p_i in the hull of the others.  A facet
    of P = conv(V) misses one or two vertices.  V - {j} spans a hyperplane
    iff it is dependent, iff c_j = 0, and that hyperplane misses p_j: a
    facet.  If c_i = c_k = 0, V - {i, k} spans no hyperplane; otherwise it
    spans {l = 0}, l affine, and l applied to the dependency leaves
    c_i l(p_i) + c_k l(p_k) = 0.  So p_i, p_k lie strictly on one side (a
    facet) iff c_i c_k < 0; with one sign the sides differ, and if c_k = 0
    then p_i lies on it.  The facets, the V - {j} with c_j = 0 and the
    V - {i, k} with c_i c_k < 0, depend only on the classes.  Conversely,
    the z zero vertices are those that miss only one facet (the others
    miss m or n >= 2, the sizes of the sign classes), and there are
    z + m*n facets; with m + n = d + 2 - z, these fix {m, n}.
    """
    if p.dim() != q.dim():
        return False, None
    if len(p.vertex_indices()) != len(q.vertex_indices()):
        return False, None
    if len(p.vertex_indices()) > p.dim() + 2:
        raise ValueError("combinatorial equivalence needs at most dim + 2 vertices")

    def classes(poly):
        sign = poly._signs()
        return [[v for v in sign if sign[v] == s] for s in (0, 1, -1)]

    (pz, pp, pn), (qz, qp, qn) = classes(p), classes(q)
    if len(pp) != len(qp):
        qp, qn = qn, qp
    if (len(pz), len(pp), len(pn)) != (len(qz), len(qp), len(qn)):
        return False, None
    return True, dict(zip(pz + pp + pn, qz + qp + qn))
