"""Triangulations: edgewise subdivisions, joins, cones and dilations.

The constructions here assemble the regular unimodular triangulation of the
reduced Laplacian polytope of a simplex boundary: a join of two edgewise
subdivisions for odd d; for even d a triangulation of the interior polytope
(facet joins glued, coned over the unique interior point) refined by a
second edgewise subdivision.  All three edgewise subdivisions come from one
template (`_edgewise_template`), generated directly as chains of vertex
multisets, and place their points through one kernel (`_subdivide`),
which keys each point by its multiset of vertex positions: a key seen
before keeps its id.  One check (`_distinct`, proof in its docstring)
shows that no two keys of a construction share a point.  Every
triangulation carries proposed lifting heights; `is_regular` certifies
them independently by exact fold checks, falling back to an exact LP
search when no usable heights are present.  Both
checkers read one walk across the shared ridges (`_RidgeWalk`), built from
the cells and the pool by whichever runs first and kept on the
triangulation: it carries each cell's inverse matrix by exact rank-one
steps, whose pivots give every cell's determinant for
`verify_triangulation`, and it keeps the steps, so a height vector's fold
values take one covector pass over them (an integer on unimodular cells):
a step gives its own fold's value, and only the folds off the walk's tree
take a dot product.  `h_vector_of` reads the same steps: on a triangulation
that `verify_triangulation` has proved, it carries the barycentric
coordinates of one interior point from cell to cell and counts the
negative ones in each cell (half-open decomposition, proof in its
docstring), with no face sets.  The even-d cone and its refinement get
their heights by one recipe (`_scaled_heights`): a base vector scaled by
the least N that makes every fold of their own walk strictly convex, plus
a secondary vector.  Both scale on the first read of their heights, so a
build walks no ridges: the refinement's first read scales the cone on the
cone's walk, then itself on its own walk, which its checkers reuse.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress
from operator import itemgetter, lt, mul

from . import lp
from .budgets import BudgetError, cell_budget
from .laplacian import interior_polytope_vertices, reduce_full_dim
from .linalg import int_tuple, solve_int
from .polytope import LatticePolytope

# largest triangulation on which `is_regular` searches heights by exact LP
LP_CELL_LIMIT = 4000


class Triangulation:
    """A set of maximal lattice simplices over a shared vertex pool.

    A value: the constructor stores pool points as int tuples and cells
    sorted, and refuses a cell entry that is not an int index into the pool
    (ValueError); no field is ever reassigned (AttributeError).  `heights`
    are proposed lifting heights, or None.  They may be given as a callable
    of the triangulation, which runs on the first read of `heights`; its
    list is stored.  The ridge walk of the cells (`_walk_of`) is built by
    the first checker or heights read that needs it and kept, and the
    checkers record what they proved in `checks`.
    """

    __slots__ = ("vertex_pool", "cells", "carrier", "_heights", "checks", "_walk")

    def __init__(self, vertex_pool, cells, carrier, heights=None):
        fill = partial(object.__setattr__, self)
        fill("vertex_pool", [int_tuple(p) for p in vertex_pool])
        fill("cells", [self._sorted_cell(c) for c in cells])
        fill("carrier", carrier)
        fill("_heights", heights)
        fill("checks", {})
        fill("_walk", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Triangulation is immutable; cannot assign {name!r}")

    def _sorted_cell(self, c):
        """c as a sorted tuple, c itself when it already is one (a copy of
        every cell would hold two full cell lists at once).  Every entry
        must be an int index into the pool (ValueError): the sorted ends
        bound them, and their sum is an int only if each one is."""
        try:
            s = tuple(sorted(c))
            ok = s and isinstance(sum(s), int) and 0 <= s[0] and s[-1] < len(self.vertex_pool)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"cell {c!r} is not a set of indices into the vertex pool")
        return c if s == c else s

    @property
    def heights(self):
        if callable(self._heights):
            object.__setattr__(self, "_heights", self._heights(self))
        return self._heights

    @property
    def dim(self):
        return len(self.cells[0]) - 1 if self.cells else -1

    @property
    def cell_count(self):
        return len(self.cells)

    def used_vertex_indices(self):
        used = set()
        for c in self.cells:
            used.update(c)
        return sorted(used)

    def __repr__(self):
        return f"Triangulation({self.cell_count} cells, dim={self.dim})"


# ---------------------------------------------------------------------------
# edgewise subdivision
# ---------------------------------------------------------------------------


def _edgewise_template(r, n):
    """The r-th edgewise subdivision of an (n-1)-simplex, for any simplex.

    Returns (vertices, cells).  A vertex is a sorted r-multiset
    p_0 <= ... <= p_{r-1} of vertex positions in range(n); its point is the
    sum of those vertices divided by r.  A cell is a chain of n vertices found by a depth-first walk
    from a base: each step k in 0..n-2 is taken once, tried in increasing
    k, and turns the first k+1 of the multiset into k; it is allowed iff
    the multiset holds a k+1, so the result stays sorted.  The bases are
    all sorted r-multisets in decreasing lexicographic order.  In partial
    sums t_k = #{j : p_j <= k} this is the alcove walk: step k is
    t_k += 1 under 0 <= t_0 <= ... <= t_{n-2} <= r, and the base order is
    increasing lexicographic order of the compositions mu_i =
    #{j : p_j = i}.  Vertices are numbered in order of first appearance
    over the cells, so a caller that inserts them in this order fills its
    pool as a chain-by-chain walk would; a cell is a tuple of vertex
    numbers in chain order.  There are C(r+n-1, n-1) vertices and
    r^(n-1) cells.
    """
    number = {}
    cells = []

    def walk(chain, steps):
        if len(chain) == n:
            cells.append(tuple(number.setdefault(v, len(number)) for v in chain))
            return
        last = chain[-1]
        for i, k in enumerate(steps):
            if k + 1 in last:
                j = last.index(k + 1)
                chain.append(last[:j] + (k,) + last[j + 1:])
                walk(chain, steps[:i] + steps[i + 1:])
                chain.pop()

    for base in reversed(list(combinations_with_replacement(range(n), r))):
        walk([base], tuple(range(n - 1)))
    return list(number), cells


def _edgewise_point(verts, multiset, r):
    """sum(verts[i] for i in multiset) / r; ValueError off the lattice.

    For the r-th subdivision of a simplex given as r times a unimodular
    one, every point is a lattice point iff all differences
    verts[i] - verts[0] are divisible by r, since a sum of r vertices is
    r * verts[0] plus such differences.
    """
    coords = tuple(map(sum, zip(*map(verts.__getitem__, multiset))))
    if r > 1:
        if any(x % r for x in coords):
            raise ValueError("simplex is not an r-fold dilation in its lattice")
        coords = tuple(x // r for x in coords)
    return coords


def _subdivide(template, verts, positions, r, keys, points):
    """Place the points of an edgewise subdivision of the simplex on
    verts[positions]; return its cells as tuples of point ids.

    `template` is `_edgewise_template(r', len(positions))`.  A template
    multiset becomes its key, the multiset of the positions it picks, sorted
    since `positions` increase.  A key already in `keys` keeps its id; a new
    one gets the next id and appends its point sum(verts[key]) / r to
    `points` (`_edgewise_point`, ValueError off the lattice).  r is r' for
    a simplex given by its dilated vertices, or 1 for r' times the simplex
    given by its own.  Callers share `keys` and `points` across simplices,
    read heights from the keys, and check the points with `_distinct`.
    """
    multisets, cells = template
    ids = []
    for ms in multisets:
        key = tuple(map(positions.__getitem__, ms))
        k = keys.get(key)
        if k is None:
            k = keys[key] = len(points)
            points.append(_edgewise_point(verts, key, r))
        ids.append(k)
    return [tuple(map(ids.__getitem__, cell)) for cell in cells]


def _distinct(points):
    """`points`, after checking that they are pairwise distinct
    (AssertionError otherwise).

    Every construction keys its edgewise points by multisets of the
    vertices of one simplicial complex: the faces of a simplex (odd d, each
    label class keyed by its own positions, so two classes' keys have
    disjoint supports), the boundary of the simplicial interior polytope,
    or the cone triangulation (`_subdivide`).  Distinct keys must give
    distinct points.  Proof.  A
    key's point is a convex combination, with positive weights, of the
    vertices in the key's support, which span a face; so the point lies in
    the relative interior of that face.  Distinct faces of a triangulation,
    or of a simplicial polytope, have disjoint relative interiors, so keys
    of distinct supports give distinct points.  On one face the vertices
    are affinely independent, so the weights, and with them the key, are
    determined by the point.  A collision is therefore a construction bug.
    """
    if len(set(points)) != len(points):
        raise AssertionError("two edgewise multisets share a point; construction bug")
    return points


def alcove_height(positions, m):
    """Lifting height that induces the edgewise subdivision.

    The point is given by the sorted positions p_j of its multiset over m
    coordinates (`_edgewise_template`), i.e. by the composition mu with
    mu_i = #{j : p_j = i}.  The height is the sum of squares of all proper
    prefix sums t_k = mu_0 + ... + mu_k (k < m - 1) and of all their
    pairwise differences.  The walls of the subdivision lie on integer
    levels of exactly these functionals, so the piecewise-linear
    interpolation folds strictly across every wall.  Computed over a fixed
    (possibly zero-padded) coordinate list, the value is invariant under
    restriction to faces, which makes liftings of glued subdivisions agree
    on intersections.

    Closed form, O(r): with q_j = m - 1 - p_j the height is
    m * sum_j (2j+1) q_j - (sum_j q_j)^2.  Proof: t_k = #{j : p_j <= k},
    so sum_k t_k = sum_j #{k : p_j <= k < m-1} = sum_j q_j, and
    sum_k t_k^2 = sum_{j,j'} min(q_j, q_j') = sum_j (2j+1) q_j since q is
    non-increasing.  Over the m - 1 prefix sums,
    sum_{k<l} (t_l - t_k)^2 = (m-1) sum t^2 - (sum t)^2, and adding
    sum t^2 gives m sum t^2 - (sum t)^2.
    """
    total = weighted = 0
    for j, p in enumerate(positions):
        q = m - 1 - p
        total += q
        weighted += (2 * j + 1) * q
    return m * weighted - total * total


# ---------------------------------------------------------------------------
# the facets of the interior polytope (even d)
# ---------------------------------------------------------------------------


def interior_facets(d):
    """The facets of the interior polytope (even d), each as its labels
    split into (odd labels, even labels), the two dilated-simplex factors
    of its join structure.

    Labels are the 1-based indices 1..d+2 of the vertex formula.  The
    polytope is combinatorially the cyclic polytope C(d, d+2) with its
    vertices in label order, and d is even, so Gale's evenness condition
    decides its facets: a d-set of labels is a facet iff any two omitted
    labels a < b have an even number of kept labels between them.  With
    only a and b omitted, that number is b - a - 1, so the facets are the
    complements of the pairs {a, b} with a + b odd: one odd and one even
    label, each of the (d/2 + 1)^2 such pairs once.  The facets come in
    lexicographic order of their omitted pairs.
    """
    if d < 2 or d % 2:
        raise ValueError("facet joins are defined for even d >= 2")
    return [
        (tuple(l for l in range(1, d + 3, 2) if l not in (a, b)),
         tuple(l for l in range(2, d + 3, 2) if l not in (a, b)))
        for a, b in combinations(range(1, d + 3), 2)
        if (a + b) % 2
    ]


# ---------------------------------------------------------------------------
# the main construction
# ---------------------------------------------------------------------------


def _odd_laplacian_triangulation(d):
    """Triangulation of the reduced polytope for odd d, a simplex: the join
    of its faces on the odd-labelled and on the even-labelled vertices.
    Each face is (d+2) times a unimodular simplex (`_edgewise_point` checks
    both lattice conditions), so each gets its (d+2)-th edgewise
    subdivision into one pool, with the alcove heights of its keys over its
    own vertices; cells are the unions of one cell from each factor."""
    r = d + 2
    target, _ = reduce_full_dim(d)
    points, heights, parts = [], [], []
    for verts in (target.points[0::2], target.points[1::2]):
        n = len(verts)
        keys = {}
        parts.append(_subdivide(_edgewise_template(r, n), verts, range(n), r, keys, points))
        heights += [alcove_height(key, n) for key in keys]
    cells = [c1 + c2 for c1 in parts[0] for c2 in parts[1]]
    return Triangulation(_distinct(points), cells, target, heights=heights)


def _interior_boundary_triangulation(d):
    """Triangulation of the boundary of the interior polytope (even d).

    Each facet is triangulated as the join of edgewise subdivisions of its
    two dilated-simplex factors, d/2 labels each, into one pool.  Keys are
    multisets of global labels, so a point that two facets share is placed
    once and the facet triangulations agree on intersections.  Returns
    (pool points, their keys, cells).
    """
    r = (d + 2) // 2
    cs = interior_polytope_vertices(d)
    template = _edgewise_template(r, d // 2)
    keys, points, cells = {}, [], []
    for facet in interior_facets(d):
        try:
            odd, even = (_subdivide(template, cs, [l - 1 for l in labels], r, keys, points)
                         for labels in facet)
        except ValueError as exc:
            raise AssertionError(f"factor {exc}") from None
        cells.extend(tuple(sorted(ca + cb)) for ca in odd for cb in even)
    return _distinct(points), keys, cells


def _ridge_pass(cells):
    """One pass over the ridges (a cell minus one vertex, in the cell's
    order).  Returns (ridges, folds, excess): `ridges` maps a ridge held by
    one cell to (cell, dropped position); a second cell pairs it into the
    fold (ca, da, cb, db), appended to `folds` and kept as its value; a
    third puts (fold, ridge) in `excess`, once."""
    ridges = {}
    folds = []
    excess = []
    for cb, cell in enumerate(cells):
        last = len(cell) - 1
        for k, ridge in enumerate(combinations(cell, last)):
            got = ridges.get(ridge)
            if got is None:
                ridges[ridge] = (cb, last - k)
            elif len(got) == 2:
                got += (cb, last - k)
                folds.append(got)
                ridges[ridge] = got
            elif got:
                excess.append((got, ridge))
                ridges[ridge] = ()
    return ridges, folds, excess


class _RidgeWalk:
    """One walk across the shared ridges of `cells` over `pool`: the
    per-cell facts that `verify_triangulation` and `is_regular` read.  It
    reads nothing but `pool` and `cells`.

    One `_ridge_pass` pairs the ridges into folds (ca, da, cb, db), kept as
    the four arrays `ca`, `da`, `cb`, `db` in the order the ridges pair;
    `excess` holds the index of every fold whose ridge lies in a third
    cell, and `boundary_cell`, `boundary_pos` the cell and dropped position
    of every ridge in one cell, in the order the ridges were first met.

    A breadth-first walk across the folds carries the inverse M_a of each
    cell's homogeneous matrix E_a = [v_i; 1] (vertices as columns, in cell
    order).  A cell that no earlier walk reached is a root: one `solve_int`
    inverts it, and `roots` holds (root, M_root), M_root None when the root
    is degenerate.  A step from a to b swaps a's vertex at position `here`
    for w = cells[b][there]: with lam = M_a [w; 1] and t = lam[here], M_b
    has the row piv = M_a[here] / t for w and M_a[i] - lam_i * piv for the
    others, in b's order, and det E_b = (-1)^(here - there) * t * det E_a
    (proof in `verify_triangulation`).  `dets` holds det E of every cell:
    0 for a degenerate cell, which is not expanded, and for a cell of the
    wrong size, which is never entered.  The steps are kept in walk order
    as the arrays `step_b`, `step_a`, `step_w`, the fold index `step_k`,
    and the rows piv and the vectors lam, one after another in `pivots`
    and `lams`, so a height vector's covectors (`fold_values`) and a
    point's barycentric coordinates (`_half_open_h`) follow the tree.  The
    steps out of one cell are consecutive, since the walk is breadth-first.
    `chords` lists the folds that no step crosses.  `pivots`, `lams` and
    `dets` are the narrowest integer arrays that hold them (`_compact`),
    lists only where none can.  Inverses are dropped once their cell is
    expanded, and no ridge index is kept.
    """

    def __init__(self, pool, cells):
        self.pool = pool
        self.cells = cells
        # vertices of a full-dimensional cell
        self.size = len(pool[0]) + 1 if pool else 1
        # the ridge index and the fold tuples are the memory peak of the
        # walk; each is dropped once its arrays are filled
        ridges, folds, excess = _ridge_pass(cells)
        one = [got for got in ridges.values() if len(got) == 2]
        del ridges
        self.boundary_cell = array("I", map(itemgetter(0), one))
        self.boundary_pos = array("B", map(itemgetter(1), one))
        del one
        crowded = {fold for fold, _ in excess}
        self.excess = (
            [k for k, fold in enumerate(folds) if fold in crowded] if crowded else []
        )
        self.ca, self.da, self.cb, self.db = (
            array(code, map(itemgetter(i), folds)) for i, code in enumerate("IBIB")
        )
        del folds
        self._traverse()
        if self.excess:
            self.fault = "three cells share a ridge; not a triangulation"
        elif 0 in self.dets:
            self.fault = "degenerate cell in fold computation"
        else:
            self.fault = None

    def _traverse(self):
        pool, cells = self.pool, self.cells
        ca, da, cb, db = self.ca, self.da, self.cb, self.db
        incident = [[] for _ in cells]
        for k, (a, b) in enumerate(zip(ca, cb)):
            incident[a].append(k)
            incident[b].append(k)
        n = self.size
        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        dets = self.dets = [0] * len(cells)
        roots = self.roots = []
        step_b, step_a, step_w, step_k = (
            self.step_b, self.step_a, self.step_w, self.step_k) = (
            array("I"), array("I"), array("I"), array("I"))
        pivots = []
        lams = []
        seen = bytearray(len(cells))
        frontier = {}
        for root, cell in enumerate(cells):
            if seen[root]:
                continue
            seen[root] = 1
            if len(cell) != n:
                continue
            rows = [*zip(*(pool[i] for i in cell)), [1] * n]
            det, cols = solve_int(rows, unit)
            dets[root] = det
            if not det:
                roots.append((root, None))
                continue
            if det in (1, -1):
                m = [[det * col[i] for col in cols] for i in range(n)]
            else:
                m = [[Fraction(col[i], det) for col in cols] for i in range(n)]
            roots.append((root, m))
            frontier[root] = m
            queue = deque([root])
            while queue:
                a = queue.popleft()
                m = frontier.pop(a)
                for k in incident[a]:
                    if ca[k] == a:
                        b, here, there = cb[k], da[k], db[k]
                    else:
                        b, here, there = ca[k], db[k], da[k]
                    if seen[b]:
                        continue
                    seen[b] = 1
                    w = cells[b][there]
                    v = pool[w]
                    lam = [sum(map(mul, row, v)) + row[-1] for row in m]
                    t = lam[here]
                    det = t * dets[a]
                    dets[b] = int(-det if (here - there) % 2 else det)
                    if not t:
                        continue
                    if t == 1:
                        piv = m[here]
                    elif t == -1:
                        piv = [-x for x in m[here]]
                    else:
                        piv = [Fraction(x, t) for x in m[here]]
                    nxt = [
                        [x - l * y for x, y in zip(row, piv)] if l else row
                        for i, (row, l) in enumerate(zip(m, lam))
                        if i != here
                    ]
                    nxt.insert(there, piv)
                    step_b.append(b)
                    step_a.append(a)
                    step_w.append(w)
                    step_k.append(k)
                    pivots.extend(piv)
                    lams.extend(lam)
                    frontier[b] = nxt
                    queue.append(b)
        self.pivots = _compact(pivots)
        self.lams = _compact(lams)
        self.dets = _compact(dets)
        chord = bytearray(b"\1") * len(ca)
        for k in step_k:
            chord[k] = 0
        self.chords = array("I", compress(range(len(ca)), chord))

    def folds(self):
        """The folds as tuples (ca, da, cb, db), in pairing order."""
        return list(zip(self.ca, self.da, self.cb, self.db))

    def require_triangulation(self):
        """Raise ValueError where three cells share a ridge or a cell is
        degenerate: fold values are then undefined."""
        if self.fault:
            raise ValueError(self.fault)

    def fold_values(self, h):
        """The fold values of the height vector h, aligned with the folds.

        The value at (ca, da, cb, db) is the height of w = cells[cb][db]
        above the lift of h over ca: h[w] - c_ca . [w; 1], where the
        covector c_a = sum(h[a_i] * M_a[i]) interpolates h on a.  Each root
        forms its covector from its inverse.  Along a step a -> b, piv (the
        row of M_b for w) is the affine function that is 1 at w and 0 on
        the shared ridge, where c_a already interpolates h, so
        c_b = c_a + phi * piv with phi = h[w] - c_a . [w; 1].

        A step's own fold needs no second evaluation.  When the step runs
        ca -> cb, its value is phi by definition.  When it runs cb -> ca, w
        is cells[ca][da], and the fold's opposite vertex u is a's vertex at
        `here`, where c_a interpolates h; since M_a[here] . [u; 1] = 1,
        piv . [u; 1] = 1/t with t = lam[here], so the value
        h[u] - c_b . [u; 1] is -phi/t.  Only the folds off the tree
        (`chords`) take a dot product.  A height vector thus costs O(d) per
        cell and per fold.
        """
        self.require_triangulation()
        pool, cells, n = self.pool, self.cells, self.size
        ca, db, lams = self.ca, self.db, self.lams
        cov = [None] * len(cells)
        for root, m in self.roots:
            cov[root] = [
                sum(h[i] * x for i, x in zip(cells[root], col)) for col in zip(*m)
            ]
        values = [None] * len(ca)
        rows = zip(*[iter(self.pivots)] * n)
        steps = zip(self.step_b, self.step_a, self.step_w, self.step_k, rows)
        for i, (b, a, w, k, piv) in enumerate(steps):
            c = cov[a]
            phi = h[w] - sum(map(mul, c, pool[w])) - c[-1]
            cov[b] = [x + phi * y for x, y in zip(c, piv)] if phi else c
            if ca[k] == a:
                values[k] = phi
            else:
                t = lams[i * n + db[k]]
                values[k] = -phi * t if t in (1, -1) else -phi / Fraction(t)
        cb = self.cb
        for k in self.chords:
            c = cov[ca[k]]
            w = cells[cb[k]][db[k]]
            values[k] = h[w] - sum(map(mul, c, pool[w])) - c[-1]
        return values


def _compact(values):
    """`values` as the narrowest signed integer array that holds them, or
    unchanged when one is a Fraction or too wide for any."""
    for code in "bhiq":
        try:
            return array(code, values)
        except OverflowError:
            continue
        except TypeError:
            break
    return values


def _walk_of(t):
    """The ridge walk of t's cells, built on first use and kept on t."""
    if t._walk is None:
        object.__setattr__(t, "_walk", _RidgeWalk(t.vertex_pool, t.cells))
    return t._walk


def is_regular(t, heights=None):
    """Regularity test with an exact certificate.

    If heights are supplied (or attached to the triangulation), all
    interior folds of the induced lift are checked for strict convexity;
    strict folds on a valid triangulation certify that the lower envelope
    of the lifted vertices projects exactly onto it (the local-folding
    criterion).  Without a usable witness the strict system is solved as
    an exact LP: maximize s subject to s <= fold for every fold and
    s <= 1, over heights h >= 0 of the used vertices and s >= 0.  The LP is
    refused above `LP_CELL_LIMIT` cells.  Fold values come from the ridge
    walk over the cells (`_walk_of`, shared with `verify_triangulation`),
    never from the construction: one covector pass per height vector.
    The LP's coefficients are those of the unit heights of the used
    vertices, and the heights it finds are checked again on the walk
    before they are returned (AssertionError if a fold is not positive).

    The sign constraints lose no witness, so the optimum is 1 exactly when
    t is regular and 0 otherwise.  A fold value is the height of a vertex
    above the affine interpolation of h over a cell, so adding a constant
    to every height leaves it unchanged; and folds are linear in h.  If
    some h makes every fold positive, scaling it makes every fold at
    least 1 and shifting it makes it >= 0, so s = 1 is feasible.  If
    none does, every h has a fold <= 0, which bounds s by 0; and s = 0
    with zero heights is feasible.  The right-hand sides are 0 and 1, as
    `lp.solve_lp` requires, and s <= 1 bounds the objective.

    Heights must be one int or Fraction per pool point (ValueError).  A
    record in `t.checks["regular"]` is written only on success; t never
    changes, so it stays true of t whatever a later call is given.

    Returns (regular, heights_or_none).
    """
    use = heights if heights is not None else t.heights
    if use is not None:
        if len(use) != len(t.vertex_pool) or not all(isinstance(h, (int, Fraction)) for h in use):
            raise ValueError("heights must be one int or Fraction per pool point")
        walk = _walk_of(t)
        if all(v > 0 for v in walk.fold_values(use)):
            t.checks["regular"] = {"witness": "heights", "folds": len(walk.ca),
                                   "walk_roots": len(walk.roots)}
            return True, list(use)
        if heights is not None:
            return False, None
    if t.cell_count > LP_CELL_LIMIT:
        raise BudgetError(
            f"regularity LP over {t.cell_count} cells exceeds the limit "
            f"{LP_CELL_LIMIT} and no valid heights witness is attached"
        )
    walk = _walk_of(t)
    used = t.used_vertex_indices()
    units = [[int(i == v) for i in range(len(t.vertex_pool))] for v in used]
    values = [walk.fold_values(u) for u in units]
    folds = walk.folds()
    # fold >= s  <=>  s - fold <= 0, in first-met ridge order; then s <= 1
    a_ub = [[-x for x in row] + [1] for _, row in sorted(zip(folds, zip(*values)))]
    a_ub.append([0] * len(used) + [1])
    b_ub = [0] * len(folds) + [1]
    objective = [0] * len(used) + [1]
    value, lifted = lp.solve_lp(objective, a_ub, b_ub)
    if value == 0:
        return False, None
    found = [Fraction(0)] * len(t.vertex_pool)
    for v, h in zip(used, lifted):
        found[v] = h
    if not all(v > 0 for v in walk.fold_values(found)):
        raise AssertionError("LP heights fail a fold of the walk")
    t.checks["regular"] = {"witness": "lp", "folds": len(folds),
                           "walk_roots": len(walk.roots)}
    return True, found


def _scaled_heights(t, primary, secondary):
    """N * primary + secondary for the smallest positive integer N that
    makes every fold of t's lift strictly convex.

    The fold values of both vectors are read on t's ridge walk
    (`_walk_of`), which stays on t.  Every fold must be convex under
    `primary` alone, and strictly convex under `secondary` where `primary`
    is flat.
    """
    walk = _walk_of(t)
    need = 1
    for p, s in zip(walk.fold_values(primary), walk.fold_values(secondary)):
        if p < 0:
            raise AssertionError("base fold is non-convex; construction bug")
        if p == 0:
            if s <= 0:
                raise AssertionError("flat fold with non-convex refinement")
        elif s <= 0:
            # need N > -s / p
            need = max(need, int((-s) // p + 1))
    return [need * a + b for a, b in zip(primary, secondary)]


def _interior_cone(d):
    """The boundary triangulation of the interior polytope (even d) coned
    over its interior point, with heights, as a triangulation of the
    interior polytope.

    The pool, apex included, is numbered in lexicographic point order, so
    every cell, sorted by id, lists its vertices in point order.  The
    heights are a large multiple of the boundary indicator (strict
    convexity across facets) plus the alcove heights of the boundary
    points' label multisets (strictness inside facets; each point has one,
    by `_distinct`), scaled on the first read of `heights`
    (`_scaled_heights`) on the cone's ridge walk, which then stays on the
    triangulation; the build walks nothing.
    """
    points, keys, boundary_cells = _interior_boundary_triangulation(d)
    alcove = [alcove_height(key, d + 2) for key in keys]
    apex = len(points)
    points.append((1,) * d)
    alcove.append(0)
    order = sorted(range(len(points)), key=points.__getitem__)
    renumber = [0] * len(order)
    for k, i in enumerate(order):
        renumber[i] = k
    # the triangulation sorts each cell by id
    cells = [(*map(renumber.__getitem__, c), renumber[apex]) for c in boundary_cells]
    carrier = LatticePolytope(interior_polytope_vertices(d))
    heights = partial(_scaled_heights, primary=[int(i != apex) for i in order],
                      secondary=[alcove[i] for i in order])
    return Triangulation([points[i] for i in order], cells, carrier, heights=heights)


def _check_cells(n_cells, budget):
    """BudgetError before a build of `n_cells` cells over the cell budget."""
    limit = cell_budget(budget)
    if n_cells > limit:
        raise BudgetError(f"triangulation needs {n_cells} cells, budget is {limit}")


def laplacian_triangulation(d, budget=None):
    """Regular unimodular triangulation of the reduced Laplacian polytope.

    Odd d: the polytope is a simplex; its faces on the odd- and on the
    even-labelled points of `reduce_full_dim(d)` are dilated simplices,
    each subdivided directly, and the result is their join.
    Even d: every facet of the interior polytope is triangulated as a join
    of edgewise subdivisions (consistent on intersections), coned over the
    interior point, and the result refined by a second edgewise
    subdivision; the refined copy is translated onto the polytope.  Every
    edgewise point is placed by `_subdivide`, keyed by its vertex
    multiset, and each construction checks its points distinct
    (`_distinct`).

    The number of cells is (d+2)^d; the materialization budget is checked
    up front.  The even-d build walks no ridges: each refined point keeps
    its key, the pair of cone ids that placed it, and the refinement keeps
    the cone until the first read of `heights` (`_refined_heights`).
    Construction assertions about the heights fire then.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_cells((d + 2) ** d, budget)
    if d % 2 == 1:
        return _odd_laplacian_triangulation(d)

    cone = _interior_cone(d)
    # dilate by 2: the second edgewise subdivision of every cone cell, its
    # vertices in the cone's id order, which is point order; 2 * cell has
    # the vertices 2 * pool[i], so its points are plain sums (r = 1)
    template = _edgewise_template(2, d + 1)
    keys, points, cells = {}, [], []
    for cell in cone.cells:
        cells.extend(tuple(sorted(c))
                     for c in _subdivide(template, cone.vertex_pool, cell, 1, keys, points))
    target, _ = reduce_full_dim(d)
    shifted = [tuple(x - 1 for x in p) for p in _distinct(points)]
    heights = partial(_refined_heights, cone=cone, sources=list(keys))
    return Triangulation(shifted, cells, target, heights=heights)


def _refined_heights(t, cone, sources):
    """The even-d refinement's integer lifting heights, on the first read.

    The refinement is regular (De Loera, Rambau and Santos,
    *Triangulations*, regular refinements): its primary heights sum the
    cone's heights over each point's key, the pair of cone ids that placed
    it, its secondary heights are the alcove heights of that key, and
    `_scaled_heights` scales them on the refinement's own walk.  Each point
    has one key (`_distinct`), so the heights are well defined.  Reading
    the cone's heights walks the cone once.
    """
    omega = cone.heights
    m = len(omega)
    primary = [omega[a] + omega[b] for a, b in sources]
    secondary = [alcove_height(key, m) for key in sources]
    return _scaled_heights(t, primary, secondary)


def interior_polytope_triangulation(d, budget=None):
    """Cone triangulation of the interior polytope (even d), with heights
    (`_interior_cone`).  Its build walks nothing; the first read of its
    heights, or its first check, builds the ridge walk that the heights,
    `verify_triangulation` and `is_regular` then share."""
    if d < 2 or d % 2:
        raise ValueError("defined for even d >= 2")
    _check_cells(((d + 2) // 2) ** d, budget)
    return _interior_cone(d)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_triangulation(t):
    """Certify that the cells triangulate the carrier P, in O(cells * d).

    The checks are: every cell is a full-dimensional simplex
    (`affinely_independent`), every used vertex lies in P (`contained`),
    the normalized volumes sum to that of P (`volume_ok`), and one pass over
    the ridges, the codimension-1 faces of the cells (`disjoint_ok`):

    (a) every ridge lies in at most two cells;
    (b) a ridge in one cell lies on a facet of P: some facet inequality of
        P is tight on all of its vertices;
    (c) the two cells of a shared ridge lie strictly on opposite sides of
        it.

    Theorem (pseudo-manifold characterisation; De Loera, Rambau and
    Santos, *Triangulations*, Springer 2010, section 4.5).  Full-dimensional
    simplices with vertices in a convex polytope P form a triangulation of
    P (they cover P, their interiors are disjoint and any two meet in a
    common face) if and only if (a), (b), (c) hold and their volumes sum to
    vol(P).

    Proof.  Necessity is immediate.  For sufficiency let N(x) count the
    cells containing x, for x in int P off every ridge.  A segment between
    two such points, in general position, meets ridges only in their
    relative interiors.  There it leaves one cell of each shared ridge and
    enters the other, by (c); no one-cell ridge meets int P, since by (b)
    and containment it lies in a facet of P.  So N is constant on int P,
    and integrating gives sum vol(cell) = N * vol(P): the volume identity
    forces N = 1, and the interiors are disjoint.  Next let x lie in cells
    A and B, and let F be the face of A with x in its relative interior.
    Turning about F from A, each ridge through F leads by (c) to a second
    cell that again contains F, or by (b) lies on the boundary of P; so
    the cells containing F fill a neighbourhood of x in P.  B has interior
    points arbitrarily close to x, hence, as N = 1, is one of these cells,
    and F is a face of B.  (A vertex in the relative interior of another
    cell's face would leave a one-cell ridge inside int P, or a point
    covered twice.)  So A and B meet in a union of common faces, and since
    A and B are convex, in a single common face.

    Sides and volumes come from one signed determinant per cell, read from
    the ridge walk (`_walk_of`), which pairs the ridges in one pass over
    `t.cells` (`_ridge_pass`) and is shared with `is_regular`; no number
    from the construction is reused.  The walk's determinant is det E for
    the homogeneous matrix E = [v_i; 1], the cell's vertices as columns in
    sorted order.  Subtracting the first column from the others and
    expanding along the row of ones gives det E = (-1)^d det[v_i - v_0], so
    |det E| is the normalized volume, and the fixed factor (-1)^d cancels
    in the product of two cells' signs.  The orientation of
    (ridge..., dropped vertex) is the cell's sign times
    (-1)^(d - dropped position).

    Determinant step.  A root cell takes det E from one fraction-free solve,
    which also inverts E.  Let cell b share the ridge of cell a opposite
    a's position `here`, let w be b's vertex off that ridge, at b's
    position `there`, and lam = E_a^-1 [w; 1].  E_a times the identity with
    column `here` replaced by lam is E_a with column `here` replaced by
    [w; 1]; that factor has determinant lam[here] = t (the matrix
    determinant lemma).  Moving the new column from position `here` to
    b's sorted position `there` is a cycle of |here - there| + 1 columns,
    of sign (-1)^(here - there), since both cells list the ridge in the
    same sorted order.  So det E_b = (-1)^(here - there) * t * det E_a,
    exactly, and t = 0 iff b is degenerate; the walk carries E^-1 by the
    matching rank-one update (`_RidgeWalk`).  In dimension 0 there are no
    ridges and the volume identity (one cell) is the whole certificate.

    Returns a report dict; `ok` is the conjunction of the checks.  Failures
    are collected from the whole pass as tagged tuples: ("cell_size", c),
    ("degenerate", c), ("outside_carrier", v), ("overlap", a, b),
    ("ridge_excess", ridge) and ("open_boundary", ridge), the last three in
    the order their ridges first occur.
    """
    report = {
        "cells": t.cell_count,
        "affinely_independent": True,
        "unimodular": True,
        "contained": True,
        "volume_sum": 0,
        "carrier_nvol": None,
        "volume_ok": False,
        "disjointness": "full",
        "disjoint_ok": True,
        "failures": [],
    }
    failures = report["failures"]
    dim = len(t.vertex_pool[0]) if t.vertex_pool else 0
    walk = _walk_of(t)
    vol = 0
    for ci, cell in enumerate(t.cells):
        if len(cell) != dim + 1:
            report["affinely_independent"] = False
            failures.append(("cell_size", ci))
            continue
        det = abs(walk.dets[ci])
        if det == 0:
            report["affinely_independent"] = False
            failures.append(("degenerate", ci))
        if det != 1:
            report["unimodular"] = False
        vol += det
    report["volume_sum"] = vol

    # bit k of tight[v] is set when facet k of the carrier is tight at v
    tight = {}
    carrier = t.carrier
    if carrier is not None:
        if dim == 0:
            for vi in t.used_vertex_indices():
                if t.vertex_pool[vi] != carrier.points[0]:
                    report["contained"] = False
        else:
            halfspaces = carrier.facets()
            for vi in t.used_vertex_indices():
                slack = [h.offset - h.value(t.vertex_pool[vi]) for h in halfspaces]
                if min(slack) < 0:
                    report["contained"] = False
                    failures.append(("outside_carrier", vi))
                tight[vi] = sum(1 << k for k, s in enumerate(slack) if s == 0)
        report["carrier_nvol"] = carrier.normalized_volume()
        report["volume_ok"] = vol == report["carrier_nvol"]

    if dim > 0:
        cells, dets = t.cells, walk.dets
        # keyed by where each ridge was first met, the order of the report
        found = []
        for k in walk.excess:
            a, ka = walk.ca[k], walk.da[k]
            found.append(((a, ka), ("ridge_excess", cells[a][:ka] + cells[a][ka + 1:])))
        for c, pos in zip(walk.boundary_cell, walk.boundary_pos):
            ridge = cells[c][:pos] + cells[c][pos + 1:]
            on_facet = -1
            for v in ridge:
                on_facet &= tight.get(v, 0)
            if not on_facet:
                found.append(((c, pos), ("open_boundary", ridge)))
        crowded = set(walk.excess)
        for k, (a, ka, b, kb) in enumerate(zip(walk.ca, walk.da, walk.cb, walk.db)):
            # orientations sign*(-1)^(dim-k) agree: same side
            if dets[a] * dets[b] * (-1) ** (ka + kb) > 0 and k not in crowded:
                found.append(((a, ka), ("overlap", a, b)))
        failures.extend(f for _, f in sorted(found))
        report["disjoint_ok"] = not found
    report["ok"] = (
        report["affinely_independent"]
        and report["contained"]
        and report["volume_ok"]
        and report["disjoint_ok"]
    )
    t.checks["verify"] = {
        **{k: v for k, v in report.items() if k != "failures"},
        "walk_roots": len(walk.roots),
    }
    return report


# ---------------------------------------------------------------------------
# h-vectors, shellings
# ---------------------------------------------------------------------------


def h_vector_of(t):
    """h-vector of the triangulation as a simplicial complex (length
    dim + 2), by half-open decomposition on its ridge walk.

    It runs only on a triangulation that `verify_triangulation` accepts:
    it reads the record in `t.checks["verify"]`, verifies when there is
    none, and raises ValueError when the check fails.  It then counts, for
    one point q inside the first root cell of the walk, how many
    barycentric coordinates of q are negative in each cell
    (`_half_open_h`).

    Theorem (Betke and McMullen 1985; Koeppe and Verdoolaege, Electron. J.
    Combin. 15 (2008) R16).  Let T triangulate a convex polytope P, and
    let q in int P have no barycentric coordinate 0 in any cell.  For a
    cell c let R_c be the set of its vertices v with lambda_v(q) < 0, the
    vertices opposite the facets of c that separate q from c.  Then every
    face of T, the empty face included, lies in exactly one interval
    [R_c, c] = {F : R_c <= F <= c}, so h_i = #{c : |R_c| = i}.
    Unimodularity is not needed.

    Proof.  The empty face lies in [R_c, c] iff R_c is empty, i.e. iff q
    lies in int c, which holds for exactly one cell.  Let F be a nonempty
    face and x a point of its relative interior, and put
    x_e = x + e (q - x).  For a cell c containing F, the coordinates
    of x_e are lambda(x) + e (lambda(q) - lambda(x)); those of x are
    positive on F and 0 off it, so x_e lies in int c for all small e > 0
    iff lambda_v(q) > 0 for every v in c - F, i.e. iff R_c <= F.  At most
    one cell has this property, since the interiors of cells are disjoint.
    At least one has it: x_e lies in P for e in [0, 1], as P is convex, so
    finitely many cells cover the segment, and one of them, c, contains
    x_e for all e in some (0, e_0); then x lies in c, F is a face of c
    because T is a simplicial complex and x lies in the relative interior
    of F, and lambda_v(q) = lambda_v(x_e) / e >= 0 for v in c - F, so
    > 0 since no coordinate is 0.  Hence the faces split into the
    intervals.  The interval [R, c] with |R| = r and |c| = d + 1 holds
    C(d+1-r, j) faces with r + j vertices, and
    sum_j C(d+1-r, j) (t-1)^(d+1-r-j) = t^(d+1-r), so its share of
    sum_F (t-1)^(d+1-|F|) = sum_i h_i t^(d+1-i) is t^(d+1-r): every
    cell adds 1 to h_|R_c|.

    q has the coordinates w_i / sum(w) in the root cell, with
    w_i = B^(d+1) + B^i and B = 2^10: the centroid moved by a small fixed
    offset.  A hyperplane a.x = b holds q iff sum_i w_i c_i = 0 with
    c_i = a.v_i - b at the root's vertices v_i.  When every |c_i| <= 511,
    the term B^(d+1) sum c_i exceeds the rest unless sum c_i = 0, and then
    sum B^i c_i = 0 forces every c_i = 0, which no hyperplane does to a
    full-dimensional simplex.  Any other zero coordinate is found on the
    walk, and it raises ValueError.
    """
    proof = t.checks.get("verify")
    if proof is None:
        verify_triangulation(t)
        proof = t.checks["verify"]
    if not proof["ok"]:
        raise ValueError("h_vector_of needs a triangulation that "
                         "verify_triangulation accepts")
    n = t.dim + 1
    return _half_open_h(_walk_of(t), [(1 << 10 * n) + (1 << 10 * i) for i in range(n)])


def _half_open_h(walk, weights):
    """h_i = #{cells in which i barycentric coordinates of q are negative},
    for the point q with the positive coordinates weights / sum(weights)
    in the walk's first root cell (proof in `h_vector_of`).

    The walk carries y = D * lambda(q), D = sum(weights), along its steps
    in O(d) each: a step from a to b with lam = M_a [w; 1] and t =
    lam[here] gives y_b[there] = s = y_a[here] / t, and y_a[i] - lam_i * s
    for every other position i of a, in b's order, as the rows of M_b
    (`_RidgeWalk`).  A root takes y from its inverse.  Integers stay
    integers on unimodular steps.  Raises ValueError when a coordinate is
    0: q lies on the hyperplane of a ridge, and the count is not proved.
    """
    pool, cells, n = walk.pool, walk.cells, walk.size
    ca, da, db = walk.ca, walk.da, walk.db
    root = [pool[i] for i in cells[walk.roots[0][0]]]
    q = [sum(map(mul, weights, col)) for col in zip(*root)] + [sum(weights)]
    h = [0] * (n + 1)
    zero = [0] * n
    # y of a cell that some step leaves, until its steps are taken
    expands = bytearray(len(cells))
    for a in walk.step_a:
        expands[a] = 1
    frontier = {}

    def count(c, y):
        if 0 in y:
            raise ValueError("q lies on the hyperplane of a ridge")
        h[sum(map(lt, y, zero))] += 1
        if expands[c]:
            frontier[c] = y

    for root, m in walk.roots:
        count(root, [sum(map(mul, row, q)) for row in m])
    current = None
    rows = zip(*[iter(walk.lams)] * n)
    for b, a, k, lam in zip(walk.step_b, walk.step_a, walk.step_k, rows):
        if a != current:
            current, y = a, frontier.pop(a)
        here, there = (da[k], db[k]) if ca[k] == a else (db[k], da[k])
        t = lam[here]
        s = y[here] * t if t in (1, -1) else Fraction(y[here]) / t
        z = [x - l * s for x, l in zip(y, lam)]
        del z[here]
        z.insert(there, s)
        count(b, z)
    return tuple(h)


def verify_shelling(p, order):
    """Is `order` (facet vertex sets) a shelling of the simplicial polytope?

    Each facet must meet the union of its predecessors in a nonempty union
    of its own ridges.
    """
    facets = [frozenset(s) for s in p.facet_vertex_sets()]
    seq = [frozenset(s) for s in order]
    if sorted(facets, key=sorted) != sorted(seq, key=sorted):
        raise ValueError("order is not a permutation of the facets")
    d = p.dim()
    for k in range(1, len(seq)):
        current = seq[k]
        ridges = [
            current & prev for prev in seq[:k] if len(current & prev) == d - 1
        ]
        if not ridges:
            return False
        for prev in seq[:k]:
            inter = current & prev
            if not any(inter <= ridge for ridge in ridges):
                return False
    return True


def standard_shelling_order(d):
    """The facets in `interior_facets` order (omitted label pairs
    lexicographic: F, E_2..E_d, O_1..O_{d-1}, then the pair facets), as
    vertex-index sets of the reduced polytope."""
    return [frozenset(l - 1 for l in odd + even) for odd, even in interior_facets(d)]
