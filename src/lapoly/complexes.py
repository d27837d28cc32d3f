"""Finite simplicial complexes with an explicit vertex ordering.

A complex stores its vertices as an ordered sequence of distinct labels and
its faces, per dimension, as strictly increasing tuples of vertex
*positions*.  The ordering is part of the complex: the same facets over
differently ordered vertices give different position tuples, and so
different boundary matrices and everything built on them.
"""

from __future__ import annotations

from itertools import combinations


class SimplicialComplex:
    __slots__ = ("vertices", "faces_by_dim")

    def __init__(self, vertices, faces_by_dim):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate label in ordering")
        cleaned = []
        for i, faces in enumerate(faces_by_dim):
            level = sorted(set(map(tuple, faces)))
            for f in level:
                if len(f) != i + 1:
                    raise ValueError(f"face {f} has wrong cardinality for dim {i}")
                if list(f) != sorted(set(f)):
                    raise ValueError(f"face {f} is not strictly increasing")
                if f and (f[0] < 0 or f[-1] >= len(self.vertices)):
                    raise ValueError(f"face {f} uses unknown vertex position")
            cleaned.append(tuple(level))
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self.faces_by_dim = tuple(cleaned)
        self._check_closed()

    def _check_closed(self):
        for i in range(1, len(self.faces_by_dim)):
            lower = set(self.faces_by_dim[i - 1])
            for f in self.faces_by_dim[i]:
                for sub in combinations(f, i):
                    if sub not in lower:
                        raise ValueError(
                            f"not closed under inclusion: {sub} missing under {f}"
                        )

    @property
    def dim(self):
        return len(self.faces_by_dim) - 1

    def faces(self, i):
        if 0 <= i <= self.dim:
            return self.faces_by_dim[i]
        return ()

    def __repr__(self):
        f = tuple(len(level) for level in self.faces_by_dim)
        return f"SimplicialComplex(dim={self.dim}, f={f}, vertices={self.vertices})"


def from_facets(facets, ordering):
    """Inclusion-closure of the given facets, positions taken from `ordering`."""
    ordering = tuple(ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError("duplicate label in ordering")
    if not facets:
        raise ValueError("facets must be nonempty")
    pos = {label: i for i, label in enumerate(ordering)}
    levels = {}
    for facet in facets:
        try:
            positions = sorted(pos[v] for v in facet)
        except KeyError as exc:
            raise ValueError(f"unknown label {exc.args[0]!r} in facet") from None
        if len(set(positions)) != len(positions):
            raise ValueError(f"facet {facet} has repeated labels")
        for k in range(1, len(positions) + 1):
            levels.setdefault(k - 1, set()).update(combinations(positions, k))
    top = max(levels)
    return SimplicialComplex(
        ordering, [levels.get(i, set()) for i in range(top + 1)]
    )


def boundary_of_simplex(d_plus_1):
    """Boundary complex of the (d+1)-simplex: all proper subsets of [d+2]."""
    if d_plus_1 < 1:
        raise ValueError("need d+1 >= 1")
    n = d_plus_1 + 1
    faces = [combinations(range(n), k + 1) for k in range(n - 1)]
    return SimplicialComplex(range(1, n + 1), faces)


def read_complex_file(path):
    """Parse the complex file format used by the CLI.

    UTF-8 text; `#` starts a comment; the first non-comment line must be
    `order: v1 v2 ... vn`; every following non-empty line is one facet as
    space-separated labels.  Labels are integers.
    """
    ordering = None
    facets = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ordering is None:
                if not line.startswith("order:"):
                    raise ValueError("first non-comment line must be 'order: ...'")
                ordering = [int(tok) for tok in line[len("order:") :].split()]
                continue
            facets.append([int(tok) for tok in line.split()])
    if ordering is None:
        raise ValueError("missing 'order:' line")
    if not facets:
        raise ValueError("no facets given")
    return from_facets(facets, ordering)
