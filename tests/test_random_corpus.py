"""Randomized fixture corpus: small pure complexes exercised end to end.

Seeded generation keeps runs deterministic; the invariants here are the
structural facts every Laplacian polytope must satisfy regardless of the
underlying complex.
"""

import hashlib
import json
import random
from itertools import combinations

import pytest

from lapoly import lp
from lapoly.cli import EXIT_OK, main
from lapoly.complexes import from_facets
from lapoly.laplacian import laplacian_matrix, laplacian_polytope
from oracles import boundary_matrix, dense_laplacian, f_vector, homology_dimension, rank


def random_pure_complex(rng, n_vertices, facet_dim, n_facets):
    candidates = list(combinations(range(1, n_vertices + 1), facet_dim + 1))
    rng.shuffle(candidates)
    facets = candidates[:n_facets]
    if not facets:
        return None
    ordering = list(range(1, n_vertices + 1))
    rng.shuffle(ordering)
    return from_facets([set(f) for f in facets], ordering)


def corpus():
    rng = random.Random(424242)
    out = []
    for _ in range(25):
        n = rng.randint(3, 6)
        k = rng.randint(1, min(3, n - 1))
        n_facets = rng.randint(1, 5)
        c = random_pure_complex(rng, n, k, n_facets)
        if c is not None:
            out.append(c)
    return out


CORPUS = corpus()


@pytest.mark.parametrize("c", CORPUS, ids=lambda c: f"d{c.dim}f{len(c.faces(c.dim))}")
def test_chain_complex_identity(c):
    for i in range(0, c.dim + 1):
        di1 = boundary_matrix(c, i + 1)
        assert all(
            sum(a * b for a, b in zip(row, col)) == 0
            for row in boundary_matrix(c, i)
            for col in zip(*di1)
        )


@pytest.mark.parametrize("c", CORPUS, ids=lambda c: f"d{c.dim}f{len(c.faces(c.dim))}")
def test_laplacian_rule_and_rank(c):
    # laplacian_matrix self-verifies every entry against the combinatorial
    # rule; here we additionally pin it to the product of the dense boundary
    # matrices, and pin symmetry and the Hodge identity
    # rank L_k = f_k - beta_k at every index: k = 0 (d_0 has no rows), the
    # interior ones and k = dim (d_{dim+1} has no columns)
    for k in range(c.dim + 1):
        lap = laplacian_matrix(c, k)
        assert len(lap) == len(c.faces(k))
        assert lap == dense_laplacian(c, k)
        assert lap == [list(col) for col in zip(*lap)]
        assert rank(lap) == len(c.faces(k)) - homology_dimension(c, k)


@pytest.mark.parametrize("c", CORPUS, ids=lambda c: f"d{c.dim}f{len(c.faces(c.dim))}")
def test_every_column_is_a_vertex(c):
    rng = random.Random(hash(c.vertices) & 0xFFFF)
    k = rng.randint(0, c.dim)
    poly = laplacian_polytope(c, k)
    assert len(poly.vertex_indices()) == len(c.faces(k))
    assert f_vector(c)[k + 1] == len(c.faces(k))


def write_complex(c, path):
    """The complex as a `build --complex` input file; returns the path."""
    lines = ["order: " + " ".join(map(str, c.vertices))]
    lines += [" ".join(map(str, (c.vertices[p] for p in f))) for f in c.faces(c.dim)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def has_isolated_vertex(c):
    """A vertex in no edge: a zero column of the 0-th Laplacian."""
    covered = {v for edge in c.faces(1) for v in edge}
    return any(v not in covered for (v,) in c.faces(0))


# the complete graph K4 and a perfect matching: read on their own, the
# reduced copies of their Laplacian polytopes reach the violated-facet loop
LP_FALLBACK = [
    from_facets([{1, 3}, {1, 4}, {3, 4}, {2, 4}, {2, 3}, {1, 2}], [2, 3, 1, 4]),
    from_facets([{1, 8}, {2, 5}, {4, 7}], [3, 7, 1, 6, 4, 8, 2, 5]),
]


@pytest.mark.parametrize(
    "c", [c for c in CORPUS if not has_isolated_vertex(c)] + LP_FALLBACK,
    ids=lambda c: f"d{c.dim}f{len(c.faces(c.dim))}",
)
def test_build_runs_no_lp(c, tmp_path, monkeypatch, capsys):
    # every column of such a Laplacian is the unique maximiser of its own
    # coordinate, so the lexicographic seeds settle every vertex question
    def no_lp(*args, **kwargs):
        raise AssertionError("vertex enumeration ran an LP")

    monkeypatch.setattr(lp, "solve_lp", no_lp)
    path = write_complex(c, tmp_path / "complex.txt")
    for k in range(c.dim + 1):
        assert main(["build", "--complex", str(path), "--k", str(k)]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["vertex_count"] == len(c.faces(k))


def build_corpus():
    """(complex, k) pairs: 60 seeded pure complexes on 4-7 vertices with
    facet dimension 1-3, 2-8 facets and a random Laplacian index."""
    rng = random.Random(2103)
    out = []
    while len(out) < 60:
        n = rng.randint(4, 7)
        dim = rng.randint(1, min(3, n - 2))
        c = random_pure_complex(rng, n, dim, rng.randint(2, 8))
        out.append((c, rng.randint(0, dim)))
    return out


# sha256 of the `results` blocks (with exit codes) of `lapoly build` on
# `build_corpus()`: affine hulls, vertices, reductions and facets must not move
BUILD_GOLDEN = "83d80bf1067bd88e"


def build_results(tmp_path, capsys):
    out = []
    for i, (c, k) in enumerate(build_corpus()):
        path = write_complex(c, tmp_path / f"complex_{i:02d}.txt")
        code = main(["build", "--complex", str(path), "--k", str(k)])
        text = capsys.readouterr().out
        out.append((code, json.loads(text)["results"] if code == EXIT_OK else None))
    return out


def test_build_golden_hash(tmp_path, capsys):
    text = json.dumps(build_results(tmp_path, capsys), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == BUILD_GOLDEN
