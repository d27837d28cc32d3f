import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

import lapoly.ehrhart as ehrhart
from lapoly.budgets import BudgetError
from lapoly.cli import load_reference_table
from lapoly.ehrhart import (
    _poly_mul,
    dilation_antisymmetry_holds,
    dilation_coefficient,
    ehrhart_counts,
    hstar_dilate,
    hstar_from_counts,
    hstar_simplex_fundamental,
    hstar_structural,
    is_palindromic,
    is_real_rooted,
    is_unimodal,
)
from lapoly.laplacian import reduce_full_dim
from lapoly.polytope import LatticePolytope
from lapoly.triangulate import (
    _edgewise_template,
    interior_facets,
    verify_triangulation,
)
from oracles import (
    boundary_signatures,
    ehrhart_polynomial,
    esd_face_enumerator,
    esd_h_polynomial,
    h_from_f,
    hstar_double,
    interior_hstar_by_faces,
    poly_rem,
)

REFERENCE = {
    1: (1, 2, 0),
    2: (1, 10, 5),
    3: (1, 22, 78, 24, 0),
    4: (1, 131, 726, 419, 19),
    5: (1, 149, 4049, 8558, 3750, 300, 0),
    6: (1, 1478, 38179, 126372, 85623, 10422, 69),
    7: (1, 926, 157566, 1135846, 2188310, 1150800, 145600, 3920, 0),
    8: (1, 17617, 1581403, 16864069, 43252570, 31729319, 6314903, 239867, 251),
}


def test_hstar_from_counts_examples():
    assert tuple(hstar_from_counts([1, 4, 9], 2)) == (1, 1, 0)
    assert tuple(hstar_from_counts([1, 13, 41], 2)) == (1, 10, 5)
    # standard simplices: h* = (1, 0, ..., 0)
    for d in range(1, 5):
        counts = [comb(n + d, d) for n in range(d + 1)]
        assert tuple(hstar_from_counts(counts, d)) == (1,) + (0,) * d


def test_hstar_from_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        hstar_from_counts([1, 2], 2)
    with pytest.raises(ValueError):
        hstar_from_counts([2, 4, 9], 2)
    with pytest.raises(ValueError):
        hstar_from_counts([1, 10, 12], 2)  # negative h*_2


def test_ehrhart_polynomial_interpolation():
    # unit square: E(n) = (n+1)^2
    coeffs = ehrhart_polynomial([1, 4, 9])
    assert coeffs == [Fraction(1), Fraction(2), Fraction(1)]
    counts = ehrhart_counts(LatticePolytope([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert counts == [1, 4, 9]


def test_ehrhart_counts_need_full_dimension():
    with pytest.raises(ValueError, match="full-dimensional copy"):
        ehrhart_counts(LatticePolytope([(0, 0), (1, 1)]))


def scan_oracle(p, dim):
    """|nP| for n = 0..dim, one box scan per dilation."""
    return [p.lattice_point_count(n) for n in range(dim + 1)]


def random_full_dim_polytope(rng, dim):
    while True:
        width = rng.randint(1, 3 if dim < 4 else 2)
        pts = {
            tuple(rng.randint(0, width) for _ in range(dim))
            for _ in range(rng.randint(dim + 1, dim + 4))
        }
        p = LatticePolytope(sorted(pts))
        if p.dim() == dim:
            return p


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_reciprocity_counts_match_scans_laplacian(d):
    p, _ = reduce_full_dim(d)
    assert ehrhart_counts(p) == scan_oracle(p, p.ambient_dim)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_reciprocity_counts_match_scans_random(dim):
    rng = random.Random(9000 + dim)
    for _ in range(55):
        p = random_full_dim_polytope(rng, dim)
        assert ehrhart_counts(p) == scan_oracle(p, dim), p.points


def test_strict_scan_matches_brute_force():
    rng = random.Random(17)
    cases = [reduce_full_dim(d)[0] for d in (1, 2, 3)]
    cases += [random_full_dim_polytope(rng, dim) for dim in (1, 2, 3) for _ in range(4)]
    for p in cases:
        dim = p.ambient_dim
        for n in (1, 2, 3):
            box = [
                range(n * min(q[i] for q in p.points), n * max(q[i] for q in p.points) + 1)
                for i in range(dim)
            ]
            interior = [
                x for x in product(*box)
                if all(h.value(x) < n * h.offset for h in p.facets())
            ]
            assert p._scan(n, strict=True) == len(interior)


def test_ehrhart_budget_checks_largest_scanned_box_first(monkeypatch):
    p, _ = reduce_full_dim(4)  # 4-dimensional; k = 2, so 2P is the largest box
    scans = []
    real = LatticePolytope._scan
    monkeypatch.setattr(
        LatticePolytope, "_scan", lambda self, n, **kw: scans.append(n) or real(self, n, **kw)
    )
    lo, hi = p._check_box(2)
    box_2p = prod(b - a + 1 for a, b in zip(lo, hi))
    with pytest.raises(BudgetError):
        ehrhart_counts(p, budget=box_2p - 1)
    assert scans == []
    assert ehrhart_counts(p, budget=box_2p) == [1, 136, 1396, 6049, 17659]


def test_ehrhart_profile_matches_structural():
    for d in (1, 2, 3, 4):
        p, _ = reduce_full_dim(d)
        dim = p.dim()
        counts = ehrhart_counts(p)
        assert tuple(hstar_from_counts(counts, dim)) == REFERENCE[d]
        # polynomial reproduces the counts
        for n, c in enumerate(counts):
            value = sum(
                coef * n**k for k, coef in enumerate(ehrhart_polynomial(counts))
            )
            assert value == c


def test_fundamental_simplex_examples():
    assert tuple(hstar_simplex_fundamental([(0,), (2,)])) == (1, 1)
    assert tuple(hstar_simplex_fundamental([(0, 0), (1, 0), (0, 1)])) == (1, 0, 0)
    for d in (1, 3, 5):
        p, _ = reduce_full_dim(d)
        assert tuple(hstar_simplex_fundamental(p.points)) == REFERENCE[d]


def test_fundamental_simplex_rejects_non_integral_vertices():
    # once truncated to the segment [0, 2], whose h* is (1, 1)
    with pytest.raises(ValueError, match="not an integer vector"):
        hstar_simplex_fundamental([(0,), (2.7,)])
    assert tuple(hstar_simplex_fundamental([(0,), (Fraction(6, 2),)])) == (1, 2)


def test_fundamental_budget_and_errors():
    p, _ = reduce_full_dim(3)
    with pytest.raises(BudgetError):
        hstar_simplex_fundamental(p.points, budget=10)
    with pytest.raises(ValueError):
        hstar_simplex_fundamental([(0, 0), (1, 0), (2, 0)])


def random_unimodular_image(rng, points):
    """The points under a seeded map x -> A*x + b with A unimodular."""
    dim = len(points[0])
    a = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3 * dim):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i != j:
            q = rng.randint(-2, 2)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        else:
            a[i] = [-x for x in a[i]]
    b = [rng.randint(-3, 3) for _ in range(dim)]
    return [
        tuple(sum(r * x for r, x in zip(row, p)) + c for row, c in zip(a, b))
        for p in points
    ]


def both_kernels(points):
    cols, u, diag, v = ehrhart._simplex_snf(points)
    walk = ehrhart._parallelepiped_walk(cols, u, diag)
    assert ehrhart._parallelepiped_dp(v, diag) == walk
    return diag, walk


def test_fundamental_kernels_agree_on_dilated_unimodular_simplices():
    rng = random.Random(20261018)
    for _ in range(12):
        dim, k = rng.randint(1, 4), rng.randint(2, 6)
        standard = [(0,) * dim] + [
            tuple(int(i == j) for j in range(dim)) for i in range(dim)
        ]
        simplex = random_unimodular_image(rng, standard)
        dilated = [tuple(k * x for x in p) for p in simplex]
        diag, h = both_kernels(dilated)
        assert diag == [1] + [k] * dim
        assert h == list(hstar_dilate((1,), dim, k))


def test_fundamental_kernels_agree_on_laplacian_images():
    rng = random.Random(7)
    for d in (1, 3, 5):
        p, _ = reduce_full_dim(d)
        for _ in range(2):
            diag, h = both_kernels(random_unimodular_image(rng, p.points))
            assert diag == [1, 1] + [d + 2] * d
            assert tuple(h) == REFERENCE[d]


@pytest.mark.parametrize("chain", [(2, 4), (1, 2, 4), (2, 2, 6), (3, 6, 6), (2, 4, 4, 8)])
def test_fundamental_kernels_agree_on_mixed_invariants(chain):
    # vertices 0 and the columns of D*A, A unimodular, D = diag(chain):
    # SNF [1, *chain], so some moduli e/s_i lie strictly between 1 and e
    rng = random.Random(sum(chain))
    dim = len(chain)
    standard = [(0,) * dim] + [
        tuple(int(i == j) for j in range(dim)) for i in range(dim)
    ]
    image = random_unimodular_image(rng, standard)
    edges = [[s * (x - o) for s, x, o in zip(chain, p, image[0])] for p in image[1:]]
    simplex = random_unimodular_image(rng, [(0,) * dim] + [tuple(c) for c in edges])
    diag, h = both_kernels(simplex)
    assert diag == [1, *chain]
    assert sum(h) == prod(chain)


def test_fundamental_kernels_agree_on_random_simplices():
    rng = random.Random(31)
    compared = 0
    while compared < 60:
        dim = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 1)]
        diag = ehrhart._simplex_snf(pts)[2]
        n, e, volume = len(diag), diag[-1], prod(diag)
        if volume == 0 or volume > 2000 or e**n // volume * n * e > 20000:
            continue
        assert sum(both_kernels(pts)[1]) == volume
        compared += 1


def test_fundamental_kernels_on_examples():
    assert both_kernels([(0,), (2,)])[1] == [1, 1]
    assert both_kernels([(0, 0), (1, 0), (0, 1)])[1] == [1, 0, 0]


@pytest.mark.parametrize(
    "d,kernel,count",
    [(1, "walk", 3), (3, "walk", 125), (5, "residue DP", 49 * 43),
     (7, "residue DP", 81 * 73), (9, "residue DP", 121 * 111)],
)
def test_fundamental_kernel_choice(d, kernel, count):
    p, _ = reduce_full_dim(d)
    diag = ehrhart._simplex_snf(p.points)[2]
    assert ehrhart._fundamental_kernel(diag) == (kernel, count)
    with pytest.raises(BudgetError, match=f"{kernel} needs {count} "):
        hstar_simplex_fundamental(p.points, budget=count - 1)


def test_hstar_double():
    assert hstar_dilate([1, 0], 1, 2) == (1, 1)
    assert hstar_dilate([1, 2, 1], 2, 2) == (1, 10, 5)
    # interior polytope route for d = 4: doubling its h* gives the table row
    p, _ = reduce_full_dim(4)
    q = p.interior_polytope()
    qc = q.translate((-1, -1, -1, -1))
    hq = hstar_from_counts(ehrhart_counts(LatticePolytope(qc.vertices())), 4)
    assert hstar_dilate(tuple(hq), 4, 2) == REFERENCE[4]
    assert is_palindromic(tuple(hq), 4)


SMALL_POLYTOPES = [
    [(0,), (3,)],
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (2, 0), (0, 1), (1, 1)],
    [(0, 0), (1, 0), (0, 1), (1, 2)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
]


@pytest.mark.parametrize("points", SMALL_POLYTOPES, ids=range(len(SMALL_POLYTOPES)))
@pytest.mark.parametrize("r", (1, 2, 3))
def test_hstar_dilate_matches_counts_of_the_dilation(points, r):
    p = LatticePolytope(points)
    dim = p.dim()
    h = hstar_from_counts(ehrhart_counts(p), dim)
    dilated = LatticePolytope([tuple(r * x for x in q) for q in points])
    assert hstar_dilate(h, dim, r) == hstar_from_counts(ehrhart_counts(dilated), dim)


def test_hstar_dilate_matches_binomial_doubling():
    rng = random.Random(20261021)
    for _ in range(300):
        dim = rng.randint(0, 9)
        h = [rng.randint(0, 50) for _ in range(rng.randint(1, dim + 1))]
        assert hstar_dilate(h, dim, 2) == hstar_double(h, dim)
        assert hstar_dilate(h, dim, 1) == tuple(h) + (0,) * (dim + 1 - len(h))
    with pytest.raises(ValueError, match="at most 3 entries"):
        hstar_dilate((1, 0, 0, 1), 2, 2)
    with pytest.raises(ValueError, match="r >= 1"):
        hstar_dilate((1, 1), 1, 0)


def test_structural_rows():
    for d, row in REFERENCE.items():
        hs = hstar_structural(d)
        assert tuple(hs) == row
        assert sum(hs) == (d + 2) ** d
        expected_len = d + 2 if d % 2 else d + 1
        assert len(hs) == expected_len


def test_structural_matches_census(triangulation_cache):
    from lapoly.triangulate import h_vector_of

    for d in (1, 2, 3, 4, 5):
        h = h_vector_of(triangulation_cache(d))
        hs = tuple(hstar_structural(d))
        assert h[: len(hs)] == hs == REFERENCE[d]
        assert all(x == 0 for x in h[len(hs):])


def test_interior_hstar_palindromic_unimodal():
    from lapoly.ehrhart import _interior_hstar_structural

    for d in (2, 4, 6, 8):
        hq = _interior_hstar_structural(d)
        assert sum(hq) == ((d + 2) // 2) ** d
        assert is_palindromic(tuple(hq), d)
        unimodal, _ = is_unimodal(tuple(hq))
        assert unimodal


# The materialised structural route, kept as the oracle for the closed
# forms: every face of the edgewise subdivision, and every label subset of
# every facet of the interior polytope.


def materialised_face_enumerator(r, nverts):
    if nverts == 0:
        return tuple([1])
    faces = set()
    for cell in _edgewise_template(r, nverts)[1]:
        cell = tuple(sorted(cell))
        for size in range(1, len(cell) + 1):
            faces.update(combinations(cell, size))
    counts = [1] + [0] * nverts
    for f in faces:
        counts[len(f)] += 1
    return tuple(counts)


def materialised_signature_counts(d):
    signature_counts = {}
    faces = set()
    for v1, v2 in interior_facets(d):
        labels = tuple(sorted(v1 + v2))
        for size in range(0, len(labels) + 1):
            faces.update(combinations(labels, size))
    for f in faces:
        a1 = sum(1 for l in f if l % 2 == 1)
        a2 = len(f) - a1
        signature_counts[(a1, a2)] = signature_counts.get((a1, a2), 0) + 1
    return signature_counts


@pytest.mark.parametrize("r", range(1, 8))
@pytest.mark.parametrize("n", range(0, 6))
def test_esd_closed_form_matches_materialised(r, n):
    face_enum = materialised_face_enumerator(r, n)
    assert esd_face_enumerator(r, n) == face_enum
    if n:
        h = hstar_dilate((1,), n - 1, r)
        assert h == esd_h_polynomial(r, n)
        assert h + (0,) == h_from_f(face_enum)


@pytest.mark.parametrize("d", range(2, 13, 2))
def test_boundary_signatures_match_facet_subsets(d):
    assert boundary_signatures(d) == materialised_signature_counts(d)


@pytest.mark.parametrize("d", (9, 10))
def test_structural_matches_materialised_route(d):
    # rows 9 and 10 of the reference table are pinned by this agreement:
    # the edgewise subdivisions are materialised, and the even-d step
    # counts faces and doubles by the binomial formula, so this route
    # shares only `_poly_mul` with `hstar_structural`
    if d % 2:
        h = _poly_mul(
            h_from_f(materialised_face_enumerator(d + 2, (d + 3) // 2)),
            h_from_f(materialised_face_enumerator(d + 2, (d + 1) // 2)),
        )
    else:
        hq = interior_hstar_by_faces(
            d, materialised_face_enumerator, materialised_signature_counts)
        h = hstar_double(hq, d)
    length = d + 2 if d % 2 else d + 1
    assert not any(h[length:])
    route = h[:length] + (0,) * (length - len(h))
    assert hstar_structural(d) == route == load_reference_table()[d]


def test_interior_closed_form_matches_face_count_route():
    for d in range(2, 41, 2):
        assert ehrhart._interior_hstar_structural(d) == interior_hstar_by_faces(d), d


def test_subdivided_sphere_h_vector():
    # s = h of the boundary of the m-th edgewise subdivision of an
    # (m-1)-simplex, from Dehn-Sommerville for balls; s^2 = h*(Q) fixes s,
    # as s_0 = 1 > 0.  The boundary is an (m-2)-sphere with m facets, each
    # subdivided into m^(m-2) cells.
    for d in range(2, 41, 2):
        m = d // 2 + 1
        v = hstar_dilate((1,), m - 1, m) + (0,)
        s = [sum(v[j] - v[m - j] for j in range(i + 1)) for i in range(m)]
        assert _poly_mul(s, s) == ehrhart._interior_hstar_structural(d)
        assert is_palindromic(s, m - 1)
        assert sum(s) == m ** (m - 1)


def test_structural_volume_up_to_30():
    for d in range(1, 31):
        hs = hstar_structural(d)
        assert len(hs) == (d + 2 if d % 2 else d + 1)
        assert sum(hs) == (d + 2) ** d


@pytest.mark.parametrize("d", range(1, 22))
def test_structural_real_rooted_and_unimodal(d):
    hs = tuple(hstar_structural(d))
    if d % 2:
        assert is_real_rooted(hs)
    if d <= 20:
        dim = d + 1 if d % 2 else d
        assert is_unimodal(hs) == (True, -(-dim // 2))


def test_even_structural_real_rooted_up_to_30():
    # evidence beyond the paper, which proves real-rootedness for odd d only:
    # one exact Sturm proof per even d
    for d in range(2, 31, 2):
        assert is_real_rooted(tuple(hstar_structural(d))), d


def test_dilation_coefficients():
    assert tuple(dilation_coefficient(2, 0, j) for j in range(3)) == (2, 3, 1)
    assert dilation_coefficient(2, 0, -1) == -2
    for d in range(0, 13):
        for i in range(0, d + 1):
            for k in range(0, d + 1):
                assert dilation_antisymmetry_holds(d, i, k)


def test_dilation_coefficient_sign_threshold():
    # r_j >= 0 exactly from the antisymmetry center upwards
    for d in range(1, 10):
        for i in range(0, d + 1):
            threshold = Fraction(2 * i + 2) - Fraction(d + 3, 2)
            for j in range(-3, d + 4):
                r = dilation_coefficient(d, i, j)
                if Fraction(j) >= threshold:
                    assert r >= 0, (d, i, j)


def monotone_first_half(b):
    d = len(b) - 1
    c = [
        sum(
            comb(d + 1, 2 * i - j) * b[j]
            for j in range(d + 1)
            if 0 <= 2 * i - j <= d + 1
        )
        for i in range(d + 1)
    ]
    half = (d + 1) // 2
    return all(c[i] <= c[i + 1] for i in range(half))


def test_monotone_first_half_seeded():
    rng = random.Random(20260809)
    for _ in range(1000):
        d = rng.randint(1, 12)
        half = [rng.randint(0, 40) for _ in range(d // 2 + 1)]
        # random symmetric unimodal sequence
        half.sort()
        b = half + half[len(half) - 2 if (d + 1) % 2 else len(half) - 1 :: -1]
        b = b[: d + 1]
        assert len(b) == d + 1
        assert all(b[i] == b[d - i] for i in range(d + 1))
        assert monotone_first_half(b)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=6))
def test_monotone_first_half_property(half):
    half = sorted(half)
    for parity in (0, 1):
        b = half + half[len(half) - 1 - parity :: -1]
        if parity == 1 and len(half) == 1:
            continue
        d = len(b) - 1
        assert monotone_first_half(b)


def test_property_checks():
    assert is_unimodal((1, 2, 1)) == (True, 1)
    assert is_palindromic((1, 2, 1), 2)
    assert is_real_rooted((1, 2, 1))
    assert is_unimodal((1, 10, 5)) == (True, 1)
    assert not is_palindromic((1, 10, 5), 2)
    # an entry past degree dim is not read as padding
    assert not is_palindromic((1, 2, 1, 5), 2)
    assert is_palindromic((1, 2, 1, 0), 2)
    assert is_real_rooted((1, 2, 0))
    assert not is_real_rooted((1, 0, 1))
    assert not is_real_rooted((1, 1, 1))
    assert not is_unimodal((1, 0, 2, 0, 1))[0]
    with pytest.raises(ValueError):
        is_real_rooted((0, 0))


def test_real_rooted_with_multiplicities():
    # (t+1)^2 (t+2): all real with a double root
    assert is_real_rooted((2, 5, 4, 1))
    # (t^2+1)(t+1): not all real
    assert not is_real_rooted((1, 1, 1, 1))


def test_real_rooted_with_repeated_roots():
    # seeded products of integer linear factors (a + b*t)^k, powers of t
    # among them, are real-rooted; times 1 + t + t^2 they are not
    rng = random.Random(20261019)
    for _ in range(300):
        p = [1]
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.25:
                a, b = 0, 1
            else:
                a = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
                b = rng.choice([-3, -2, -1, 1, 2, 3])
            for _ in range(rng.randint(1, 3)):
                p = [a * x + b * y for x, y in zip(p + [0], [0] + p)]
        q = [x + y + z for x, y, z in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]
        zeros = [0] * rng.randint(0, 2)
        assert is_real_rooted(p + zeros), p
        assert not is_real_rooted(q + zeros), q


def test_integer_pseudo_remainder_is_a_positive_multiple():
    # seeded integer polynomials with either sign of leading coefficient,
    # repeated linear factors in the divisor and exact multiples of it:
    # the integer remainder is |lc(b)|^s times the rational one
    rng = random.Random(1019)

    def linear_power(p):
        a, b = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
        for _ in range(rng.randint(1, 3)):
            p = [a * x + b * y for x, y in zip(p + [0], [0] + p)]
        return p

    for trial in range(400):
        b = [rng.choice([-1, 1])]
        for _ in range(rng.randint(0, 2)):
            b = linear_power(b)
        a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        if trial % 4 == 0:
            a = [sum(a[j] * b[k - j] for j in range(len(a)) if 0 <= k - j < len(b))
                 for k in range(len(a) + len(b) - 1)]
        steps = max(0, len(a) - len(b) + 1)
        got = ehrhart._poly_rem(a, b)
        assert got == [abs(b[-1]) ** steps * c for c in poly_rem(a, b)], (a, b)
        assert all(type(c) is int for c in got)
        if trial % 4 == 0:
            assert got == []


def test_reference_rows_properties():
    for d, row in REFERENCE.items():
        dim = d + 1 if d % 2 else d
        uni, peak = is_unimodal(row)
        assert uni and peak == -(-dim // 2)
        # decreasing tail from the middle
        start = (dim + 1) // 2
        trimmed = row[: dim + 1]
        for i in range(start, dim):
            assert trimmed[i] >= trimmed[i + 1]
        if d % 2:
            assert is_real_rooted(row)


def test_even_real_rootedness_empirical_status():
    # for even d this is only an empirical observation on a finite range,
    # not a guarantee of the library; record the current status
    status = {}
    for d in (2, 4, 6, 8, 10):
        status[d] = is_real_rooted(tuple(hstar_structural(d)))
    assert all(status.values())


def test_normalized_volume():
    for d in range(1, 9):
        p, _ = reduce_full_dim(d)
        assert p.normalized_volume() == (d + 2) ** d
    for d in (2, 4, 6, 8):
        p, _ = reduce_full_dim(d)
        q = LatticePolytope(p.interior_polytope().vertices())
        assert q.normalized_volume() == ((d + 2) // 2) ** d
    cube = LatticePolytope(
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert cube.normalized_volume() == 6


def test_normalized_volume_of_triangulation(triangulation_cache):
    for d in (1, 2, 3):
        assert verify_triangulation(triangulation_cache(d))["volume_sum"] == (d + 2) ** d
