import pytest
from hypothesis import given, strategies as st

from lapoly.cli import EXIT_INPUT, main
from lapoly.complexes import boundary_of_simplex, from_facets, read_complex_file
from oracles import (boundary_matrix, f_from_h, f_vector, full_simplex, h_from_f,
                     homology_dimension)


def four_cycle(ordering=(1, 2, 3, 4)):
    return from_facets([{1, 2}, {2, 3}, {3, 4}, {1, 4}], ordering)


def same_complex(a, b):
    """Same ordered vertices and the same faces as position tuples."""
    return (a.vertices, a.faces_by_dim) == (b.vertices, b.faces_by_dim)


def composes_to_zero(c, i):
    """d_i d_{i+1} == 0, on the row lists of the two boundary maps."""
    di1 = boundary_matrix(c, i + 1)
    return all(
        sum(a * b for a, b in zip(row, col)) == 0
        for row in boundary_matrix(c, i)
        for col in zip(*di1)
    )


def test_from_facets_examples():
    c = four_cycle()
    assert f_vector(c) == (1, 4, 4)
    pt = from_facets([{1}], [1])
    assert f_vector(pt) == (1, 1)
    b3 = from_facets(
        [s for s in map(set, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])],
        [1, 2, 3, 4],
    )
    assert f_vector(b3) == (1, 4, 6, 4)
    assert same_complex(b3, boundary_of_simplex(3))


def test_from_facets_errors():
    with pytest.raises(ValueError):
        from_facets([{1, 5}], [1, 2])
    with pytest.raises(ValueError):
        from_facets([{1}], [1, 1])
    with pytest.raises(ValueError):
        from_facets([], [1])


def test_ordering_is_part_of_identity():
    assert not same_complex(four_cycle((1, 2, 3, 4)), four_cycle((1, 2, 4, 3)))


def test_boundary_of_simplex():
    assert f_vector(boundary_of_simplex(3)) == (1, 4, 6, 4)
    assert f_vector(boundary_of_simplex(1)) == (1, 2)
    assert len(boundary_of_simplex(5).faces(4)) == 6
    assert boundary_of_simplex(4).dim == 3


def test_f_and_h_vectors():
    f = f_vector(boundary_of_simplex(3))
    assert f == (1, 4, 6, 4)
    assert h_from_f(f) == (1, 1, 1, 1)
    f = f_vector(four_cycle())
    assert f == (1, 4, 4)
    assert h_from_f(f) == (1, 2, 1)
    for d in range(1, 6):
        assert h_from_f(f_vector(full_simplex(d))) == (1,) + (0,) * (d + 1)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8))
def test_h_f_round_trip(tail):
    h = tuple([1] + tail)
    assert h_from_f(f_from_h(h)) == h
    f = f_from_h(h)
    assert f[0] == 1


def test_boundary_matrix_examples():
    c = four_cycle()
    m = boundary_matrix(c, 1)
    j = list(c.faces(1)).index((0, 1))
    assert [row[j] for row in m] == [-1, 1, 0, 0]
    assert composes_to_zero(boundary_of_simplex(3), 1)
    m1 = boundary_matrix(boundary_of_simplex(2), 1)
    assert len(m1[0]) == 3 and all(sum(col) == 0 for col in zip(*m1))


def test_boundary_matrix_chain_convention():
    c = four_cycle()
    assert boundary_matrix(c, 0) == []
    assert boundary_matrix(c, 2) == [[], [], [], []]
    with pytest.raises(IndexError):
        boundary_matrix(c, 3)
    with pytest.raises(IndexError):
        boundary_matrix(c, -1)


def test_chain_identity_everywhere():
    for c in [four_cycle(), boundary_of_simplex(3), boundary_of_simplex(4),
              full_simplex(3)]:
        for i in range(0, c.dim + 1):
            assert composes_to_zero(c, i)


def test_homology_dimensions():
    for d in range(1, 5):
        assert homology_dimension(boundary_of_simplex(d + 1), d) == 1
    assert homology_dimension(four_cycle(), 1) == 1
    assert homology_dimension(full_simplex(3), 3) == 0
    # two isolated points: 0-th homology has dimension 2
    assert homology_dimension(boundary_of_simplex(1), 0) == 2


def test_rank_laplacian_equals_f_minus_homology():
    # rank L_d = f_d - dim H_d on pure complexes
    from lapoly.laplacian import laplacian_matrix
    from oracles import rank

    corpus = [
        four_cycle(),
        boundary_of_simplex(2),
        boundary_of_simplex(3),
        boundary_of_simplex(4),
        full_simplex(2),
        full_simplex(3),
        from_facets([{1, 2, 3}, {2, 3, 4}], [1, 2, 3, 4]),
    ]
    for c in corpus:
        d = c.dim
        lap = laplacian_matrix(c, d)
        assert rank(lap) == len(c.faces(d)) - homology_dimension(c, d)


def test_read_complex_file(tmp_path):
    path = tmp_path / "cycle4.cplx"
    path.write_text(
        "# a four-cycle\norder: 1 2 3 4\n1 2\n2 3\n3 4\n1 4  # last facet\n",
        encoding="utf-8",
    )
    c = read_complex_file(path)
    assert same_complex(c, four_cycle())
    bad = tmp_path / "bad.cplx"
    bad.write_text("1 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_complex_file(bad)
    empty = tmp_path / "empty.cplx"
    empty.write_text("order: 1 2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_complex_file(empty)


@pytest.mark.parametrize("order,facet", [
    pytest.param("1_0 2", "1 10", id="underscore"),  # int() reads 1_0 as 10
    pytest.param("\u0661 2", "1 2", id="arabic-indic-1"),
    pytest.param("+1 2", "1 2", id="plus-sign"),
    pytest.param("1 2", "1 \uff12", id="fullwidth-2-in-facet"),
    pytest.param("- 2", "2", id="bare-minus"),
])
def test_read_complex_file_labels_are_ascii_integers(order, facet, tmp_path, capsys):
    path = tmp_path / "labels.cplx"
    path.write_text(f"order: {order}\n{facet}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="is not an integer"):
        read_complex_file(path)
    assert main(["build", "--complex", str(path), "--k", "0"]) == EXIT_INPUT
    assert "is not an integer" in capsys.readouterr().err


def test_read_complex_file_takes_negative_labels(tmp_path):
    path = tmp_path / "negative.cplx"
    path.write_text("order: -1 2 -30\n-1 2\n2 -30\n", encoding="utf-8")
    assert read_complex_file(path).vertices == (-1, 2, -30)
