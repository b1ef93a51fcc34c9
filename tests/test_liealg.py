import time
from fractions import Fraction

import pytest

from heisenfourier.liealg import (
    BUNDLED,
    MAX_DIM,
    H3Embedding,
    LieAlgebra,
    _basis_of_full_space,
    bracket,
    bundled_structure,
    find_h3,
    load_structure,
    lower_central_series,
)

EXPECTED = {
    "abelian2": ((2, 0), 1),
    "h3": ((3, 1, 0), 2),
    "n4": ((4, 2, 1, 0), 3),
    "upper4": ((6, 3, 1, 0), 3),
    "h5": ((5, 1, 0), 2),
}


def test_bundled_corpus_series_and_degrees():
    for name in BUNDLED:
        L = bundled_structure(name)
        flag = lower_central_series(L)
        dims, want_degree = EXPECTED[name]
        assert flag.dims == dims, name
        assert flag.nilpotency_degree == want_degree, name
        assert not flag.spaces[-1]


def test_the_last_nonzero_series_term_is_central():
    """[C_d, g] = C_{d+1} = 0, d the nilpotency degree: find_h3 needs no
    test that keeps x out of C_d, since such an x brackets to zero."""
    for name in BUNDLED:
        L = bundled_structure(name)
        flag = lower_central_series(L)
        last = flag.spaces[-2]
        assert last, name
        for x in last:
            for e in _basis_of_full_space(L.dim):
                assert all(c == 0 for c in bracket(L, x, e)), name


def test_bundled_lookup_rejects_unknown_names():
    with pytest.raises(ValueError):
        bundled_structure("so3")


def test_bracket_is_bilinear_and_exact():
    L = bundled_structure("h3")
    x = (Fraction(1, 3), Fraction(0), Fraction(0))
    y = (Fraction(0), Fraction(7, 5), Fraction(2))
    z = bracket(L, x, y)
    assert z == (Fraction(0), Fraction(0), Fraction(7, 15))
    assert bracket(L, y, x) == tuple(-c for c in z)
    with pytest.raises(ValueError):
        bracket(L, (1, 0), (0, 1, 0))


def test_h3_embedding_on_the_corpus():
    for name in BUNDLED:
        _, degree = EXPECTED[name]
        L = bundled_structure(name)
        if degree < 2:
            with pytest.raises(ValueError):
                find_h3(L)
            continue
        emb = find_h3(L)
        assert isinstance(emb, H3Embedding)
        assert any(c != 0 for c in emb.z)
        assert bracket(L, emb.x, emb.y) == emb.z
        assert all(c == 0 for c in bracket(L, emb.x, emb.z))
        assert all(c == 0 for c in bracket(L, emb.y, emb.z))


def _first_embedding_by_exhaustion(L):
    """Mirror of the documented tie-break order, written independently."""
    flag = lower_central_series(L)
    degree = flag.nilpotency_degree
    assert degree is not None and degree >= 2
    basis = _basis_of_full_space(L.dim)
    for x in flag.spaces[degree - 2]:
        for y in basis:
            z = bracket(L, x, y)
            if all(c == 0 for c in z):
                continue
            if any(c != 0 for c in bracket(L, x, z)):
                continue
            if any(c != 0 for c in bracket(L, y, z)):
                continue
            if any(any(c != 0 for c in bracket(L, e, z)) for e in basis):
                continue
            return (tuple(x), tuple(y), tuple(z))
    raise AssertionError("exhaustive search found nothing")


def test_find_h3_agrees_with_exhaustive_search():
    for name in BUNDLED:
        if EXPECTED[name][1] < 2:
            continue
        L = bundled_structure(name)
        emb = find_h3(L)
        assert (emb.x, emb.y, emb.z) == _first_embedding_by_exhaustion(L), name


def test_upper4_embedding_is_the_matrix_triple():
    # basis order e1=E12 e2=E13 e3=E14 e4=E23 e5=E24 e6=E34
    L = bundled_structure("upper4")
    emb = find_h3(L)
    assert emb.x == (0, 1, 0, 0, 0, 0)
    assert emb.y == (0, 0, 0, 0, 0, 1)
    assert emb.z == (0, 0, 1, 0, 0, 0)


def test_non_nilpotent_is_detected():
    # [e1, e2] = e2: solvable, not nilpotent
    L = LieAlgebra.from_brackets(2, {(1, 2): {2: 1}})
    flag = lower_central_series(L)
    assert flag.dims == (2, 1)
    assert flag.spaces[-1]
    assert flag.nilpotency_degree is None
    with pytest.raises(ValueError):
        find_h3(L)


def test_rational_structure_constants_stay_exact():
    L = LieAlgebra.from_brackets(3, {(1, 2): {3: Fraction(1, 3)}})
    emb = find_h3(L)
    assert emb.x == (1, 0, 0)
    assert emb.y == (0, 1, 0)
    assert emb.z == (0, 0, Fraction(1, 3))


def test_construction_rejects_broken_antisymmetry():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1
    c[1][0][2] = 1
    tensor = tuple(tuple(tuple(Fraction(v) for v in row) for row in plane) for plane in c)
    with pytest.raises(ValueError, match="antisymmetry"):
        LieAlgebra(3, tensor)


def test_construction_rejects_broken_jacobi():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (1, 3): {1: 1}})


def test_from_brackets_consistency_checks():
    with pytest.raises(ValueError, match="inconsistent"):
        LieAlgebra.from_brackets(3, {(1, 2): {3: 1}, (2, 1): {3: 1}})
    with pytest.raises(ValueError, match="vanish"):
        LieAlgebra.from_brackets(2, {(1, 1): {2: 1}})
    with pytest.raises(ValueError, match="out of range"):
        LieAlgebra.from_brackets(2, {(1, 3): {2: 1}})


def test_load_structure_errors(tmp_path):
    empty = tmp_path / "empty.alg"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        load_structure(empty)
    bad_dim = tmp_path / "baddim.alg"
    bad_dim.write_text("three\n")
    with pytest.raises(ValueError, match="dimension"):
        load_structure(bad_dim)
    short = tmp_path / "short.alg"
    short.write_text("3\n1 2 1\n")
    with pytest.raises(ValueError, match="malformed"):
        load_structure(short)
    repeated = tmp_path / "repeated.alg"
    repeated.write_text("3\n1 2 3 1\n1 2 3 5\n")
    with pytest.raises(ValueError, match=r"repeated\.alg: repeated entry \(1, 2, 3\)"):
        load_structure(repeated)


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 100000])
def test_a_structure_file_above_the_dimension_limit_is_refused_at_once(tmp_path, dim):
    path = tmp_path / "big.alg"
    path.write_text(f"{dim}\n")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"big\.alg: dimension {dim} is above the limit 32"):
        load_structure(path)
    assert time.perf_counter() - start < 1.0


def test_load_structure_accepts_rationals(tmp_path):
    path = tmp_path / "scaled.alg"
    path.write_text("# scaled h3\n3\n1 2 3 2/7\n")
    L = load_structure(path)
    assert bracket(L, (1, 0, 0), (0, 1, 0)) == (0, 0, Fraction(2, 7))
