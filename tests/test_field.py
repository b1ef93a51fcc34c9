import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from heisenfourier.field import OperatorField, TGrid, load_field, save_field

RNG = np.random.default_rng(77)


def test_tgrid_lattice_layout():
    tg = TGrid(0.125, 4)
    assert tg.ks == (-4, -3, -2, -1, 1, 2, 3, 4)
    assert tg.n_nodes == 8
    assert np.allclose(tg.nodes, np.array(tg.ks) * 0.125)
    assert 0 not in tg.ks


def test_tgrid_index_and_lattice_lookup():
    tg = TGrid(0.125, 4)
    assert tg.index_of(-4) == 0
    assert tg.index_of(1) == 4
    assert tg.index_of(0) is None
    assert tg.index_of(5) is None


def test_tgrid_validation():
    with pytest.raises(ValueError):
        TGrid(0.0, 4)
    with pytest.raises(ValueError):
        TGrid(0.125, 0)


@pytest.mark.parametrize("k_max", [True, False, np.bool_(True), 4.0, np.float64(4.0), "4"])
def test_tgrid_k_max_must_be_an_integer(k_max):
    with pytest.raises(ValueError, match="k_max"):
        TGrid(0.5, k_max)


@pytest.mark.parametrize("delta", [True, np.bool_(True), "0.5", 0.5j, None])
def test_tgrid_delta_must_be_a_real_number(delta):
    with pytest.raises(ValueError, match="delta"):
        TGrid(delta, 4)


def test_tgrid_refuses_a_delta_whose_largest_node_overflows():
    with pytest.raises(ValueError, match="delta"):
        TGrid(1e308, 3)
    for tg in (TGrid(1e308, 1), TGrid(5e307, 3)):
        assert np.all(np.isfinite(tg.nodes))


@pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5])
def test_tgrid_pairs_are_the_positions_of_minus_k_and_k(k_max):
    """The pairs that the transform and the dual convolution deal: one per
    k = 1..K, in that order, and every storage position in exactly one."""
    tg = TGrid(0.25, k_max)
    assert tg.pairs == tuple((tg.index_of(-k), tg.index_of(k)) for k in range(1, k_max + 1))
    assert sorted(pos for pair in tg.pairs for pos in pair) == list(range(tg.n_nodes))
    for neg, pos in tg.pairs:
        assert tg.nodes[neg] == -tg.nodes[pos] < 0


def test_tgrid_stores_numpy_reals_as_python_floats():
    tg = TGrid(np.float64(0.5), 4)
    assert type(tg.delta) is float
    assert tg == TGrid(0.5, 4)
    assert tg.nodes.dtype == np.float64
    assert TGrid(1, 4).nodes.dtype == np.float64


def test_tgrid_accepts_numpy_integers_as_python_ints():
    tg = TGrid(0.5, np.int64(4))
    assert type(tg.k_max) is int
    assert tg == TGrid(0.5, 4) and hash(tg) == hash(TGrid(0.5, 4))
    assert tg.n_nodes == 8


def _random_field(tg, dim):
    mats = RNG.standard_normal((tg.n_nodes, dim, dim)) + 1j * RNG.standard_normal(
        (tg.n_nodes, dim, dim)
    )
    return OperatorField(tg, mats)


def test_field_node_access():
    tg = TGrid(0.25, 2)
    F = _random_field(tg, 3)
    assert np.array_equal(F.at_k(-2), F.mats[0])
    assert np.array_equal(F.at_k(1), F.mats[2])
    assert np.array_equal(F.at_k(0), np.zeros((3, 3)))
    assert np.array_equal(F.at_k(3), np.zeros((3, 3)))


@pytest.mark.parametrize("k", [1.5, 1.0, np.float64(1.0), True, np.bool_(True)])
def test_node_index_must_be_an_integer(k):
    F = _random_field(TGrid(0.125, 2), 3)
    with pytest.raises(ValueError, match="k must be an integer"):
        F.tgrid.index_of(k)
    with pytest.raises(ValueError, match="k must be an integer"):
        F.at_k(k)


def test_node_index_accepts_numpy_integers():
    F = _random_field(TGrid(0.125, 2), 3)
    assert F.tgrid.index_of(np.int64(-2)) == 0
    assert np.array_equal(F.at_k(np.int32(1)), F.mats[2])


def test_field_shape_checks():
    tg = TGrid(0.25, 2)
    with pytest.raises(ValueError):
        OperatorField(tg, np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        OperatorField(tg, np.zeros((4, 2, 3)))
    bad = np.zeros((4, 2, 2))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        OperatorField(tg, bad)


def test_field_arithmetic_requires_same_lattice():
    F = _random_field(TGrid(0.25, 2), 3)
    G = _random_field(TGrid(0.25, 2), 3)
    H = _random_field(TGrid(0.125, 2), 3)
    diff = F - G
    assert np.array_equal(diff.mats, F.mats - G.mats)
    with pytest.raises(ValueError):
        F - H


def test_save_load_roundtrip_is_exact(tmp_path):
    tg = TGrid(0.125, 3)
    F = _random_field(tg, 5)
    save_field(F, tmp_path / "f.field")
    back = load_field(tmp_path / "f.field")
    assert back.tgrid == tg
    assert np.array_equal(back.mats, F.mats)
    assert back.mats.flags.writeable


def test_a_field_file_is_the_header_then_the_nodes_in_storage_order(tmp_path):
    F = _random_field(TGrid(0.25, 2), 3)
    save_field(F, tmp_path / "f.field")
    header = b"delta 0.25\nk_max 2\ndim 3\n"
    assert (tmp_path / "f.field").read_bytes() == header + F.mats.astype("<c16").tobytes()


def test_save_replaces_the_field_already_in_the_directory(tmp_path):
    small = _random_field(TGrid(0.25, 2), 4)
    save_field(_random_field(TGrid(0.125, 4), 8), tmp_path / "reused")
    save_field(small, tmp_path / "reused")
    save_field(small, tmp_path / "fresh")
    assert (tmp_path / "reused").read_bytes() == (tmp_path / "fresh").read_bytes()


_NODES = bytes(4 * 4 * 4 * 16)  # the node bytes of a k_max 2, dim 4 field


@pytest.mark.parametrize(
    "content",
    [
        b"delta 0.25\nk_max 2\n" + _NODES,
        b"delta x\nk_max 2\ndim 4\n" + _NODES,
        b"delta 0.25\nk_max -1\ndim 4\n" + _NODES,
        b"delta 0.25\nk_max 2\ndim 0\n" + _NODES,
        b"delta 0.25\nk_max 2\nk_max 2\ndim 4\n" + _NODES,
        b"delta 0.25\nk_max 2\ndim 4\ndim 4\n" + _NODES,
        b"dim 4\ndelta 0.25\nk_max 2\n" + _NODES,
        b"delta 0." + b"2" * 64 + b"\nk_max 2\ndim 4\n" + _NODES,
        b"delta 0.25\nk_max 2\ndim 4\n" + _NODES[:-1],
        b"delta 0.25\nk_max 2\ndim 4\n" + _NODES + b"\0",
        bytes(1000),
        b"",
    ],
    ids=[
        "no_dim", "bad_delta", "negative_k_max", "zero_dim", "repeated_k_max",
        "repeated_dim", "keys_out_of_order", "overlong_line", "one_byte_short",
        "one_byte_over", "zero_bytes", "empty",
    ],
)
def test_load_refuses_a_file_that_is_not_a_field(tmp_path, content):
    path = tmp_path / "bad.field"
    path.write_bytes(content)
    with pytest.raises(ValueError, match="bad.field: not a field"):
        load_field(path)


def test_load_refuses_a_huge_dim_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "huge.field"
    path.write_bytes(b"delta 0.25\nk_max 2\ndim 100000000\n" + _NODES)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated the node matrices of a refused header")

    monkeypatch.setattr(np, "fromfile", no_allocation)
    with pytest.raises(ValueError, match="huge.field: not a field"):
        load_field(path)


def test_load_of_a_directory_is_an_os_error_that_names_it(tmp_path):
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "meta.txt").write_text("delta 0.25\nk_max 2\ndim 4\n")
    with pytest.raises(OSError) as refused:
        load_field(tmp_path / "old")
    assert str(tmp_path / "old") in str(refused.value)


# parts that a float format could lose: signed zeros, subnormals, extremes
_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@given(
    delta=st.floats(min_value=1e-300, max_value=1e3),
    k_max=st.integers(1, 4),
    dim=st.sampled_from([8, 16]),
    seed=st.integers(0, 2**32 - 1),
    placed=st.lists(st.tuples(st.integers(0, 2**16), _PARTS, _PARTS), max_size=6),
)
def test_save_load_round_trip_is_bit_exact(delta, k_max, dim, seed, placed):
    tgrid = TGrid(delta, k_max)
    rng = np.random.default_rng(seed)
    shape = (tgrid.n_nodes, dim, dim)
    mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for pos, re, im in placed:
        mats.flat[pos % mats.size] = complex(re, im)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.field")
        save_field(OperatorField(tgrid, mats), path)
        back = load_field(path)
    assert back.tgrid == tgrid
    assert back.mats.tobytes() == mats.tobytes()
