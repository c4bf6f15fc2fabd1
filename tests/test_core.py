import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csisplit.simulate import SimConfig, grid_positions

from csisplit import core
from csisplit.core import (
    CsiFileError,
    CsiMatrix,
    Direction,
    NodeGeometry,
    from_real_view,
    nearest_neighbors,
    neighbor_pairs,
    read_csi_file,
    to_real_view,
    write_csi_file,
)

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e12
)


def test_real_view_single_entry():
    csi = CsiMatrix(np.array([[3.0 + 4.0j]]))
    assert np.array_equal(to_real_view(csi), np.array([[3.0], [4.0]]))


def test_real_view_all_real_has_zero_lower_half():
    csi = CsiMatrix(np.arange(6.0).reshape(2, 3) + 1.0)
    view = to_real_view(csi)
    assert np.all(view[2:] == 0.0)
    assert np.array_equal(view[:2], csi.data.real)


def test_real_view_round_trip_bit_identical():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    csi = CsiMatrix(data, direction=Direction.DOWNLINK, snr_db=12.5)
    back = from_real_view(to_real_view(csi), direction=csi.direction, snr_db=csi.snr_db)
    assert np.array_equal(back.data, csi.data)
    assert back.direction == Direction.DOWNLINK and back.snr_db == 12.5


def test_real_view_is_linear():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    b = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    lhs = to_real_view(CsiMatrix(a + b))
    rhs = to_real_view(CsiMatrix(a)) + to_real_view(CsiMatrix(b))
    assert np.array_equal(lhs, rhs)


def test_csi_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        CsiMatrix(np.array([[np.nan + 0j]]))
    with pytest.raises(ValueError):
        CsiMatrix(np.array([[1.0 + 1j * np.inf]]))


def test_csi_matrix_is_immutable():
    csi = CsiMatrix(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        csi.data[0, 0] = 0.0


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------


def _brute_force_neighbors(positions, node, k):
    pos = np.asarray(positions, dtype=float)
    dists = np.linalg.norm(pos - pos[node], axis=1)
    order = sorted((d, i) for i, d in enumerate(dists) if i != node)
    return [i for _, i in order[:k]]


def test_neighbors_collinear_symmetry():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert set(nearest_neighbors(geom, 1, 2)) == {0, 2}


def _unit_grid(side=20):
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    return NodeGeometry(positions=np.column_stack([xs.ravel(), ys.ravel()]))


def test_neighbors_interior_grid_node_matches_brute_force():
    geom = _unit_grid()
    node = 10 * 20 + 10  # interior
    got = list(nearest_neighbors(geom, node, 8))
    expected = _brute_force_neighbors(geom.positions, node, 8)
    assert got == expected
    # the 8 surrounding cells of an interior node
    row, col = divmod(node, 20)
    surround = {r * 20 + c for r in (row - 1, row, row + 1) for c in (col - 1, col, col + 1)} - {node}
    assert set(got) == surround


def test_neighbors_corner_matches_brute_force():
    geom = _unit_grid()
    got = list(nearest_neighbors(geom, 0, 3))
    assert got == _brute_force_neighbors(geom.positions, 0, 3)
    assert set(got) == {1, 20, 21}  # two edge-adjacent plus the diagonal


def test_neighbors_tie_break_by_index():
    # four equidistant neighbors around the center
    geom = NodeGeometry(
        positions=np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    )
    assert list(nearest_neighbors(geom, 0, 4)) == [1, 2, 3, 4]


def test_neighbors_insufficient_nodes():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="insufficient nodes"):
        nearest_neighbors(geom, 0, 2)


def test_geometry_rejects_duplicate_positions():
    with pytest.raises(ValueError, match="distinct"):
        NodeGeometry(positions=np.array([[0.0, 0.0], [0.0, 0.0]]))


def test_geometry_rejects_duplicates_in_different_row_blocks():
    n = 600
    assert core._block_rows(n) < n - 1  # nodes 0 and n-1 are checked in different blocks
    positions = np.random.default_rng(3).uniform(size=(n, 2))
    NodeGeometry(positions=positions)
    positions[-1] = positions[0]
    with pytest.raises(ValueError, match="distinct"):
        NodeGeometry(positions=positions)


def test_geometry_rejects_a_3d_duplicate_and_a_signed_zero_duplicate():
    with pytest.raises(ValueError, match="distinct"):
        NodeGeometry(positions=np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError, match="distinct"):
        NodeGeometry(positions=np.array([[0.0, 1.0], [2.0, 3.0], [-0.0, 1.0]]))


def test_geometry_accepts_points_1e_12_apart():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1e-12, 0.0], [0.0, 1e-12]]), k=1)
    assert geom.neighbors(1)[:, 0].tolist() == [1, 0, 0]


def test_geometry_rejects_no_nodes():
    with pytest.raises(ValueError, match="n >= 1"):
        NodeGeometry(positions=np.zeros((0, 2)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_squared_distances_sum_the_coordinates_in_order(dim):
    rng = np.random.default_rng(5)
    a, b = rng.uniform(-50.0, 50.0, size=(7, dim)), rng.uniform(-50.0, 50.0, size=(5, dim))
    expected = np.zeros((7, 5))
    for c in range(dim):
        expected += (a[:, None, c] - b[None, :, c]) ** 2
    assert np.array_equal(core.squared_distances(a, b), expected)


def _per_node_neighbors(positions, k):
    """The per-node neighbor query the table replaced: one distance row per
    node, self at infinity, stable argsort."""
    rows = []
    for node in range(len(positions)):
        delta = positions - positions[node]
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        dist[node] = np.inf
        rows.append(np.argsort(dist, kind="stable")[:k])
    return np.array(rows)


@pytest.mark.parametrize(
    "positions",
    [
        grid_positions(SimConfig(grid_shape=(20, 20))),  # origin (100, -10): exact distance ties
        grid_positions(SimConfig(grid_shape=(40, 40))),
        np.random.default_rng(4).uniform(-50.0, 50.0, size=(300, 3)),
    ],
    ids=["grid20", "grid40", "random3d"],
)
def test_neighbor_table_matches_per_node_query(positions):
    geom = NodeGeometry(positions=positions)
    for k in (1, 8):
        assert np.array_equal(geom.neighbors(k), _per_node_neighbors(geom.positions, k))


def _stable_argsort_table(positions, k):
    """The table partial selection replaced: sqrt of the full squared
    distances, self at infinity, a stable argsort of every row."""
    dist = np.sqrt(core.squared_distances(positions, positions))
    np.fill_diagonal(dist, np.inf)
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


@pytest.mark.parametrize(
    "positions",
    [
        grid_positions(SimConfig(grid_shape=(20, 20))),
        grid_positions(SimConfig(grid_shape=(40, 40))),
        np.random.default_rng(6).uniform(-50.0, 50.0, size=(900, 3)),
        np.array([(x, y) for x in range(-6, 7) for y in range(-6, 7)], dtype=np.float64),  # rings of equal distances
    ],
    ids=["grid20", "grid40", "random3d", "lattice"],
)
@pytest.mark.parametrize("k", [1, 8, 30])
def test_neighbor_table_equals_the_stable_argsort_of_every_row(positions, k):
    table = NodeGeometry(positions=positions).neighbors(k)
    assert table.dtype == np.intp
    assert np.array_equal(table, _stable_argsort_table(positions, k))


def test_neighbor_table_is_cached_read_only_and_nested():
    geom = NodeGeometry(positions=grid_positions(SimConfig(grid_shape=(6, 7))))
    table = geom.neighbors(8)
    assert table.shape == (42, 8) and not table.flags.writeable
    assert geom.neighbors(8) is table
    assert np.array_equal(geom.neighbors(1), table[:, :1])
    assert list(nearest_neighbors(geom, 9, 8)) == table[9].tolist()
    assert neighbor_pairs(geom, 8) == [(i, j) for i in range(42) for j in table[i].tolist()]
    with pytest.raises(ValueError, match="insufficient nodes"):
        geom.neighbors(42)
    with pytest.raises(ValueError, match="k must be"):
        geom.neighbors(0)
    with pytest.raises(ValueError, match="out of range"):
        nearest_neighbors(geom, 42, 1)


def test_narrower_neighbor_table_is_served_from_a_cached_wider_one(monkeypatch):
    geom = NodeGeometry(positions=grid_positions(SimConfig(grid_shape=(6, 7))))
    wide = geom.neighbors(8)

    def forbidden(*_):
        raise AssertionError("a narrower table was built anew")

    monkeypatch.setattr(core, "squared_distances", forbidden)
    narrow = geom.neighbors(1)
    assert narrow.shape == (42, 1) and not narrow.flags.writeable
    assert np.array_equal(narrow, wide[:, :1])
    assert geom.neighbors(1) is narrow
    assert np.array_equal(geom.neighbors(3), _per_node_neighbors(geom.positions, 3))


def test_wider_neighbor_table_after_a_narrower_one_is_built():
    geom = NodeGeometry(positions=grid_positions(SimConfig(grid_shape=(6, 7))))
    narrow = geom.neighbors(2)
    wide = geom.neighbors(5)
    assert wide.shape == (42, 5)
    assert np.array_equal(wide, _per_node_neighbors(geom.positions, 5))
    assert np.array_equal(wide[:, :2], narrow)
    assert geom.neighbors(2) is narrow


def test_geometry_equality_and_hash_are_identity():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    a, b = NodeGeometry(positions), NodeGeometry(positions.copy())
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
    a.neighbors(1)
    assert 1 in a._tables and not b._tables  # the cache belongs to one object


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_file_round_trip_large(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((256, 400)) + 1j * rng.standard_normal((256, 400))
    csi = CsiMatrix(data, direction=Direction.UPLINK, snr_db=20.0)
    path = tmp_path / "big.csi"
    write_csi_file(csi, path)
    back = read_csi_file(path)
    assert np.array_equal(back.data, csi.data)
    assert back.direction == csi.direction and back.snr_db == 20.0


@settings(max_examples=25, deadline=None)
@given(
    arrays(np.complex128, st.tuples(st.integers(1, 6), st.integers(1, 5)), elements=finite_complex),
    st.sampled_from([None, -3.5, 0.0, 17.25, float("inf")]),
)
def test_file_round_trip_property(tmp_path_factory, data, snr):
    csi = CsiMatrix(data, snr_db=snr)
    path = tmp_path_factory.mktemp("csi") / "x.csi"
    write_csi_file(csi, path)
    back = read_csi_file(path)
    assert np.array_equal(back.data, csi.data)
    assert back.snr_db == snr


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.csi"
    write_csi_file(CsiMatrix(np.ones((1, 1), dtype=complex)), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CsiFileError, match="bad magic b'NOPE', expected b'CSI1'"):
        read_csi_file(path)


def test_empty_file_is_truncated_header(tmp_path):
    path = tmp_path / "empty.csi"
    path.write_bytes(b"")
    with pytest.raises(CsiFileError, match="truncated header: 0 bytes, need 21"):
        read_csi_file(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.csi"
    write_csi_file(CsiMatrix(np.ones((4, 4), dtype=complex)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CsiFileError, match="truncated payload: 269 bytes, need 277"):
        read_csi_file(path)


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.csi"
    write_csi_file(CsiMatrix(np.ones((1, 1), dtype=complex)), path)
    raw = bytearray(path.read_bytes())
    raw[4:12] = (2**31).to_bytes(4, "little") + (2**31).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(CsiFileError, match="unsupported dimensions m=2147483648, n=2147483648"):
        read_csi_file(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.csi"
    write_csi_file(CsiMatrix(np.ones((2, 2), dtype=complex)), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CsiFileError, match="trailing"):
        read_csi_file(path)


@pytest.mark.parametrize(
    "shape, edit, message",
    [
        ((1, 1), lambda raw: raw + bytes(1 << 20), "trailing bytes: 1048576 past end of payload"),
        ((4, 4), lambda raw: raw[:-8], "truncated payload: 269 bytes, need 277"),
    ],
    ids=["junk", "truncated"],
)
def test_size_mismatch_rejected_before_the_payload_is_read(tmp_path, monkeypatch, shape, edit, message):
    path = tmp_path / "bad.csi"
    write_csi_file(CsiMatrix(np.ones(shape, dtype=complex)), path)
    path.write_bytes(edit(path.read_bytes()))
    reads = []

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            raw = super().read(size)
            reads.append(len(raw))
            return raw

    monkeypatch.setattr(core, "open", lambda p, mode: CountingFile(p, mode.replace("b", "")), raising=False)
    with pytest.raises(CsiFileError, match=message):
        read_csi_file(path)
    assert sum(reads) <= 21  # the header alone
