import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisplit.autoencoder import (
    WEIGHTS_MAGIC,
    TrainConfig,
    TrainedModel,
    WeightsFileError,
    build_pair_dataset,
    decompose_ae_pairs,
    default_mlp_spec,
    forward,
    init_weights,
    read_weights,
    write_weights,
)
from csisplit.core import NodeGeometry, nearest_neighbors, neighbor_pairs, to_real_view
from csisplit.simulate import SimConfig, simulate


def _per_pair_dataset(view, geom, k):
    """The per-pair loop the table gather replaced."""
    pairs = [(i, int(j)) for i in range(geom.n) for j in nearest_neighbors(geom, i, k)]
    data = np.empty((2 * view.shape[0], len(pairs)))
    for col, (i, j) in enumerate(pairs):
        data[: view.shape[0], col] = view[:, i]
        data[view.shape[0] :, col] = view[:, j]
    return data, pairs


def _per_pair_decomposition(model, view, geom, k):
    """The per-pair accumulation the rank-wise sum replaced."""
    data, pairs = _per_pair_dataset(view, geom, k)
    y, _ = forward(model.spec, model.weights, data / model.input_scale)
    half = view.shape[0]
    predictable = np.zeros_like(view)
    counts = np.zeros(view.shape[1])
    for col, (i, _) in enumerate(pairs):
        predictable[:, i] += y[:half, col]
        counts[i] += 1
    predictable *= model.input_scale / counts[None, :]
    return predictable, view - predictable


@pytest.fixture(scope="module")
def small_view():
    out = simulate(SimConfig(grid_shape=(5, 6), m=8, seed=7))
    return to_real_view(out.uplink), out.geometry


@pytest.mark.parametrize("k", [1, 3, 8])
def test_pair_dataset_equals_per_pair_loop(small_view, k):
    view, geom = small_view
    data = build_pair_dataset(view, geom, k)
    want_data, want_pairs = _per_pair_dataset(view, geom, k)
    assert np.array_equal(data, want_data)
    assert neighbor_pairs(geom, k) == want_pairs  # the column order the docstring names


@pytest.mark.parametrize("k", [1, 4])
def test_pair_decomposition_equals_per_pair_loop(small_view, k):
    view, geom = small_view
    spec = default_mlp_spec(2 * view.shape[0], 2)
    model = TrainedModel(spec=spec, weights=init_weights(spec, np.random.default_rng(8)), input_scale=1.7)
    dec = decompose_ae_pairs(model, view, geom, k)
    predictable, unpredictable = _per_pair_decomposition(model, view, geom, k)
    assert np.array_equal(dec.predictable, predictable)
    assert np.array_equal(dec.unpredictable, unpredictable)


def test_pair_dataset_needs_one_column_per_node(small_view):
    view, geom = small_view
    with pytest.raises(ValueError, match="one column per node"):
        build_pair_dataset(view[:, :-1], geom, 2)


@pytest.mark.parametrize("mu", [0.5, 0.0, -1.0, math.nan, math.inf])
def test_e2_loss_rejects_mu_where_it_is_unbounded_below(mu):
    with pytest.raises(ValueError, match="mu"):
        TrainConfig(loss="e2", mu=mu)
    TrainConfig(loss="e1", mu=mu)  # the e1 loss does not use mu
    TrainConfig(loss="e2", mu=0.51)


# ---------------------------------------------------------------------------
# weights file
# ---------------------------------------------------------------------------


def _weights_bytes(tmp_path, input_dim=6, d_hat=2, seed=9):
    spec = default_mlp_spec(input_dim, d_hat)
    model = TrainedModel(spec=spec, weights=init_weights(spec, np.random.default_rng(seed)), input_scale=0.75)
    path = tmp_path / "model.weights"
    write_weights(model, path)
    return model, path.read_bytes()


def test_weights_round_trip(tmp_path):
    model, _ = _weights_bytes(tmp_path)
    back = read_weights(tmp_path / "model.weights")
    assert back.spec == model.spec and back.input_scale == model.input_scale
    for (w, b), (w2, b2) in zip(model.weights, back.weights):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)


def _header(n_dims, dims, codes, scale=1.0):
    return (
        WEIGHTS_MAGIC
        + struct.pack("<II", 1, n_dims)
        + struct.pack(f"<{len(dims)}I", *dims)
        + bytes(codes)
        + struct.pack("<d", scale)
    )


@pytest.mark.parametrize(
    "raw, match",
    [
        (b"", "truncated header"),
        (WEIGHTS_MAGIC + b"\x01\x00", "truncated header"),
        (b"NOPE" + bytes(8), "magic"),
        (WEIGHTS_MAGIC + struct.pack("<II", 2, 2), "version"),
        (_header(0, (), ()), "layer dims"),
        (_header(1, (3,), ()), "layer dims"),
        (WEIGHTS_MAGIC + struct.pack("<II", 1, 2**32 - 1) + bytes(64), "layer dims"),
        (_header(2, (2, 2), (9,)), "activation code"),
        (_header(2, (2, 2), (0,), scale=math.nan), "scale"),
        (_header(2, (2, 2), (0,), scale=-1.0), "scale"),
        (_header(2, (2, 2), (0,)) + bytes(8 * 6 - 1), "payload"),
        (_header(2, (2, 2), (0,)) + bytes(8 * 6 + 1), "payload"),
        (_header(2, (2**31, 2**31), (0,)), "payload"),
        (_header(2, (2, 3), (0,)) + bytes(8 * 9), "architecture"),
    ],
)
def test_bad_weights_raise_a_typed_error(tmp_path, raw, match):
    path = tmp_path / "bad.weights"
    path.write_bytes(raw)
    with pytest.raises(WeightsFileError, match=match):
        read_weights(path)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_weights_either_load_or_raise_a_typed_error(tmp_path_factory, data):
    directory = tmp_path_factory.mktemp("weights")
    _, raw = _weights_bytes(directory, input_dim=3, d_hat=1)
    raw = bytearray(raw)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, 40))  # the header and the start of the payload
        raw[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(raw)))
    path = directory / "fuzz.weights"
    path.write_bytes(bytes(raw[:cut]) + data.draw(st.binary(max_size=16)))
    try:
        model = read_weights(path)
    except WeightsFileError:
        return
    assert model.spec.input_dim == model.spec.layer_dims[-1]
