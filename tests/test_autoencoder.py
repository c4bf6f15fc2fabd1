import math

import numpy as np
import pytest

from csisplit.autoencoder import (
    TrainConfig,
    TrainedModel,
    build_pair_dataset,
    decompose_ae_pairs,
    default_mlp_spec,
    forward,
    init_weights,
)
from csisplit.core import NodeGeometry, nearest_neighbors, to_real_view
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
    data, pairs = build_pair_dataset(view, geom, k)
    want_data, want_pairs = _per_pair_dataset(view, geom, k)
    assert np.array_equal(data, want_data)
    assert pairs == want_pairs


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
