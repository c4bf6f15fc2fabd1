import math
import tracemalloc

import numpy as np
import pytest

from csisplit import autoencoder, pipeline
from csisplit.autoencoder import (
    TrainConfig,
    TrainedModel,
    build_pair_dataset,
    decompose_ae_pairs,
    default_mlp_spec,
    forward,
    gradient,
    init_params,
    train,
)
from csisplit.core import from_real_view, nearest_neighbors, to_real_view
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
    y, _ = forward(model.spec, model.params, data / model.input_scale)
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
    # the column order the docstring names: column i * k + r is node i's rank-r neighbor
    assert want_pairs == [(col // k, int(geom.neighbors(k)[col // k, col % k])) for col in range(geom.n * k)]


@pytest.mark.parametrize("k", [1, 4])
def test_pair_decomposition_equals_per_pair_loop(small_view, k):
    view, geom = small_view
    spec = default_mlp_spec(2 * view.shape[0], 2)
    model = TrainedModel(spec=spec, params=init_params(spec, np.random.default_rng(8)), input_scale=1.7)
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



def test_train_refuses_to_return_parameters_the_last_update_overflowed(small_view):
    view, _ = small_view
    spec = default_mlp_spec(view.shape[0], 2)
    cfg = TrainConfig(learning_rate=1e308, batch_size=view.shape[1], epochs=1)  # one batch: the loss is finite
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="not finite after training"):
        train(view, spec, cfg)

# ---------------------------------------------------------------------------
# training: the flat-vector Adam against the per-layer loop it replaced
# ---------------------------------------------------------------------------


def _per_layer_gradient(spec, weights, x, loss, mu):
    """Backprop with a fresh array per layer and the linear layers' ones_like
    multiply."""
    a, zs = autoencoder._forward_cache(spec, weights, x)
    value, delta = autoencoder._loss_grad(x, a[-1], loss, mu)
    grads = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        deriv = autoencoder.ACTIVATIONS[spec.activations[layer]][1]
        delta = delta * (np.ones_like(zs[layer]) if deriv is None else deriv(zs[layer], a[layer + 1]))
        grads[layer] = (delta @ a[layer].T, delta.sum(axis=1))
        if layer > 0:
            delta = weights[layer][0].T @ delta
    return grads, value


def _per_layer_train(dataset, spec, cfg):
    """The per-layer Adam loop: (weights, history)."""
    data = np.asarray(dataset, dtype=np.float64)
    scale = float(np.sqrt(np.mean(data * data)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    data = data / scale
    rng = np.random.default_rng(cfg.seed)
    weights = autoencoder._layer_views(spec, init_params(spec, rng))
    adam_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    adam_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(data.shape[1])
        epoch_losses = []
        for start in range(0, order.size, cfg.batch_size):
            batch = data[:, order[start : start + cfg.batch_size]]
            grads, value = _per_layer_gradient(spec, weights, batch, cfg.loss, cfg.mu)
            epoch_losses.append(value)
            step += 1
            corr1 = 1.0 - beta1**step
            corr2 = 1.0 - beta2**step
            for layer, (gw, gb) in enumerate(grads):
                mw, mb = adam_m[layer]
                vw, vb = adam_v[layer]
                mw[:] = beta1 * mw + (1 - beta1) * gw
                mb[:] = beta1 * mb + (1 - beta1) * gb
                vw[:] = beta2 * vw + (1 - beta2) * gw * gw
                vb[:] = beta2 * vb + (1 - beta2) * gb * gb
                w, b = weights[layer]
                w -= cfg.learning_rate * (mw / corr1) / (np.sqrt(vw / corr2) + eps)
                b -= cfg.learning_rate * (mb / corr1) / (np.sqrt(vb / corr2) + eps)
        history.append(float(np.mean(epoch_losses)))
    return weights, history


def _assert_same_model(model, weights, history):
    assert model.history == history
    layers = autoencoder._layer_views(model.spec, model.params)
    assert len(layers) == len(weights)
    for (w, b), (w0, b0) in zip(layers, weights):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)


@pytest.mark.parametrize("loss", ["e1", "e2"])
def test_train_equals_the_per_layer_loop_bit_for_bit(small_view, loss):
    view, geom = small_view
    data = view if loss == "e1" else build_pair_dataset(view, geom, 3)
    assert data.shape[1] % 7 != 0  # a short last batch
    spec = default_mlp_spec(data.shape[0], 2)
    cfg = TrainConfig(loss=loss, batch_size=7, epochs=3, seed=5, learning_rate=3e-3)
    _assert_same_model(train(data, spec, cfg), *_per_layer_train(data, spec, cfg))


def test_localized_ae2_trains_each_side_as_the_per_layer_loop(small_view, monkeypatch):
    view, geom = small_view
    dl_view = to_real_view(simulate(SimConfig(grid_shape=(5, 6), m=8, seed=7)).downlink)
    models = []

    def recording_train(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(pipeline, "train", recording_train)
    cfg = pipeline.PipelineConfig(
        sim=SimConfig(seed=11),
        method="ae2",
        ae_mode="localized",
        d_hat=2,
        k_neighbors=2,
        ae_batch_size=16,
        ae_epochs=2,
        seed=11,
    )
    pipeline.apply_method(cfg, from_real_view(view), from_real_view(dl_view), geom)
    # the uplink's model first, each side with its own seed spawned from the pipeline's
    seeds = np.random.SeedSequence(11).spawn(2)
    spec = default_mlp_spec(2 * view.shape[0], 2)
    assert len(models) == 2
    for model, side, seq in zip(models, (view, dl_view), seeds):
        assert model.spec == spec
        direct = TrainConfig(loss="e2", batch_size=16, epochs=2, seed=int(seq.generate_state(1)[0]))
        _assert_same_model(model, *_per_layer_train(_per_pair_dataset(side, geom, 2)[0], spec, direct))


def test_gradient_equals_the_per_layer_backprop(small_view):
    view, _ = small_view
    spec = default_mlp_spec(view.shape[0], 2)
    params = init_params(spec, np.random.default_rng(4))
    grad, value = gradient(spec, params, view, loss="e1")
    want, want_value = _per_layer_gradient(spec, autoencoder._layer_views(spec, params), view, "e1", 0.0)
    assert value == want_value
    for (gw, gb), (ww, wb) in zip(autoencoder._layer_views(spec, grad), want):
        assert np.array_equal(gw, ww) and np.array_equal(gb, wb)


def test_forward_equals_the_cached_pass(small_view):
    view, _ = small_view
    spec = default_mlp_spec(view.shape[0], 2)
    params = init_params(spec, np.random.default_rng(5))
    y, code = forward(spec, params, view)
    a, _ = autoencoder._forward_cache(spec, autoencoder._layer_views(spec, params), view)
    assert np.array_equal(y, a[-1]) and np.array_equal(code, a[spec.bottleneck])


def test_forward_holds_only_the_running_activation():
    # a pair-width input (m=64) over 4,000 columns: every layer's input and
    # pre-activation together come to about 4.7 times the input's bytes; the
    # bound of twice them is fixed in advance
    spec = default_mlp_spec(256, 2)
    params = init_params(spec, np.random.default_rng(6))
    x = np.random.default_rng(7).standard_normal((256, 4000))
    tracemalloc.start()
    try:
        forward(spec, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_train_config_rejects_a_learning_rate_that_is_not_finite_and_positive(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


def test_train_scales_an_all_zero_dataset_by_one():
    # its RMS is 0, which no input can be divided by
    model = train(np.zeros((4, 10)), default_mlp_spec(4, 1), TrainConfig(epochs=2, batch_size=4))
    assert model.input_scale == 1.0
    assert np.all(np.isfinite(model.params)) and math.isfinite(model.final_loss)


@pytest.mark.parametrize("loss, width, mu", [("e1", 6, 0.0), ("e2", 8, 1.0)])
def test_gradient_matches_central_differences(loss, width, mu):
    rng = np.random.default_rng(0)
    spec = default_mlp_spec(width, 2)
    # nonzero biases, so that no unit starts exactly at a relu kink
    params = init_params(spec, rng)
    weights = autoencoder._layer_views(spec, params)
    for _, b in weights:
        b[:] = 0.1 * rng.standard_normal(b.shape)
    batch = rng.standard_normal((width, 16))
    grad, _ = gradient(spec, params, batch, loss=loss, mu=mu)
    grads = autoencoder._layer_views(spec, grad)
    h = 1e-6
    for layer, (w, b) in enumerate(weights):
        for param, grad in ((w, grads[layer][0]), (b, grads[layer][1])):
            flat = param.reshape(-1)  # a view: writes move the network's parameter
            idx = rng.choice(flat.size, size=min(flat.size, 12), replace=False)
            numeric = np.empty(idx.size)
            for t, i in enumerate(idx):
                old = flat[i]
                flat[i] = old + h
                up = gradient(spec, params, batch, loss=loss, mu=mu)[1]
                flat[i] = old - h
                down = gradient(spec, params, batch, loss=loss, mu=mu)[1]
                flat[i] = old
                numeric[t] = (up - down) / (2 * h)
            exact = grad.reshape(-1)[idx]
            scale = max(np.linalg.norm(exact), np.linalg.norm(numeric))
            assert scale > 0, (layer, param.shape)
            assert np.linalg.norm(numeric - exact) / scale < 1e-3, (layer, param.shape)
