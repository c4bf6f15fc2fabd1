"""Dense mirror-symmetric autoencoder with manual reverse-mode gradients.

Two training losses are supported: plain reconstruction MSE, and a
neighbor-residual dot-product loss that penalizes correlation between the
residual at a location and the residuals at its nearest neighbors. The dot
product alone admits a trivial zero-residual minimizer and is unbounded
below for anticorrelated residuals, so it is trained as a composite
``dot + mu * mse``. Anticorrelated residuals r and -r give
(2 mu - 1) * ||r||^2, so the composite is bounded below only for mu > 0.5,
and ``TrainConfig`` rejects any other mu for the e2 loss.

``TrainConfig`` holds only what :func:`train` reads: the loss, mu, the
Adam step size, the batch size, the epochs and the seed. What a model
trains on, and whether one model serves both link directions, is the
caller's choice; ``pipeline.train_config`` and ``pipeline.fit_ae`` make
it from the pipeline's options.

The dot-product model consumes pair samples: each training column is a
node's real-view vector concatenated with one neighbor's, one sample per
(node, neighbor) edge, which keeps the input width at twice the per-node
width.

A model's parameters are one flat float64 vector, layer by layer the
row-major (d_out, d_in) weights W, then the d_out biases b.
``ACTIVATIONS`` maps each activation to (f(z), f'(z, a = f(z))). f' is
None for linear: backprop skips the product with ones, which is exact. The
softplus derivative is SciPy's ``expit``, the module's one SciPy function:
it is imported on the first softplus backprop, so a forward pass or a split
with a trained model never loads SciPy.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import Decomposition, NodeGeometry


@functools.cache
def _expit():
    """``scipy.special.expit``, imported on the first softplus backprop:
    scipy.special takes longer to load than csisplit."""
    from scipy.special import expit

    return expit


ACTIVATIONS = {
    "linear": (lambda z: z, None),
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "softplus": (lambda z: np.logaddexp(0.0, z), lambda z, a: _expit()(z)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(np.float64)),
}

@dataclass(frozen=True)
class MlpSpec:
    layer_dims: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.layer_dims)
        acts = tuple(self.activations)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("need at least two positive layer dims")
        if len(acts) != len(dims) - 1:
            raise ValueError("need one activation per weight layer")
        if any(a not in ACTIVATIONS for a in acts):
            raise ValueError(f"activations must be among {list(ACTIVATIONS)}")
        if dims[0] != dims[-1]:
            raise ValueError("input and output widths must match")
        if any(dims[i] != dims[-1 - i] for i in range(len(dims) // 2)):
            raise ValueError("encoder/decoder widths must mirror around the bottleneck")
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "activations", acts)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def bottleneck(self) -> int:
        return len(self.layer_dims) // 2

    @property
    def n_params(self) -> int:
        return sum(d_out * (d_in + 1) for d_in, d_out in zip(self.layer_dims[:-1], self.layer_dims[1:]))


def default_mlp_spec(input_dim: int, d_hat: int) -> MlpSpec:
    """Bow-tie architecture: input-100-50-20-code-20-50-100-input with
    tanh/softplus/tanh encoding, relu/softplus/tanh decoding, linear ends."""
    return MlpSpec(
        layer_dims=(input_dim, 100, 50, 20, d_hat, 20, 50, 100, input_dim),
        activations=("tanh", "softplus", "tanh", "linear", "relu", "softplus", "tanh", "linear"),
    )


def init_params(spec: MlpSpec, rng: np.random.Generator) -> np.ndarray:
    """Symmetric uniform weights scaled by fan-in, layer by layer; zero biases."""
    params = np.zeros(spec.n_params)
    for w, _ in _layer_views(spec, params):
        bound = 1.0 / math.sqrt(w.shape[1])
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _layer_views(spec: MlpSpec, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (W, b) as views into ``flat``."""
    views, off = [], 0
    for d_in, d_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        w = flat[off : off + d_out * d_in].reshape(d_out, d_in)
        off += d_out * d_in
        views.append((w, flat[off : off + d_out]))
        off += d_out
    return views


def _forward_cache(spec: MlpSpec, layers: list, x: np.ndarray):
    a = [np.asarray(x, dtype=np.float64)]
    zs = []
    for (w, b), act in zip(layers, spec.activations):
        z = w @ a[-1] + b[:, None]
        zs.append(z)
        a.append(ACTIVATIONS[act][0](z))
    return a, zs


def forward(spec: MlpSpec, params: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reconstruction, bottleneck code) of a (dim, batch) input matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != spec.input_dim:
        raise ValueError(f"input must be ({spec.input_dim}, batch), got shape {x.shape}")
    code = x
    for layer, ((w, b), act) in enumerate(zip(_layer_views(spec, params), spec.activations), 1):
        z = w @ x  # only the running activation and the code stay alive
        z += b[:, None]
        x = ACTIVATIONS[act][0](z)
        if layer == spec.bottleneck:
            code = x
    return x, code


def _loss_grad(x: np.ndarray, y: np.ndarray, loss: str, mu: float) -> tuple[float, np.ndarray]:
    """Batch loss and dL/dy for the two training objectives."""
    batch = x.shape[1]
    r = x - y
    if loss == "e1":
        return float(np.mean(np.sum(r * r, axis=0))), -2.0 * r / batch
    if loss == "e2":
        half = x.shape[0] // 2
        if x.shape[0] % 2 != 0:
            raise ValueError("pair loss needs an even input width")
        r1, r2 = r[:half], r[half:]
        dot = float(np.mean(np.sum(r1 * r2, axis=0)))
        mse = float(np.mean(np.sum(r * r, axis=0)))
        dl_dr = np.vstack([r2, r1]) / batch + mu * 2.0 * r / batch
        return dot + mu * mse, -dl_dr
    raise ValueError(f"unknown loss {loss!r}")


def gradient(
    spec: MlpSpec, params: np.ndarray, batch: np.ndarray, loss: str = "e1", mu: float = 0.0
) -> tuple[np.ndarray, float]:
    """Exact reverse-mode gradient of the batch loss, laid out as ``params``."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    grad = np.empty_like(params, dtype=np.float64)
    return grad, _backprop(spec, _layer_views(spec, params), x, loss, mu, _layer_views(spec, grad))


def _backprop(spec: MlpSpec, layers: list, x: np.ndarray, loss: str, mu: float, grads: list) -> float:
    """Write each layer's (dL/dW, dL/db) into the views ``grads`` in place;
    returns the batch loss. ``x`` is a (dim, batch) float64 matrix."""
    a, zs = _forward_cache(spec, layers, x)
    value, delta = _loss_grad(x, a[-1], loss, mu)
    for layer in range(len(layers) - 1, -1, -1):
        deriv = ACTIVATIONS[spec.activations[layer]][1]
        if deriv is not None:
            delta = delta * deriv(zs[layer], a[layer + 1])
        gw, gb = grads[layer]
        np.matmul(delta, a[layer].T, out=gw)
        delta.sum(axis=1, out=gb)
        if layer > 0:
            delta = layers[layer][0].T @ delta
    return value


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "e1"  # "e1" (mse) or "e2" (neighbor dot-product composite)
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0
    mu: float = 1.0  # reconstruction weight inside the e2 composite; must exceed 0.5 or the
    # loss is unbounded below (anticorrelated residuals give (2 mu - 1) * ||r||^2)

    def __post_init__(self):
        if self.loss not in ("e1", "e2"):
            raise ValueError("loss must be 'e1' or 'e2'")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(f"epochs and batch_size must be at least 1, got {self.epochs} and {self.batch_size}")
        if self.loss == "e2" and not (math.isfinite(self.mu) and self.mu > 0.5):
            raise ValueError(f"mu must be finite and above 0.5 for the e2 loss, got {self.mu}")


@dataclass(frozen=True)
class TrainedModel:
    spec: MlpSpec
    params: np.ndarray  # flat float64, in the layout of the module docstring
    input_scale: float
    history: list[float] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1] if self.history else math.nan


def train(dataset: np.ndarray, spec: MlpSpec, cfg: TrainConfig, log_path=None) -> TrainedModel:
    """Seeded mini-batch Adam on the selected loss.

    ``dataset`` has one sample per column. Inputs are scaled to unit RMS
    internally (the scale is stored with the model); a non-finite loss
    aborts with the failing epoch in the message.

    The gradient is written into a second flat vector, and the update is
    Algorithm 1 of Kingma & Ba (ICLR 2015) done in place over the whole
    parameter vector, in the operation order of the per-layer form
    ``w -= lr * (m / corr1) / (sqrt(v / corr2) + eps)``, so its results
    are bit for bit those of the per-layer loop.
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != spec.input_dim:
        raise ValueError(f"dataset must be ({spec.input_dim}, samples), got {data.shape}")
    scale = float(np.sqrt(np.mean(data * data)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    samples = np.divide(data.T, scale, order="C")  # sample-major: a batch is contiguous rows
    n_samples = samples.shape[0]
    buf = np.empty((min(cfg.batch_size, n_samples), spec.input_dim))

    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    grad = np.empty_like(params)
    layers, grads = _layer_views(spec, params), _layer_views(spec, grad)  # once: views cost ~10 us each
    m, v, t1, t2 = (np.zeros_like(params) for _ in range(4))
    beta1, beta2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    step = 0
    history = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(n_samples)
            epoch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = np.take(samples, idx, axis=0, out=buf[: idx.size], mode="clip").T
                value = _backprop(spec, layers, batch, cfg.loss, cfg.mu, grads)
                if not math.isfinite(value):
                    raise RuntimeError(f"non-finite loss {value} at epoch {epoch}, batch offset {start}")
                epoch_losses.append(value)
                step += 1
                corr1 = 1.0 - beta1**step
                corr2 = 1.0 - beta2**step
                # m = beta1 * m + (1 - beta1) * g
                m *= beta1
                m += np.multiply(grad, 1 - beta1, out=t1)
                # v = beta2 * v + (1 - beta2) * g * g, left to right
                np.multiply(grad, 1 - beta2, out=t1)
                t1 *= grad
                v *= beta2
                v += t1
                # params -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
                np.divide(m, corr1, out=t1)
                t1 *= lr
                np.divide(v, corr2, out=t2)
                np.sqrt(t2, out=t2)
                t2 += eps
                t1 /= t2
                params -= t1
            mean_loss = float(np.mean(epoch_losses))
            history.append(mean_loss)
            if log_fh:
                log_fh.write(json.dumps({"epoch": epoch, "loss": mean_loss}) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    if not np.all(np.isfinite(params)):  # the last update can overflow after a finite loss
        raise RuntimeError(f"{np.count_nonzero(~np.isfinite(params))} parameters are not finite after training")
    return TrainedModel(spec=spec, params=params, input_scale=scale, history=history)


def decompose_ae(model: TrainedModel, view: np.ndarray) -> Decomposition:
    """Per-node reconstruction and residual; predictable + unpredictable
    equals the input exactly by construction."""
    view = np.asarray(view, dtype=np.float64)
    y, _ = forward(model.spec, model.params, view / model.input_scale)
    predictable = model.input_scale * y
    return Decomposition(predictable=predictable, unpredictable=view - predictable)


def build_pair_dataset(view: np.ndarray, geom: NodeGeometry, k: int) -> np.ndarray:
    """Stack (node, neighbor) column pairs for the dot-product model: one
    sample per edge, width = 2 x per-node width. Column i * k + r pairs node
    i with its rank-r neighbor ``geom.neighbors(k)[i, r]``: node-major,
    neighbors nearest first."""
    return _pair_columns(_node_view(view, geom), geom.neighbors(k), 0, geom.n)


def _node_view(view: np.ndarray, geom: NodeGeometry) -> np.ndarray:
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2 or view.shape[1] != geom.n:
        raise ValueError(f"view must have one column per node ({geom.n}), got shape {view.shape}")
    return view


def _pair_columns(view: np.ndarray, table: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The columns of :func:`build_pair_dataset` that pair nodes
    start..stop-1, whose neighbors are rows start..stop-1 of ``table``."""
    k = table.shape[1]
    half = view.shape[0]
    data = np.empty((2 * half, (stop - start) * k))
    # mode="clip": with out=, the default mode="raise" copies through a
    # hidden buffer; the indices are always in range
    np.take(view, np.repeat(np.arange(start, stop), k), axis=1, out=data[:half], mode="clip")
    np.take(view, table[start:stop].ravel(), axis=1, out=data[half:], mode="clip")
    return data


#: nodes per block of a pair model's split: 256 k columns, a multiple of 8
#: (the width of a BLAS column tile) for every k
PAIR_BLOCK_NODES = 256


def decompose_ae_pairs(model: TrainedModel, view: np.ndarray, geom: NodeGeometry, k: int) -> Decomposition:
    """Residuals for a pair-input model: each node's reconstruction is the
    average of the first-half outputs over its (node, neighbor) samples.
    The samples are gathered, scaled and passed forward one block of
    ``PAIR_BLOCK_NODES`` nodes at a time, so only one block's pair columns
    are alive. With one block (n <= 256) the split is bit for bit one
    forward pass over :func:`build_pair_dataset`; with more, it can differ
    from that pass in the last bit, as BLAS may choose another kernel for
    a block's matrix shape than for the whole set's."""
    view = _node_view(view, geom)
    table = geom.neighbors(k)
    half = view.shape[0]
    predictable = np.zeros_like(view)
    for start in range(0, geom.n, PAIR_BLOCK_NODES):
        stop = min(start + PAIR_BLOCK_NODES, geom.n)
        data = _pair_columns(view, table, start, stop)
        data /= model.input_scale  # in place: no second block-sized array
        y, _ = forward(model.spec, model.params, data)
        block = predictable[:, start:stop]
        for rank in range(k):  # rank by rank keeps the summation order of a per-pair loop
            block += y[:half, rank::k]
    predictable *= model.input_scale / k
    return Decomposition(predictable=predictable, unpredictable=view - predictable)
