"""Dense mirror-symmetric autoencoder with manual reverse-mode gradients.

Two training losses are supported: plain reconstruction MSE, and a
neighbor-residual dot-product loss that penalizes correlation between the
residual at a location and the residuals at its nearest neighbors. The dot
product alone admits a trivial zero-residual minimizer and is unbounded
below for anticorrelated residuals, so it is trained as a composite
``dot + mu * mse``. Anticorrelated residuals r and -r give
(2 mu - 1) * ||r||^2, so the composite is bounded below only for mu > 0.5,
and ``TrainConfig`` rejects any other mu for the e2 loss.

The dot-product model consumes pair samples: each training column is a
node's real-view vector concatenated with one neighbor's, one sample per
(node, neighbor) edge, which keeps the input width at twice the per-node
width.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .core import NodeGeometry

_ACT_CODES = {"linear": 0, "tanh": 1, "softplus": 2, "relu": 3}
_CODE_ACTS = {v: k for k, v in _ACT_CODES.items()}

WEIGHTS_MAGIC = b"AEW1"


class WeightsFileError(ValueError):
    """Malformed autoencoder weights file."""


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "softplus":
        return np.logaddexp(0.0, z)
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def _act_deriv(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "linear":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - a * a
    if name == "softplus":
        return expit(z)
    if name == "relu":
        return (z > 0.0).astype(np.float64)
    raise ValueError(f"unknown activation {name!r}")


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
        if any(a not in _ACT_CODES for a in acts):
            raise ValueError(f"activations must be among {sorted(_ACT_CODES)}")
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


def default_mlp_spec(input_dim: int, d_hat: int) -> MlpSpec:
    """Bow-tie architecture: input-100-50-20-code-20-50-100-input with
    tanh/softplus/tanh encoding, relu/softplus/tanh decoding, linear ends."""
    return MlpSpec(
        layer_dims=(input_dim, 100, 50, 20, d_hat, 20, 50, 100, input_dim),
        activations=("tanh", "softplus", "tanh", "linear", "relu", "softplus", "tanh", "linear"),
    )


Weights = list[tuple[np.ndarray, np.ndarray]]


def init_weights(spec: MlpSpec, rng: np.random.Generator) -> Weights:
    """Symmetric uniform init scaled by fan-in; zero biases."""
    weights = []
    for d_in, d_out in zip(spec.layer_dims[:-1], spec.layer_dims[1:]):
        bound = 1.0 / math.sqrt(d_in)
        weights.append((rng.uniform(-bound, bound, size=(d_out, d_in)), np.zeros(d_out)))
    return weights


def _forward_cache(spec: MlpSpec, weights: Weights, x: np.ndarray):
    a = [np.asarray(x, dtype=np.float64)]
    zs = []
    for (w, b), act in zip(weights, spec.activations):
        z = w @ a[-1] + b[:, None]
        zs.append(z)
        a.append(_act(act, z))
    return a, zs


def forward(spec: MlpSpec, weights: Weights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run the network; returns (reconstruction, bottleneck code).

    ``x`` is one column vector or a (dim, batch) matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[:, None]
    if x.shape[0] != spec.input_dim:
        raise ValueError(f"input dim {x.shape[0]} != spec input {spec.input_dim}")
    a, _ = _forward_cache(spec, weights, x)
    y, code = a[-1], a[spec.bottleneck]
    return (y[:, 0], code[:, 0]) if single else (y, code)


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
    spec: MlpSpec, weights: Weights, batch: np.ndarray, loss: str = "e1", mu: float = 0.0
) -> tuple[list[tuple[np.ndarray, np.ndarray]], float]:
    """Exact reverse-mode gradients of the batch loss for every W and b."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    a, zs = _forward_cache(spec, weights, x)
    value, delta = _loss_grad(x, a[-1], loss, mu)
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        delta = delta * _act_deriv(spec.activations[layer], zs[layer], a[layer + 1])
        grads[layer] = (delta @ a[layer].T, delta.sum(axis=1))
        if layer > 0:
            delta = weights[layer][0].T @ delta
    return grads, value


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "e1"  # "e1" (mse) or "e2" (neighbor dot-product composite)
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 200
    seed: int = 0
    mode: str = "centralized"  # or "localized"
    mu: float = 1.0  # reconstruction weight inside the e2 composite; must exceed 0.5 or the
    # loss is unbounded below (anticorrelated residuals give (2 mu - 1) * ||r||^2)

    def __post_init__(self):
        if self.loss not in ("e1", "e2"):
            raise ValueError("loss must be 'e1' or 'e2'")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ValueError("invalid optimizer parameters")
        if self.mode not in ("centralized", "localized"):
            raise ValueError("mode must be 'centralized' or 'localized'")
        if self.loss == "e2" and not (math.isfinite(self.mu) and self.mu > 0.5):
            raise ValueError(f"mu must be finite and above 0.5 for the e2 loss, got {self.mu}")


@dataclass(frozen=True)
class TrainedModel:
    spec: MlpSpec
    weights: Weights
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
    """
    data = np.asarray(dataset, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] != spec.input_dim:
        raise ValueError(f"dataset must be ({spec.input_dim}, samples), got {data.shape}")
    scale = float(np.sqrt(np.mean(data * data)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    data = data / scale

    rng = np.random.default_rng(cfg.seed)
    weights = init_weights(spec, rng)
    adam_m = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    adam_v = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    history = []
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(cfg.epochs):
            order = rng.permutation(data.shape[1])
            epoch_losses = []
            for start in range(0, order.size, cfg.batch_size):
                batch = data[:, order[start : start + cfg.batch_size]]
                grads, value = gradient(spec, weights, batch, loss=cfg.loss, mu=cfg.mu)
                if not math.isfinite(value):
                    raise RuntimeError(f"non-finite loss {value} at epoch {epoch}, batch offset {start}")
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
            mean_loss = float(np.mean(epoch_losses))
            history.append(mean_loss)
            if log_fh:
                log_fh.write(json.dumps({"epoch": epoch, "loss": mean_loss}) + "\n")
    finally:
        if log_fh:
            log_fh.close()
    return TrainedModel(spec=spec, weights=weights, input_scale=scale, history=history)


@dataclass(frozen=True)
class AeDecomposition:
    predictable: np.ndarray
    unpredictable: np.ndarray


def decompose_ae(model: TrainedModel, view: np.ndarray) -> AeDecomposition:
    """Per-node reconstruction and residual; predictable + unpredictable
    equals the input exactly by construction."""
    view = np.asarray(view, dtype=np.float64)
    y, _ = forward(model.spec, model.weights, view / model.input_scale)
    predictable = model.input_scale * y
    return AeDecomposition(predictable=predictable, unpredictable=view - predictable)


def build_pair_dataset(view: np.ndarray, geom: NodeGeometry, k: int = 8) -> np.ndarray:
    """Stack (node, neighbor) column pairs for the dot-product model: one
    sample per edge, width = 2 x per-node width. Column i * k + r pairs node
    i with its rank-r neighbor, in the order of ``core.neighbor_pairs``."""
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2 or view.shape[1] != geom.n:
        raise ValueError(f"view must have one column per node ({geom.n}), got shape {view.shape}")
    table = geom.neighbors(k)
    half = view.shape[0]
    data = np.empty((2 * half, table.size))
    # mode="clip": with out=, the default mode="raise" copies through a
    # hidden buffer; the indices are always in range
    np.take(view, np.repeat(np.arange(geom.n), k), axis=1, out=data[:half], mode="clip")
    np.take(view, table.ravel(), axis=1, out=data[half:], mode="clip")
    return data


def decompose_ae_pairs(
    model: TrainedModel, view: np.ndarray, geom: NodeGeometry, k: int = 8, data: np.ndarray | None = None
) -> AeDecomposition:
    """Residuals for a pair-input model: each node's reconstruction is the
    average of the first-half outputs over its (node, neighbor) samples.
    ``data``, when given, is ``build_pair_dataset(view, geom, k)``, already
    built (for training), and is used instead of building it again; the
    caller hands it over, since it is scaled in place."""
    view = np.asarray(view, dtype=np.float64)
    if data is None:
        data = build_pair_dataset(view, geom, k)
    data /= model.input_scale  # in place: no second pair-sized array
    y, _ = forward(model.spec, model.weights, data)
    half = view.shape[0]
    predictable = np.zeros_like(view)
    for rank in range(k):  # rank by rank keeps the summation order of a per-pair loop
        predictable += y[:half, rank::k]
    predictable *= model.input_scale / k
    return AeDecomposition(predictable=predictable, unpredictable=view - predictable)


def train_for_mode(
    spec: MlpSpec, cfg: TrainConfig, ul_dataset: np.ndarray, dl_dataset: np.ndarray | None
) -> tuple[TrainedModel, TrainedModel]:
    """Centralized: one model fitted on the uplink data serves both sides,
    and ``dl_dataset`` is not read (it may be None). Localized: each side
    trains on its own observations, the uplink first, each with its own
    seed spawned from ``cfg.seed``."""
    if cfg.mode == "centralized":
        model = train(ul_dataset, spec, cfg)
        return model, model
    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    cfg_ul = dataclasses.replace(cfg, seed=int(seeds[0].generate_state(1)[0]))
    cfg_dl = dataclasses.replace(cfg, seed=int(seeds[1].generate_state(1)[0]))
    return train(ul_dataset, spec, cfg_ul), train(dl_dataset, spec, cfg_dl)


# ---------------------------------------------------------------------------
# weight persistence
# ---------------------------------------------------------------------------


def write_weights(model: TrainedModel, path) -> None:
    """Versioned binary weights: magic | u32 version | architecture echo |
    f64 input scale | row-major f64 W then b per layer."""
    spec = model.spec
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", 1, len(spec.layer_dims)))
        fh.write(struct.pack(f"<{len(spec.layer_dims)}I", *spec.layer_dims))
        fh.write(struct.pack(f"<{len(spec.activations)}B", *(_ACT_CODES[a] for a in spec.activations)))
        fh.write(struct.pack("<d", model.input_scale))
        for w, b in model.weights:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def read_weights(path) -> TrainedModel:
    """Read the format of :func:`write_weights`. Every count and code is
    checked against the file before anything is allocated from it; any
    malformed file raises :class:`WeightsFileError`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12:
        raise WeightsFileError(f"truncated header: {len(raw)} bytes, need at least 12")
    if raw[:4] != WEIGHTS_MAGIC:
        raise WeightsFileError(f"bad weights magic in {path}")
    version, n_dims = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise WeightsFileError(f"unsupported weights version {version}")
    header = 12 + 4 * n_dims + (n_dims - 1) + 8
    if n_dims < 2 or header > len(raw):
        raise WeightsFileError(f"{n_dims} layer dims do not fit a {len(raw)}-byte file")
    dims = struct.unpack_from(f"<{n_dims}I", raw, 12)
    codes = raw[12 + 4 * n_dims : header - 8]
    if any(c not in _CODE_ACTS for c in codes):
        raise WeightsFileError(f"unknown activation code among {sorted(set(codes))}")
    (scale,) = struct.unpack_from("<d", raw, header - 8)
    if not (math.isfinite(scale) and scale > 0):
        raise WeightsFileError(f"input scale {scale} is not positive and finite")
    expected = header + 8 * sum(d_out * (d_in + 1) for d_in, d_out in zip(dims[:-1], dims[1:]))
    if expected != len(raw):
        raise WeightsFileError(f"payload needs {expected} bytes in all, file has {len(raw)}")
    try:
        spec = MlpSpec(layer_dims=dims, activations=tuple(_CODE_ACTS[c] for c in codes))
    except ValueError as exc:
        raise WeightsFileError(f"invalid architecture: {exc}") from exc
    weights = []
    off = header
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = np.frombuffer(raw, dtype="<f8", count=d_out * d_in, offset=off).reshape(d_out, d_in).copy()
        off += 8 * d_out * d_in
        b = np.frombuffer(raw, dtype="<f8", count=d_out, offset=off).copy()
        off += 8 * d_out
        weights.append((w, b))
    return TrainedModel(spec=spec, weights=weights, input_scale=scale, history=[])
