"""End-to-end orchestration: dataset acquisition, decomposition method
dispatch, metric computation and self-describing JSON/CSV reports.

Reports embed the fully resolved configuration and seed so any run can be
reproduced byte for byte with the same numpy/scipy BLAS build at the same
BLAS thread count; another thread count changes the reductions' order and
so the last bits of the outputs.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import (
    MlpSpec,
    TrainConfig,
    TrainedModel,
    build_pair_dataset,
    decompose_ae,
    decompose_ae_pairs,
    default_mlp_spec,
    train,
)
from .core import (
    CsiMatrix,
    Decomposition,
    NodeGeometry,
    from_real_view,
    read_csi_file,
    to_real_view,
    view_to_complex,
    write_csi_file,
)
# avg_neighbor_cc is not called here any more, but the module keeps its
# binding: bench/tests/test_bench.py's
# test_tracer_replaces_every_binding_and_restores_them checks that the
# tracer re-binds every module's copy of the name, this one included
from .dependence import MIN_REPLICATES, avg_neighbor_cc, avg_neighbor_delta_bar, neighbor_cc  # noqa: F401
from .fingerprint import DEFAULT_BINS, avg_neighbor_tvd
from .kpca import KpcaDiagnostics, KpcaModel, decompose_kpca, fit_kpca
from .pca import DecompConfig, PcaBasis, decompose, fit_pca
from .simulate import SimConfig, SimOutput, simulate
from .skg import avg_mp

ALL_METRICS = ("tvd", "cc", "delta_bar", "mp")
#: centralized: one autoencoder, trained on the uplink, splits both sides;
#: localized: each side trains its own
AE_MODES = ("centralized", "localized")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


@contextlib.contextmanager
def _stage(name: str):
    """Raise any error of the block as the PipelineError of stage ``name``."""
    try:
        yield
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@dataclass(frozen=True)
class PipelineConfig:
    """One run's dataset, method and metric settings, checked when built
    (``dataclasses.replace`` too). Some checks hold only where a setting is
    read: d_hat >= 1 for kpca, ae1 and ae2; pca's band; the autoencoder
    settings for ae1 and ae2; k_neighbors >= 1 for tvd, cc and ae2; bins >= 1
    for tvd; the delta_bar settings; one seed for a simulated source.
    :func:`load_dataset` checks k_neighbors against the node count."""

    source: str = "simulate"  # "simulate" or "files"
    ul_path: str | None = None
    dl_path: str | None = None
    geometry_path: str | None = None
    sim: SimConfig = field(default_factory=SimConfig)
    method: str = "pca"
    d_hat: int = 1
    d1: int = 3
    d2: int = 20
    gamma: float | None = None
    sigma: float | None = None
    kernel_variant: str = "conjugate"
    ae_loss_mu: float = 1.0
    ae_epochs: int = 200
    ae_batch_size: int = 32
    ae_learning_rate: float = 1e-3
    ae_mode: str = "centralized"
    metrics: tuple[str, ...] = ALL_METRICS
    k_neighbors: int = 8
    bins: int = DEFAULT_BINS
    delta_pairs: int = 16
    delta_b: int = 1000  # permutations, where the permutation null runs (M < 131)
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.source not in ("simulate", "files"):
            raise ValueError("source must be 'simulate' or 'files'")
        if self.source == "simulate" and self.seed != self.sim.seed:
            raise ValueError(f"seed={self.seed} disagrees with sim.seed={self.sim.seed}; a simulated run has one seed")
        if self.source == "files" and (not self.ul_path or not self.dl_path or not self.geometry_path):
            raise ValueError("file source needs ul_path, dl_path and geometry_path")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.method in ("kpca", "ae1", "ae2") and self.d_hat < 1:
            raise ValueError(f"d_hat must be at least 1 for method {self.method}, got {self.d_hat}")
        if self.method == "pca":
            DecompConfig(self.d_hat, self.d1, self.d2)  # DecompConfig checks the ranks
        if self.method in ("ae1", "ae2"):
            if self.ae_mode not in AE_MODES:
                raise ValueError(f"ae_mode must be one of {AE_MODES}, got {self.ae_mode!r}")
            train_config(self)  # TrainConfig checks the training settings
        if not self.metrics:
            raise ValueError(f"metrics must name at least one of {ALL_METRICS}")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
        repeated = [m for i, m in enumerate(self.metrics) if m in self.metrics[:i]]
        if repeated:
            raise ValueError(f"metrics repeat {repeated[0]!r}")
        if self.reads_neighbors and self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be at least 1, got {self.k_neighbors}")
        if "tvd" in self.metrics and self.bins < 1:
            raise ValueError(f"bins must be at least 1, got {self.bins}")
        if "delta_bar" in self.metrics:
            if self.delta_pairs < 1:
                raise ValueError("delta_pairs must be at least 1")
            if self.delta_b < MIN_REPLICATES:
                raise ValueError(f"delta_b must be at least {MIN_REPLICATES} permutations")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("alpha must lie in (0, 1)")

    @property
    def reads_neighbors(self) -> bool:
        """Whether the run reads k_neighbors: the tvd and cc metrics and ae2's pairs do."""
        return "tvd" in self.metrics or "cc" in self.metrics or self.method == "ae2"


#: largest geometry file read, in bytes: 64 MiB, over a million nodes in 3-D
MAX_GEOMETRY_BYTES = 1 << 26


class GeometryError(ValueError):
    """Malformed geometry file: oversized, not UTF-8 JSON, nested too deeply
    to decode, or no valid geometry."""


def read_capped(path, limit: int, error: type[ValueError]) -> bytes:
    """The bytes of a file of at most ``limit`` bytes. Its size is checked
    with ``os.fstat`` before anything is read, and the read itself stops
    past ``limit``; a larger file raises ``error``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > limit:
            raise error(f"{path}: {size} bytes, more than the {limit}-byte limit")
        raw = fh.read(limit + 1)
    if len(raw) > limit:  # the file grew after fstat
        raise error(f"{path}: more than the {limit}-byte limit")
    return raw


def write_geometry(geom: NodeGeometry, path) -> None:
    obj = {"positions": geom.positions.tolist(), "k": geom.k}
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_geometry(path) -> NodeGeometry:
    """The geometry of a JSON file of at most ``MAX_GEOMETRY_BYTES``; a bad
    file raises a GeometryError, one that is not UTF-8 JSON naming it, one
    without a valid 'positions' key naming the key."""
    raw = read_capped(path, MAX_GEOMETRY_BYTES, GeometryError)
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # a ValueError: bad UTF-8 or JSON, or an int of over 4,300 digits
        raise GeometryError(f"{path}: not a UTF-8 JSON geometry file: {exc}") from exc
    if not isinstance(obj, dict) or "positions" not in obj:
        raise GeometryError("geometry must be a JSON object with a 'positions' key")
    try:
        positions = np.asarray(obj["positions"], dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:  # an OverflowError: an int beyond float64
        raise GeometryError(f"geometry 'positions' is not a numeric matrix: {exc}") from exc
    try:
        return NodeGeometry(positions=positions, k=obj.get("k", 8))
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc


def write_sim_output(out: SimOutput, directory) -> dict[str, str]:
    """Write uplink/downlink/truth CSI files plus the geometry sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "uplink": str(directory / "uplink.csi"),
        "downlink": str(directory / "downlink.csi"),
        "truth": str(directory / "truth.csi"),
        "geometry": str(directory / "geometry.json"),
    }
    write_csi_file(out.uplink, paths["uplink"])
    write_csi_file(out.downlink, paths["downlink"])
    write_csi_file(out.truth, paths["truth"])
    write_geometry(out.geometry, paths["geometry"])
    return paths


@dataclass(frozen=True)
class MethodOutput:
    fingerprint: np.ndarray  # (m, n) amplitude samples of the predictable part
    unpred_ul: np.ndarray  # (2m, n) real view
    unpred_dl: np.ndarray
    details: dict
    diagnostics: dict  # what the split reports beyond its details, such as the AE loss history


def load_dataset(cfg: PipelineConfig) -> tuple[CsiMatrix, CsiMatrix, NodeGeometry]:
    """The run's uplink, downlink and geometry; a neighbor count the nodes
    cannot serve fails here, before any method trains."""
    with _stage("dataset"):
        if cfg.source == "simulate":
            out = simulate(cfg.sim)
            ul, dl, geom = out.uplink, out.downlink, out.geometry
        else:
            ul = read_csi_file(cfg.ul_path)
            dl = read_csi_file(cfg.dl_path)
            geom = read_geometry(cfg.geometry_path)
            if ul.data.shape != dl.data.shape or ul.n != geom.n:
                raise ValueError("uplink/downlink/geometry dimensions disagree")
        if cfg.reads_neighbors and cfg.k_neighbors >= geom.n:
            raise ValueError(f"k_neighbors={cfg.k_neighbors} needs more than the {geom.n} nodes")
        return ul, dl, geom


def train_config(cfg: PipelineConfig, seed: int | None = None) -> TrainConfig:
    """The training settings of an autoencoder method's options, with
    ``seed`` or else ``cfg.seed``: ae1 trains on the reconstruction loss e1,
    ae2 on the neighbor-residual loss e2."""
    return TrainConfig(
        loss="e1" if cfg.method == "ae1" else "e2",
        learning_rate=cfg.ae_learning_rate,
        batch_size=cfg.ae_batch_size,
        epochs=cfg.ae_epochs,
        seed=cfg.seed if seed is None else seed,
        mu=cfg.ae_loss_mu,
    )


def fit_ae(cfg: PipelineConfig, view: np.ndarray, geom: NodeGeometry | None, seed=None, log_path=None) -> TrainedModel:
    """The autoencoder of ``cfg``'s method, of the default architecture,
    trained with ``cfg``'s settings and ``seed`` (default ``cfg.seed``) on
    one real view: on its node columns for ae1, on its (node, neighbor)
    pairs for ae2. The pairs live only while the model trains."""
    if cfg.method == "ae1":
        data = view
    elif geom is None:
        raise ValueError("a pair-input model needs the node geometry")
    else:
        data = build_pair_dataset(view, geom, cfg.k_neighbors)
    return train(data, default_mlp_spec(data.shape[0], cfg.d_hat), train_config(cfg, seed), log_path=log_path)


@dataclass(frozen=True)
class Fitted:
    """A split fitted on one view, with every setting its :func:`split`
    reads: pca's truncated basis and ranks, kpca's model, or an
    autoencoder's trained model and, for ae2, its neighbor count."""

    method: str
    model: PcaBasis | KpcaModel | TrainedModel | None = None
    ranks: DecompConfig | None = None  # pca
    k: int | None = None  # ae2


def fit(cfg: PipelineConfig, view: np.ndarray, geom: NodeGeometry | None, seed=None, log_path=None) -> Fitted:
    """``cfg``'s method fitted on one real view. pca keeps the max(d_hat,
    d2) leading components that its split reads; an autoencoder is
    :func:`fit_ae`'s, trained with ``seed`` and logged to ``log_path``."""
    if cfg.method == "pca":
        top, ranks = max(cfg.d_hat, cfg.d2), DecompConfig(cfg.d_hat, cfg.d1, cfg.d2)
        basis = fit_pca(view, top=top)
        ranks.validate(len(basis.eigenvectors))
        return Fitted("pca", PcaBasis(basis.eigenvectors[:top], basis.eigenvalues[:top], basis.mean), ranks)
    if cfg.method == "kpca":
        csi = from_real_view(view)
        return Fitted("kpca", fit_kpca(csi, cfg.d_hat, sigma=cfg.sigma, variant=cfg.kernel_variant, gamma=cfg.gamma))
    if cfg.method in ("ae1", "ae2"):
        k = cfg.k_neighbors if cfg.method == "ae2" else None
        return Fitted(cfg.method, fit_ae(cfg, view, geom, seed, log_path), k=k)
    return Fitted("none")


def split(fitted: Fitted, view: np.ndarray, geom: NodeGeometry | None) -> Decomposition:
    """One real view split by a fitted method. A view of another width than
    the fit's, or a pair model without the geometry, raises a ValueError."""
    method, model = fitted.method, fitted.model
    if method == "none":
        return Decomposition(view, view)
    if method == "pca":
        return decompose(view, model, fitted.ranks)
    if method == "kpca":
        return decompose_kpca(model, from_real_view(view))
    rows = model.spec.input_dim // (2 if method == "ae2" else 1)
    if view.shape[0] != rows:
        raise ValueError(f"the {method} model splits real views of {rows} rows, this one has {view.shape[0]}")
    if method == "ae1":
        return decompose_ae(model, view)
    if geom is None:
        raise ValueError(f"a pair-input model needs the node geometry: it pairs each node with {fitted.k} neighbors")
    return decompose_ae_pairs(model, view, geom, fitted.k)


def describe(fitted: Fitted) -> dict:
    """A fitted split's details: pca's ranks; kpca's kept rank, eigenvalues
    and diagnostics; an autoencoder's rank and final loss, and ae2's k."""
    model = fitted.model
    if fitted.method in ("none", "pca"):
        return {"method": fitted.method, **(dataclasses.asdict(fitted.ranks) if fitted.ranks else {})}
    if fitted.method == "kpca":
        details = {"method": "kpca", "d_hat": model.alphas.shape[1], "eigenvalues": model.eigenvalues}
        return {**details, "eigenvalue_sum": model.eigenvalue_sum, **dataclasses.asdict(model.diagnostics)}
    details = {"method": fitted.method, "d_hat": model.spec.layer_dims[model.spec.bottleneck]}
    return {**details, "final_loss": model.final_loss, **({"k": fitted.k} if fitted.k else {})}


MODEL_MAGIC = b"CSM1"
_MODEL_PREFIX = struct.Struct("<4sII")  # magic | u32 version | u32 header length
#: largest model file read, in bytes: 1 GiB, a kpca factor of over 11,000 nodes
MAX_MODEL_BYTES = 1 << 30
_KPCA_FLOATS = (*(f.name for f in dataclasses.fields(KpcaDiagnostics)), "eigenvalue_sum")
_AE_SETTINGS = {"layer_dims": list, "activations": list, "input_scale": float}
#: method -> (each header setting's JSON type, the array names in file order)
_MODEL_FIELDS = {
    "pca": ({"d_hat": int, "d1": int, "d2": int}, ("eigenvectors", "eigenvalues", "mean")),
    "kpca": ({**dict.fromkeys(_KPCA_FLOATS, float), "lower": bool, "shape": list}, ("alphas", "eigenvalues", "factor")),
    "ae1": (_AE_SETTINGS, ("params", "history")),
    "ae2": ({**_AE_SETTINGS, "k": int}, ("params", "history")),
}


class ModelFileError(ValueError):
    """Malformed model file: oversized, bad prefix or header, wrong size, non-finite or inconsistent."""


def write_model(fitted: Fitted, path) -> None:
    """The model file of a fitted split: magic "CSM1" | u32 version 1 | u32
    header length | a UTF-8 JSON header of the method, its scalar settings
    and each array's shape by name | the arrays in the header's order, each
    row-major little-endian float64."""
    model = fitted.model
    if fitted.method == "pca":
        settings, arrays = dataclasses.asdict(fitted.ranks), [model.eigenvectors, model.eigenvalues, model.mean]
    elif fitted.method == "kpca":
        settings = {**dataclasses.asdict(model.diagnostics), "eigenvalue_sum": model.eigenvalue_sum}
        settings.update(lower=model.factor[1], shape=list(model.shape))
        arrays = [model.alphas, model.eigenvalues, model.factor[0]]
    else:
        spec, k = model.spec, {"k": fitted.k} if fitted.k else {}
        settings = {"layer_dims": list(spec.layer_dims), "activations": list(spec.activations), **k}
        settings, arrays = {**settings, "input_scale": model.input_scale}, [model.params, np.array(model.history)]
    shapes = {name: list(a.shape) for name, a in zip(_MODEL_FIELDS[fitted.method][1], arrays)}
    header = json.dumps({"method": fitted.method, "settings": settings, "arrays": shapes}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_PREFIX.pack(MODEL_MAGIC, 1, len(header)) + header)
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def read_model(path) -> Fitted:
    """The fitted split of a model file of at most ``MAX_MODEL_BYTES``. The
    arrays' sizes are checked against the file's before any array is made,
    and the model for consistency (basis against mean, factor against the
    fitted shape, parameters against the architecture) before it is
    returned; a bad file raises a ModelFileError that names it."""
    raw = read_capped(path, MAX_MODEL_BYTES, ModelFileError)
    try:
        magic, version, length = _MODEL_PREFIX.unpack_from(raw) if len(raw) >= _MODEL_PREFIX.size else (b"", 0, 0)
        start = _MODEL_PREFIX.size + length
        if magic != MODEL_MAGIC or version != 1 or start > len(raw):
            raise ValueError(f"no model file: {len(raw)} bytes, magic {magic!r}, version {version}, {length}-B header")
        header = json.loads(raw[_MODEL_PREFIX.size : start].decode("utf-8"))
        method = header.get("method") if isinstance(header, dict) else None
        if method not in _MODEL_FIELDS:
            raise ValueError(f"the header names no method among {list(_MODEL_FIELDS)}")
        (kinds, names), s, shapes = _MODEL_FIELDS[method], header.get("settings"), header.get("arrays")
        if not isinstance(s, dict) or any(type(s.get(key)) is not kind for key, kind in kinds.items()):
            raise ValueError(f"the {method} settings are {({key: t.__name__ for key, t in kinds.items()})}")
        if not isinstance(shapes, dict) or list(shapes) != list(names) or not all(
            isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape) for shape in shapes.values()
        ):
            raise ValueError(f"the {method} arrays are {list(names)}, each shaped by a list of sizes")
        sizes = [math.prod(shape) for shape in shapes.values()]
        if start + 8 * sum(sizes) != len(raw):
            raise ValueError(f"{len(raw) - start} bytes after the header, the arrays need {8 * sum(sizes)}")
        flat = np.frombuffer(raw, "<f8", sum(sizes), start).astype(np.float64)
        if not np.isfinite(flat).all():
            raise ValueError("an array holds a value that is not finite")
        arrays = [part.reshape(shape) for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes.values())]
        if method == "pca":
            basis, ranks = PcaBasis(*arrays), DecompConfig(s["d_hat"], s["d1"], s["d2"])
            rows = basis.eigenvectors.shape
            if len(rows) != 2 or basis.eigenvalues.shape != rows[:1] or basis.mean.shape != rows[1:]:
                raise ValueError(f"eigenvectors {rows}, eigenvalues {basis.eigenvalues.shape}, mean {basis.mean.shape}")
            ranks.validate(rows[0])
            return Fitted("pca", basis, ranks)
        if method == "kpca":
            (alphas, eigenvalues, factor), shape = arrays, tuple(s["shape"])
            n = shape[1] if len(shape) == 2 and all(type(d) is int and d > 0 for d in shape) else -1
            if factor.shape != (n, n) or eigenvalues.ndim != 1 or alphas.shape != (n, eigenvalues.size):
                raise ValueError(f"a {factor.shape} factor and {alphas.shape} alphas for a fitted shape {list(shape)}")
            if not (math.isfinite(s["gamma"]) and s["gamma"] > 0):
                raise ValueError(f"ridge gamma {s['gamma']} is not positive and finite")
            diagnostics = KpcaDiagnostics(*(s[name] for name in _KPCA_FLOATS[:-1]))
            model = KpcaModel(alphas, eigenvalues, s["eigenvalue_sum"], (factor, s["lower"]), shape, diagnostics)
            return Fitted("kpca", model)
        (params, history), dims, scale = arrays, s["layer_dims"], s["input_scale"]
        spec = MlpSpec(dims, s["activations"])
        if any(type(d) is not int for d in dims) or params.shape != (spec.n_params,) or history.ndim != 1:
            raise ValueError(f"layers {dims} need integer widths and {spec.n_params} parameters, not {params.shape}")
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(f"input scale {scale} is not positive and finite")
        if method == "ae2" and (s["k"] < 1 or spec.input_dim % 2):
            raise ValueError(f"a pair model needs k >= 1 and an even width, not k={s['k']} and {spec.input_dim}")
        model = TrainedModel(spec, params, scale, history.tolist())
        return Fitted(method, model, k=s["k"] if method == "ae2" else None)
    except (TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


METHODS = ("none", "pca", "kpca", "ae1", "ae2")


def apply_method(cfg: PipelineConfig, ul: CsiMatrix, dl: CsiMatrix, geom: NodeGeometry) -> MethodOutput:
    """Fit ``cfg``'s method on the uplink and split both views. In localized
    autoencoder mode each view fits its own model, the uplink's first, with
    seeds spawned from ``cfg.seed``; the details hold both training losses."""
    with _stage("decompose"):
        views = [to_real_view(ul), to_real_view(dl)]
        if cfg.method in ("ae1", "ae2") and cfg.ae_mode == "localized":
            seeds = [int(seq.generate_state(1)[0]) for seq in np.random.SeedSequence(cfg.seed).spawn(2)]
            fits = [fit(cfg, view, geom, seed) for view, seed in zip(views, seeds)]
        else:
            fits = [fit(cfg, views[0], geom)] * 2
        (predictable, unpred_ul), (_, unpred_dl) = (split(f, view, geom) for f, view in zip(fits, views))
        details, diagnostics = describe(fits[0]), {}
        if cfg.method in ("ae1", "ae2"):
            details = {"method": cfg.method, "d_hat": cfg.d_hat, "mode": cfg.ae_mode, "epochs": cfg.ae_epochs}
            details.update(final_loss_ul=fits[0].model.final_loss, final_loss_dl=fits[1].model.final_loss)
            diagnostics = {"loss_history_ul": fits[0].model.history, "loss_history_dl": fits[1].model.history}
        return MethodOutput(np.abs(view_to_complex(predictable)), unpred_ul, unpred_dl, details, diagnostics)


def compute_metrics(cfg: PipelineConfig, out: MethodOutput, geom: NodeGeometry) -> tuple[dict, dict]:
    """(metrics, diagnostics); the diagnostics hold each delta_bar pair's test."""
    with _stage("metrics"):
        results: dict = {}
        diagnostics: dict = {}
        if "tvd" in cfg.metrics:
            results["avg_tvd"] = avg_neighbor_tvd(out.fingerprint, geom, k=cfg.k_neighbors, bins=cfg.bins).avg_tvd
        if "cc" in cfg.metrics:
            results["avg_cc"] = neighbor_cc(out.unpred_ul, geom, cfg.k_neighbors)
        if "mp" in cfg.metrics:
            report = avg_mp(out.unpred_ul, out.unpred_dl)
            results["avg_mp"] = report.avg_mp
        if "delta_bar" in cfg.metrics:
            delta, tested = avg_neighbor_delta_bar(
                out.unpred_ul,
                geom,
                pairs=cfg.delta_pairs,
                alpha=cfg.alpha,
                b=cfg.delta_b,
                seed=cfg.seed,
            )
            results["avg_delta_bar"] = delta
            diagnostics["delta_bar"] = [
                {
                    "nodes": list(nodes),
                    "null": r.null,
                    "statistic": r.statistic,
                    "critical_value": r.critical_value,
                    "p_value": r.p_value,
                    "reject": r.reject,
                    "b": r.b,
                }
                for nodes, r in tested
            ]
        return results, diagnostics


def run_pipeline(cfg: PipelineConfig, output_dir=None) -> dict:
    """simulate/ingest -> decompose -> metrics; returns (and optionally
    writes) the self-describing report."""
    ul, dl, geom = load_dataset(cfg)
    out = apply_method(cfg, ul, dl, geom)
    metrics, diagnostics = compute_metrics(cfg, out, geom)
    report = {
        "tool": "csisplit",
        "version": __version__,
        "config": dataclasses.asdict(cfg),
        "method_details": out.details,
        "metrics": metrics,
        "diagnostics": {**out.diagnostics, **diagnostics},
    }
    if output_dir is not None:
        write_report(report, Path(output_dir) / "report.json")
        write_rows_csv([{"metric": k, "value": metrics[k]} for k in sorted(metrics)], Path(output_dir) / "report.csv")
    return report


def compare_methods(cfg: PipelineConfig, methods, output_dir=None) -> dict:
    """One row per method, each scored as the pipeline scores ``cfg`` with
    that method and metrics ("cc", "delta_bar", "mp"): the residual CC,
    dependence and mismatch probability, and the original CC and dependence
    of method none, which a none row reuses. Every method's config is
    checked before the dataset is read; the report records the first one."""
    if not methods:
        raise ValueError("need at least one method")
    repeated = [m for i, m in enumerate(methods) if m in methods[:i]]
    if repeated:
        raise ValueError(f"methods repeat {repeated[0]!r}")
    none, *scored = (dataclasses.replace(cfg, method=m, metrics=("cc", "delta_bar", "mp")) for m in ("none", *methods))
    ul, dl, geom = load_dataset(cfg)
    original, _ = compute_metrics(none, apply_method(none, ul, dl, geom), geom)
    rows = []
    for c in scored:
        residual = original if c.method == "none" else compute_metrics(c, apply_method(c, ul, dl, geom), geom)[0]
        rows.append(
            {
                "method": c.method,
                "original_cc": original["avg_cc"],
                "residual_cc": residual["avg_cc"],
                "original_delta_bar": original["avg_delta_bar"],
                "residual_delta_bar": residual["avg_delta_bar"],
                "mp": residual["avg_mp"],
            }
        )
    report = {
        "tool": "csisplit",
        "version": __version__,
        "config": dataclasses.asdict(scored[0]),
        "methods": [c.method for c in scored],
        "rows": rows,
    }
    if output_dir is not None:
        write_report(report, Path(output_dir) / "compare.json")
        write_rows_csv(rows, Path(output_dir) / "compare.csv")
    return report


def tvd_curve(ul: CsiMatrix, geom: NodeGeometry, d_hat_max: int, k: int, bins: int = DEFAULT_BINS) -> list[dict]:
    """Average neighbor TVD of the top-rank fingerprint for each rank
    0..d_hat_max; rank 0 scores the raw measurements, rank d the
    predictable part of :func:`pca.decompose` at d_hat = d."""
    if d_hat_max < 0:
        raise ValueError(f"d_hat_max must be at least 0, got {d_hat_max}")
    if ul.n != geom.n:
        raise ValueError(f"the CSI file has {ul.n} nodes, the geometry {geom.n}")
    view = to_real_view(ul)
    if d_hat_max > view.shape[0]:
        raise ValueError(f"d_hat_max {d_hat_max} exceeds the {view.shape[0]} rows of the real view")
    if d_hat_max > 0:
        basis = fit_pca(view, top=d_hat_max)
    records = []
    for d in range(d_hat_max + 1):
        predictable = decompose(view, basis, DecompConfig(d_hat=d, d1=1, d2=d_hat_max)).predictable if d > 0 else view
        rep = avg_neighbor_tvd(np.abs(view_to_complex(predictable)), geom, k, bins=bins)
        records.append({"d_hat": d, "avg_tvd": rep.avg_tvd})
    return records


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_report(report: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_rows_csv(rows: list[dict], path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    keys = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] if isinstance(row[k], str) else repr(float(row[k])) for k in keys])
