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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import (
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
from .kpca import decompose_kpca, fit_kpca
from .pca import DecompConfig, decompose, fit_pca
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise GeometryError(f"{path}: not a UTF-8 JSON geometry file: {exc}") from exc
    if not isinstance(obj, dict) or "positions" not in obj:
        raise GeometryError("geometry must be a JSON object with a 'positions' key")
    try:
        positions = np.asarray(obj["positions"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
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


def _decompose_none(cfg: PipelineConfig, views, geom) -> tuple[list[Decomposition], dict, dict]:
    return [Decomposition(view, view) for view in views], {"method": "none"}, {}


def _decompose_pca(cfg: PipelineConfig, views, geom) -> tuple[list[Decomposition], dict, dict]:
    basis = fit_pca(views[0], top=max(cfg.d_hat, cfg.d2))
    dcfg = DecompConfig(d_hat=cfg.d_hat, d1=cfg.d1, d2=cfg.d2)
    details = {"method": "pca", "d_hat": cfg.d_hat, "d1": cfg.d1, "d2": cfg.d2}
    return [decompose(view, basis, dcfg) for view in views], details, {}


def _decompose_kpca(cfg: PipelineConfig, views, geom) -> tuple[list[Decomposition], dict, dict]:
    csis = [from_real_view(view) for view in views]
    model = fit_kpca(csis[0], cfg.d_hat, sigma=cfg.sigma, variant=cfg.kernel_variant, gamma=cfg.gamma)
    parts = [decompose_kpca(model, csi) for csi in csis]
    details = {
        "method": "kpca",
        "d_hat": model.alphas.shape[1],
        "eigenvalues": model.eigenvalues,
        "eigenvalue_sum": model.eigenvalue_sum,
        **dataclasses.asdict(model.diagnostics),
    }
    return parts, details, {}


def ae_split(model: TrainedModel, view: np.ndarray, geom: NodeGeometry | None, k: int) -> Decomposition:
    """Split by a trained autoencoder: a per-node model when its input width
    is the view's, a (node, neighbor) pair model when it is twice that."""
    if model.spec.input_dim == view.shape[0]:
        return decompose_ae(model, view)
    if model.spec.input_dim != 2 * view.shape[0]:
        raise ValueError(f"model expects input dim {model.spec.input_dim}, the real view has {view.shape[0]}")
    if geom is None:
        raise ValueError("a pair-input model needs the node geometry")
    return decompose_ae_pairs(model, view, geom, k)


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


def _decompose_ae(cfg: PipelineConfig, views, geom) -> tuple[list[Decomposition], dict, dict]:
    """``views`` = (uplink, downlink). Centralized, one model trained on the
    uplink's data splits both views; localized, each view trains its own
    model, the uplink's first, each with a seed spawned from ``cfg.seed``.
    A pair model's split gathers its pairs again, block by block.
    The diagnostics hold each direction's per-epoch training loss."""
    if cfg.ae_mode == "centralized":
        models = [fit_ae(cfg, views[0], geom)] * 2
    else:
        seeds = [int(seq.generate_state(1)[0]) for seq in np.random.SeedSequence(cfg.seed).spawn(2)]
        models = [fit_ae(cfg, view, geom, seed) for view, seed in zip(views, seeds)]
    details = {
        "method": cfg.method,
        "d_hat": cfg.d_hat,
        "mode": cfg.ae_mode,
        "epochs": cfg.ae_epochs,
        "final_loss_ul": models[0].final_loss,
        "final_loss_dl": models[1].final_loss,
    }
    diagnostics = {"loss_history_ul": models[0].history, "loss_history_dl": models[1].history}
    parts = [ae_split(model, view, geom, cfg.k_neighbors) for model, view in zip(models, views)]
    return parts, details, diagnostics


#: method -> decompose(cfg, views, geom) -> (one Decomposition per view,
#: details, diagnostics); the fit runs on views[0], the uplink
DECOMPOSERS = {
    "none": _decompose_none,
    "pca": _decompose_pca,
    "kpca": _decompose_kpca,
    "ae1": _decompose_ae,
    "ae2": _decompose_ae,
}
METHODS = tuple(DECOMPOSERS)


def apply_method(cfg: PipelineConfig, ul: CsiMatrix, dl: CsiMatrix, geom: NodeGeometry) -> MethodOutput:
    with _stage("decompose"):
        parts, details, diagnostics = DECOMPOSERS[cfg.method](cfg, [to_real_view(ul), to_real_view(dl)], geom)
        (predictable, unpred_ul), (_, unpred_dl) = parts
        return MethodOutput(
            fingerprint=np.abs(view_to_complex(predictable)),
            unpred_ul=unpred_ul,
            unpred_dl=unpred_dl,
            details=details,
            diagnostics=diagnostics,
        )


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
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for row in rows:
            writer.writerow([row[k] if isinstance(row[k], str) else repr(float(row[k])) for k in keys])
