"""End-to-end orchestration: dataset acquisition, decomposition method
dispatch, metric computation and self-describing JSON/CSV reports.

Reports embed the fully resolved configuration and seed so any run can be
reproduced byte for byte.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .autoencoder import (
    TrainConfig,
    TrainedModel,
    build_pair_dataset,
    decompose_ae,
    decompose_ae_pairs,
    default_mlp_spec,
    train_for_mode,
)
from .core import (
    CsiMatrix,
    Direction,
    NodeGeometry,
    from_real_view,
    read_csi_file,
    to_real_view,
    view_to_complex,
    write_csi_file,
)
from .dependence import avg_neighbor_cc, avg_neighbor_delta_bar
from .fingerprint import DEFAULT_BINS, avg_neighbor_tvd
from .kpca import decompose_kpca, fit_kpca
from .pca import DecompConfig, decompose, fit_pca
from .simulate import SimConfig, SimOutput, simulate
from .skg import avg_mp

ALL_METRICS = ("tvd", "cc", "delta_bar", "mp")


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
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
    delta_b: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.source not in ("simulate", "files"):
            raise ValueError("source must be 'simulate' or 'files'")
        if self.source == "files" and (not self.ul_path or not self.dl_path or not self.geometry_path):
            raise ValueError("file source needs ul_path, dl_path and geometry_path")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.method in ("kpca", "ae1", "ae2") and self.d_hat < 1:
            raise ValueError(f"d_hat must be at least 1 for method {self.method}, got {self.d_hat}")
        unknown = set(self.metrics) - set(ALL_METRICS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")
        if "delta_bar" in self.metrics:
            if self.delta_pairs < 1:
                raise ValueError("delta_pairs must be at least 1")
            if self.delta_b < 100:
                raise ValueError("delta_b must be at least 100 permutations")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("alpha must lie in (0, 1)")
        if self.method == "ae2" and not (math.isfinite(self.ae_loss_mu) and self.ae_loss_mu > 0.5):
            raise ValueError(f"ae_loss_mu must be finite and above 0.5 for method ae2, got {self.ae_loss_mu}")


def geometry_to_dict(geom: NodeGeometry) -> dict:
    return {"positions": geom.positions.tolist(), "k": geom.k}


def geometry_from_dict(obj: dict) -> NodeGeometry:
    """Inverse of :func:`geometry_to_dict`; a ValueError names the bad key."""
    if not isinstance(obj, dict) or "positions" not in obj:
        raise ValueError("geometry must be a JSON object with a 'positions' key")
    try:
        positions = np.asarray(obj["positions"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"geometry 'positions' is not a numeric matrix: {exc}") from exc
    try:
        k = int(obj.get("k", 8))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"geometry 'k' is not an integer: {exc}") from exc
    return NodeGeometry(positions=positions, k=k)


def write_geometry(geom: NodeGeometry, path) -> None:
    Path(path).write_text(json.dumps(geometry_to_dict(geom), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_geometry(path) -> NodeGeometry:
    return geometry_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


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


def load_dataset(cfg: PipelineConfig) -> tuple[CsiMatrix, CsiMatrix, NodeGeometry]:
    try:
        if cfg.source == "simulate":
            out = simulate(cfg.sim)
            return out.uplink, out.downlink, out.geometry
        ul = read_csi_file(cfg.ul_path)
        dl = read_csi_file(cfg.dl_path)
        geom = read_geometry(cfg.geometry_path)
        if ul.data.shape != dl.data.shape or ul.n != geom.n:
            raise ValueError("uplink/downlink/geometry dimensions disagree")
        return ul, dl, geom
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("dataset", exc) from exc


#: maps a (2m, n) real view to its (predictable, unpredictable) real views
Split = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _fit_none(cfg: PipelineConfig, ul_view, dl_view, geom) -> tuple[Split, Split, dict]:
    def split(view):
        return view, view

    return split, split, {"method": "none"}


def _fit_pca(cfg: PipelineConfig, ul_view, dl_view, geom) -> tuple[Split, Split, dict]:
    basis = fit_pca(ul_view)
    dcfg = DecompConfig(d_hat=cfg.d_hat, d1=cfg.d1, d2=cfg.d2)

    def split(view):
        dec = decompose(view, basis, dcfg)
        return dec.predictable, dec.unpredictable

    return split, split, {"method": "pca", "d_hat": cfg.d_hat, "d1": cfg.d1, "d2": cfg.d2}


def _fit_kpca(cfg: PipelineConfig, ul_view, dl_view, geom) -> tuple[Split, Split, dict]:
    model = fit_kpca(
        from_real_view(ul_view), cfg.d_hat, sigma=cfg.sigma, variant=cfg.kernel_variant, gamma=cfg.gamma
    )

    def split(view):
        predictable, residual = decompose_kpca(model, from_real_view(view))
        return to_real_view(predictable), to_real_view(residual)

    details = {
        "method": "kpca",
        "d_hat": model.alphas.shape[1],
        "eigenvalues": model.eigenvalues,
        **dataclasses.asdict(model.diagnostics),
    }
    return split, split, details


def ae_split(
    model: TrainedModel, geom: NodeGeometry | None, k: int, built: tuple[np.ndarray, np.ndarray | None] | None = None
) -> Split:
    """Split by a trained autoencoder: a per-node model when its input width
    is the view's, a (node, neighbor) pair model when it is twice that.
    ``built`` = (view, its pair data or None), as built for training: the
    first split of that same view array uses the data instead of building it
    again, and then lets it go."""
    held = [built] if built else []

    def split(view):
        if model.spec.input_dim == view.shape[0]:
            dec = decompose_ae(model, view)
        elif model.spec.input_dim == 2 * view.shape[0]:
            if geom is None:
                raise ValueError("a pair-input model needs the node geometry")
            data = held.pop()[1] if held and held[0][0] is view else None
            dec = decompose_ae_pairs(model, view, geom, k, data)
        else:
            raise ValueError(f"model expects input dim {model.spec.input_dim}, the real view has {view.shape[0]}")
        return dec.predictable, dec.unpredictable

    return split


def _fit_ae(cfg: PipelineConfig, ul_view, dl_view, geom) -> tuple[Split, Split, dict]:
    """ae1 trains on node columns, ae2 on (node, neighbor) pairs; a
    centralized model trains on the uplink alone."""
    tc = TrainConfig(
        loss="e1" if cfg.method == "ae1" else "e2",
        learning_rate=cfg.ae_learning_rate,
        batch_size=cfg.ae_batch_size,
        epochs=cfg.ae_epochs,
        seed=cfg.seed,
        mode=cfg.ae_mode,
        mu=cfg.ae_loss_mu,
    )
    if cfg.method == "ae1":
        data_ul, data_dl = ul_view, dl_view
    else:
        data_ul = build_pair_dataset(ul_view, geom, cfg.k_neighbors)
        data_dl = build_pair_dataset(dl_view, geom, cfg.k_neighbors) if cfg.ae_mode == "localized" else None
    spec = default_mlp_spec(data_ul.shape[0], cfg.d_hat)
    model_ul, model_dl = train_for_mode(spec, tc, data_ul, data_dl)
    details = {
        "method": cfg.method,
        "d_hat": cfg.d_hat,
        "mode": cfg.ae_mode,
        "epochs": cfg.ae_epochs,
        "final_loss_ul": model_ul.final_loss,
        "final_loss_dl": model_dl.final_loss,
    }
    k = cfg.k_neighbors
    if cfg.method == "ae1":
        return ae_split(model_ul, geom, k), ae_split(model_dl, geom, k), details
    # the pair splits reuse the training data, so each direction's is built at most once
    return ae_split(model_ul, geom, k, (ul_view, data_ul)), ae_split(model_dl, geom, k, (dl_view, data_dl)), details


#: method -> fit(cfg, ul_view, dl_view, geom) -> (uplink split, downlink split, details)
FITS = {"none": _fit_none, "pca": _fit_pca, "kpca": _fit_kpca, "ae1": _fit_ae, "ae2": _fit_ae}
METHODS = tuple(FITS)


def apply_method(cfg: PipelineConfig, ul: CsiMatrix, dl: CsiMatrix, geom: NodeGeometry) -> MethodOutput:
    try:
        if cfg.method not in FITS:
            raise ValueError(f"unknown method {cfg.method!r}")
        ul_view, dl_view = to_real_view(ul), to_real_view(dl)
        split_ul, split_dl, details = FITS[cfg.method](cfg, ul_view, dl_view, geom)
        predictable, unpred_ul = split_ul(ul_view)
        _, unpred_dl = split_dl(dl_view)
        return MethodOutput(
            fingerprint=np.abs(view_to_complex(predictable)), unpred_ul=unpred_ul, unpred_dl=unpred_dl, details=details
        )
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("decompose", exc) from exc


def compute_metrics(cfg: PipelineConfig, out: MethodOutput, geom: NodeGeometry) -> dict:
    try:
        results: dict = {}
        if "tvd" in cfg.metrics:
            results["avg_tvd"] = avg_neighbor_tvd(out.fingerprint, geom, k=cfg.k_neighbors, bins=cfg.bins).avg_tvd
        if "cc" in cfg.metrics:
            results["avg_cc"] = avg_neighbor_cc(out.unpred_ul, geom, k=cfg.k_neighbors)
        if "mp" in cfg.metrics:
            report = avg_mp(out.unpred_ul, out.unpred_dl)
            results["avg_mp"] = report.avg_mp
        if "delta_bar" in cfg.metrics:
            delta, _ = avg_neighbor_delta_bar(
                out.unpred_ul,
                geom,
                pairs=cfg.delta_pairs,
                alpha=cfg.alpha,
                b=cfg.delta_b,
                seed=cfg.seed,
            )
            results["avg_delta_bar"] = delta
        return results
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError("metrics", exc) from exc


def _config_dict(cfg: PipelineConfig) -> dict:
    out = dataclasses.asdict(cfg)
    out["metrics"] = list(cfg.metrics)
    return out


def run_pipeline(cfg: PipelineConfig, output_dir=None) -> dict:
    """simulate/ingest -> decompose -> metrics; returns (and optionally
    writes) the self-describing report."""
    cfg.validate()
    ul, dl, geom = load_dataset(cfg)
    out = apply_method(cfg, ul, dl, geom)
    metrics = compute_metrics(cfg, out, geom)
    report = {
        "tool": "csisplit",
        "version": __version__,
        "config": _config_dict(cfg),
        "method_details": out.details,
        "metrics": metrics,
    }
    if output_dir is not None:
        write_report(report, Path(output_dir) / "report.json")
        write_metrics_csv(metrics, Path(output_dir) / "report.csv")
    return report


def compare_methods(cfgs: list[PipelineConfig], output_dir=None) -> dict:
    """Same dataset, several methods; one row per method with original and
    residual dependence/correlation plus the mismatch probability. The
    residual scores are the method's pipeline metrics, the original ones
    those of method none, whatever metrics the configs name."""
    if not cfgs:
        raise ValueError("need at least one config")
    base = cfgs[0]
    dataset_fields = ("source", "sim", "ul_path", "dl_path", "geometry_path")
    if any(getattr(cfg, f) != getattr(base, f) for cfg in cfgs[1:] for f in dataset_fields):
        raise PipelineError("compare", ValueError("dataset mismatch across configs"))
    scored = [dataclasses.replace(cfg, metrics=("cc", "delta_bar", "mp")) for cfg in cfgs]
    for cfg in scored:
        cfg.validate()
    ul, dl, geom = load_dataset(base)
    none = dataclasses.replace(scored[0], method="none")
    original = compute_metrics(none, apply_method(none, ul, dl, geom), geom)
    rows = []
    for cfg in scored:
        residual = compute_metrics(cfg, apply_method(cfg, ul, dl, geom), geom)
        rows.append(
            {
                "method": cfg.method,
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
        "config": _config_dict(base),
        "methods": [c.method for c in cfgs],
        "rows": rows,
    }
    if output_dir is not None:
        write_report(report, Path(output_dir) / "compare.json")
        write_rows_csv(rows, Path(output_dir) / "compare.csv")
    return report


def tvd_curve(
    ul: CsiMatrix,
    geom: NodeGeometry,
    d_hat_max: int,
    k: int | None = None,
    bins: int = DEFAULT_BINS,
) -> list[dict]:
    """Average neighbor TVD of the top-rank fingerprint for each rank
    0..d_hat_max; rank 0 scores the raw measurements."""
    view = to_real_view(ul)
    basis = fit_pca(view)
    records = []
    for d in range(d_hat_max + 1):
        predictable = view  # rank 0: the raw measurements
        if d > 0:
            predictable = decompose(view, basis, DecompConfig(d_hat=d, d1=1, d2=view.shape[0])).predictable
        rep = avg_neighbor_tvd(np.abs(view_to_complex(predictable)), geom, k=k, bins=bins)
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
    if isinstance(obj, Direction):
        return int(obj)
    return obj


def write_report(report: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(_jsonify(report), sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_metrics_csv(metrics: dict, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        for key in sorted(metrics):
            writer.writerow([key, repr(float(metrics[key]))])


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
