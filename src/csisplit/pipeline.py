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

import numpy as np

from . import __version__
from .autoencoder import (
    TrainConfig,
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

METHODS = ("none", "pca", "kpca", "ae1", "ae2")
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
    return NodeGeometry(positions=np.asarray(obj["positions"], dtype=np.float64), k=int(obj.get("k", 8)))


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


def apply_method(cfg: PipelineConfig, ul: CsiMatrix, dl: CsiMatrix, geom: NodeGeometry) -> MethodOutput:
    try:
        ul_view, dl_view = to_real_view(ul), to_real_view(dl)
        if cfg.method == "none":
            return MethodOutput(
                fingerprint=np.abs(ul.data), unpred_ul=ul_view, unpred_dl=dl_view, details={"method": "none"}
            )
        if cfg.method == "pca":
            basis = fit_pca(ul_view)
            dcfg = DecompConfig(d_hat=cfg.d_hat, d1=cfg.d1, d2=cfg.d2)
            dec_ul = decompose(ul_view, basis, dcfg)
            dec_dl = decompose(dl_view, basis, dcfg)
            return MethodOutput(
                fingerprint=np.abs(view_to_complex(dec_ul.predictable)),
                unpred_ul=dec_ul.unpredictable,
                unpred_dl=dec_dl.unpredictable,
                details={"method": "pca", "d_hat": cfg.d_hat, "d1": cfg.d1, "d2": cfg.d2},
            )
        if cfg.method == "kpca":
            model = fit_kpca(ul, max(cfg.d_hat, 1), sigma=cfg.sigma, variant=cfg.kernel_variant)
            pred_ul, resid_ul, diag = decompose_kpca(model, ul, gamma=cfg.gamma)
            _, resid_dl, _ = decompose_kpca(model, dl, gamma=cfg.gamma)
            return MethodOutput(
                fingerprint=np.abs(pred_ul.data),
                unpred_ul=to_real_view(resid_ul),
                unpred_dl=to_real_view(resid_dl),
                details={
                    "method": "kpca",
                    "d_hat": max(cfg.d_hat, 1),
                    "gamma": diag.gamma,
                    "bandwidth_sigma": diag.bandwidth_sigma,
                    "asymmetry_norm": diag.asymmetry_norm,
                    "condition_estimate": diag.condition_estimate,
                },
            )
        if cfg.method in ("ae1", "ae2"):
            tc = TrainConfig(
                loss="e1" if cfg.method == "ae1" else "e2",
                learning_rate=cfg.ae_learning_rate,
                batch_size=cfg.ae_batch_size,
                epochs=cfg.ae_epochs,
                seed=cfg.seed,
                mode=cfg.ae_mode,
                k_neighbors=cfg.k_neighbors,
                mu=cfg.ae_loss_mu,
            )
            if cfg.method == "ae1":
                spec = default_mlp_spec(ul_view.shape[0], max(cfg.d_hat, 1))
                model_ul, model_dl = train_for_mode(spec, tc, ul_view, dl_view)
                dec_ul = decompose_ae(model_ul, ul_view)
                dec_dl = decompose_ae(model_dl, dl_view)
            else:
                spec = default_mlp_spec(2 * ul_view.shape[0], max(cfg.d_hat, 1))
                pairs_ul, _ = build_pair_dataset(ul_view, geom, cfg.k_neighbors)
                pairs_dl, _ = build_pair_dataset(dl_view, geom, cfg.k_neighbors)
                model_ul, model_dl = train_for_mode(spec, tc, pairs_ul, pairs_dl)
                dec_ul = decompose_ae_pairs(model_ul, ul_view, geom, cfg.k_neighbors)
                dec_dl = decompose_ae_pairs(model_dl, dl_view, geom, cfg.k_neighbors)
            return MethodOutput(
                fingerprint=np.abs(view_to_complex(dec_ul.predictable)),
                unpred_ul=dec_ul.unpredictable,
                unpred_dl=dec_dl.unpredictable,
                details={
                    "method": cfg.method,
                    "d_hat": max(cfg.d_hat, 1),
                    "mode": cfg.ae_mode,
                    "epochs": cfg.ae_epochs,
                    "final_loss_ul": model_ul.final_loss,
                    "final_loss_dl": model_dl.final_loss,
                },
            )
        raise ValueError(f"unknown method {cfg.method!r}")
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
    residual dependence/correlation plus the mismatch probability."""
    if not cfgs:
        raise ValueError("need at least one config")
    base = cfgs[0]
    for other in cfgs[1:]:
        same_source = (
            other.source == base.source
            and other.sim == base.sim
            and other.ul_path == base.ul_path
            and other.dl_path == base.dl_path
            and other.geometry_path == base.geometry_path
        )
        if not same_source:
            raise PipelineError("compare", ValueError("dataset mismatch across configs"))
    for cfg in cfgs:
        cfg.validate()
    ul, dl, geom = load_dataset(base)
    raw_view = to_real_view(ul)
    original_cc = avg_neighbor_cc(raw_view, geom, k=base.k_neighbors)
    original_delta, _ = avg_neighbor_delta_bar(
        raw_view, geom, pairs=base.delta_pairs, alpha=base.alpha, b=base.delta_b, seed=base.seed
    )
    rows = []
    for cfg in cfgs:
        out = apply_method(cfg, ul, dl, geom)
        residual_cc = avg_neighbor_cc(out.unpred_ul, geom, k=cfg.k_neighbors)
        residual_delta, _ = avg_neighbor_delta_bar(
            out.unpred_ul, geom, pairs=cfg.delta_pairs, alpha=cfg.alpha, b=cfg.delta_b, seed=cfg.seed
        )
        mp = avg_mp(out.unpred_ul, out.unpred_dl).avg_mp
        rows.append(
            {
                "method": cfg.method,
                "original_cc": original_cc,
                "residual_cc": residual_cc,
                "original_delta_bar": original_delta,
                "residual_delta_bar": residual_delta,
                "mp": mp,
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
        if d == 0:
            fp = np.abs(ul.data)
        else:
            dec = decompose(view, basis, DecompConfig(d_hat=d, d1=1, d2=view.shape[0]))
            fp = np.abs(view_to_complex(dec.predictable))
        rep = avg_neighbor_tvd(fp, geom, k=k, bins=bins)
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
