"""Command-line interface.

Subcommands: simulate, decompose, kpca, ae-train, ae-decompose, dhsic,
tvd-curve, skg-mp, fit-dist, sweep, compare, pipeline. Global flags
--seed, --threads, --output-dir and --config (a flat key = value file
whose entries override the command line; keys are the long option names
with dashes or underscores). --threads affects only sweep and fit-dist.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline as pl
from .autoencoder import (
    TrainConfig,
    build_pair_dataset,
    decompose_ae,
    decompose_ae_pairs,
    default_mlp_spec,
    read_weights,
    train,
    write_weights,
)
from .core import from_real_view, read_csi_file, to_real_view, write_csi_file
from .dependence import dhsic_test
from .distfit import ALL_FAMILIES, PHASE_FAMILIES, fit_families
from .kpca import KERNEL_VARIANTS, decompose_kpca, fit_kpca
from .pca import DecompConfig, decompose, fit_pca, sweep
from .simulate import SimConfig, simulate
from .skg import avg_mp


def _parse_value(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for cast in (int, float):
        try:
            return cast(low)
        except ValueError:
            pass
    return low


def _apply_config_file(args: argparse.Namespace) -> None:
    """Flat key = value file; entries override command-line flags."""
    if not getattr(args, "config", None):
        return
    for lineno, raw in enumerate(Path(args.config).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{args.config}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"{args.config}:{lineno}: unknown key {key!r}")
        setattr(args, attr, _parse_value(value))


def _out(args, name: str) -> Path:
    directory = Path(args.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / name


def _sim_config(args) -> SimConfig:
    return SimConfig(
        grid_shape=(args.grid_rows, args.grid_cols),
        grid_spacing_m=args.spacing,
        m=args.m,
        snr_db=args.snr_db,
        rician_k=args.rician_k,
        path_loss_exponent=args.path_loss_exponent,
        shadowing_sigma_db=args.shadowing_sigma_db,
        shadowing_corr_m=args.shadowing_corr_m,
        phase_sigma_rad=args.phase_sigma_rad,
        phase_corr_m=args.phase_corr_m,
        speed_mps=args.speed_mps,
        carrier_hz=args.carrier_hz,
        snapshot_interval_s=args.snapshot_interval_s,
        los_doppler_frac=args.los_doppler_frac,
        diffuse_corr_m=args.diffuse_corr_m,
        seed=args.seed,
    )


def _pipeline_config(args, method: str | None = None) -> pl.PipelineConfig:
    sim = _sim_config(args) if hasattr(args, "m") else SimConfig(seed=args.seed)
    return pl.PipelineConfig(
        source=getattr(args, "source", "files"),
        ul_path=getattr(args, "input_ul", None),
        dl_path=getattr(args, "input_dl", None),
        geometry_path=getattr(args, "geometry", None),
        sim=sim,
        method=method or args.method,
        d_hat=args.d_hat,
        d1=args.d1,
        d2=args.d2,
        gamma=args.gamma,
        sigma=args.sigma,
        kernel_variant=args.kernel_variant,
        ae_loss_mu=args.mu,
        ae_epochs=args.ae_epochs,
        ae_batch_size=args.ae_batch_size,
        ae_learning_rate=args.ae_learning_rate,
        ae_mode=args.ae_mode,
        metrics=tuple(args.metrics.split(",")) if args.metrics else pl.ALL_METRICS,
        k_neighbors=args.k,
        bins=args.bins,
        delta_pairs=args.delta_pairs,
        delta_b=args.b,
        alpha=args.alpha,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> None:
    out = simulate(_sim_config(args))
    paths = pl.write_sim_output(out, args.output_dir)
    print(json.dumps(paths, sort_keys=True, indent=2))


def cmd_decompose(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    basis = fit_pca(view)
    dec = decompose(view, basis, DecompConfig(d_hat=args.d_hat, d1=args.d1, d2=args.d2))
    pred = from_real_view(dec.predictable, direction=csi.direction, snr_db=csi.snr_db)
    unpred = from_real_view(dec.unpredictable, direction=csi.direction, snr_db=csi.snr_db)
    pred_path = args.output_predictable or _out(args, "predictable.csi")
    unpred_path = args.output_unpredictable or _out(args, "unpredictable.csi")
    write_csi_file(pred, pred_path)
    write_csi_file(unpred, unpred_path)
    print(json.dumps({"predictable": str(pred_path), "unpredictable": str(unpred_path)}, sort_keys=True, indent=2))


def cmd_kpca(args) -> None:
    csi = read_csi_file(args.input)
    model = fit_kpca(csi, args.d_hat, sigma=args.sigma, variant=args.kernel_variant)
    pred, resid, diag = decompose_kpca(model, csi, gamma=args.gamma)
    write_csi_file(pred, _out(args, "predictable.csi"))
    write_csi_file(resid, _out(args, "residual.csi"))
    report = {
        "d_hat": int(model.alphas.shape[1]),
        "eigenvalues": diag.eigenvalues.tolist(),
        "asymmetry_norm": diag.asymmetry_norm,
        "bandwidth_sigma": diag.bandwidth_sigma,
        "score_bandwidth": diag.score_bandwidth,
        "gamma": diag.gamma,
        "condition_estimate": diag.condition_estimate,
    }
    pl.write_report(report, _out(args, "kpca.json"))
    print(json.dumps({"predictable": str(_out(args, "predictable.csi")), "residual": str(_out(args, "residual.csi"))}))


def cmd_ae_train(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    if args.loss == "e2":
        if not args.geometry:
            raise ValueError("--geometry is required for the e2 loss (neighbor pairs)")
        geom = pl.read_geometry(args.geometry)
        dataset, _ = build_pair_dataset(view, geom, args.k)
    else:
        dataset = view
    spec = default_mlp_spec(dataset.shape[0], args.d_hat)
    cfg = TrainConfig(
        loss=args.loss,
        learning_rate=args.ae_learning_rate,
        batch_size=args.ae_batch_size,
        epochs=args.ae_epochs,
        seed=args.seed,
        k_neighbors=args.k,
        mu=args.mu,
    )
    log_path = args.log or _out(args, "ae_train_log.jsonl")
    model = train(dataset, spec, cfg, log_path=log_path)
    weights_path = args.weights_out or _out(args, "ae.weights")
    write_weights(model, weights_path)
    print(json.dumps({"weights": str(weights_path), "final_loss": model.final_loss, "log": str(log_path)}))


def cmd_ae_decompose(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    model = read_weights(args.weights)
    if model.spec.input_dim == view.shape[0]:
        dec = decompose_ae(model, view)
    elif model.spec.input_dim == 2 * view.shape[0]:
        if not args.geometry:
            raise ValueError("--geometry is required for pair-input weights")
        dec = decompose_ae_pairs(model, view, pl.read_geometry(args.geometry), args.k)
    else:
        raise ValueError(f"weights expect input dim {model.spec.input_dim}, data real view is {view.shape[0]}")
    pred = from_real_view(dec.predictable, direction=csi.direction, snr_db=csi.snr_db)
    unpred = from_real_view(dec.unpredictable, direction=csi.direction, snr_db=csi.snr_db)
    write_csi_file(pred, _out(args, "predictable.csi"))
    write_csi_file(unpred, _out(args, "residual.csi"))
    print(json.dumps({"predictable": str(_out(args, "predictable.csi")), "residual": str(_out(args, "residual.csi"))}))


def cmd_dhsic(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    nodes = [int(tok) for tok in args.nodes.split(",")]
    if len(nodes) < 2:
        raise ValueError("--nodes needs at least two comma-separated indices")
    report = dhsic_test([view[:, i] for i in nodes], alpha=args.alpha, b=args.b, seed=args.seed)
    payload = {
        "nodes": nodes,
        "statistic": report.statistic,
        "critical_value": report.critical_value,
        "delta_bar": report.delta_bar,
        "raw_ratio": report.raw_ratio,
        "alpha": report.alpha,
        "b": report.b,
        "reject": report.reject,
        "p_value": report.p_value,
        "degenerate_variables": list(report.degenerate_variables),
        "seed": args.seed,
    }
    pl.write_report(payload, _out(args, "dhsic.json"))
    print(json.dumps(pl._jsonify(payload), sort_keys=True, indent=2))


def cmd_tvd_curve(args) -> None:
    csi = read_csi_file(args.input)
    geom = pl.read_geometry(args.geometry)
    records = pl.tvd_curve(csi, geom, d_hat_max=args.d_hat_max, k=args.k, bins=args.bins)
    pl.write_report({"curve": records, "seed": args.seed}, _out(args, "tvd_curve.json"))
    print(json.dumps(records, sort_keys=True, indent=2))


def cmd_skg_mp(args) -> None:
    ul = read_csi_file(args.input_ul)
    dl = read_csi_file(args.input_dl)
    report = avg_mp(to_real_view(ul), to_real_view(dl))
    payload = {"per_node_mp": report.per_node_mp.tolist(), "avg_mp": report.avg_mp}
    pl.write_report(payload, _out(args, "skg_mp.json"))
    print(json.dumps({"avg_mp": report.avg_mp}))


def cmd_fit_dist(args) -> None:
    csi = read_csi_file(args.input)
    if args.component == "amplitude":
        samples = np.abs(csi.data).ravel()
        families = ALL_FAMILIES
    else:
        samples = np.angle(csi.data).ravel()
        families = PHASE_FAMILIES
    results = fit_families(samples, families, threads=args.threads)
    payload = [dataclasses.asdict(r) for r in results]
    pl.write_report({"component": args.component, "fits": payload}, _out(args, "fit_dist.json"))
    print(json.dumps(pl._jsonify(payload), sort_keys=True, indent=2))


def cmd_sweep(args) -> None:
    ul = read_csi_file(args.input_ul)
    dl = read_csi_file(args.input_dl)
    geom = pl.read_geometry(args.geometry)
    ul_view, dl_view = to_real_view(ul), to_real_view(dl)
    basis = fit_pca(ul_view)
    cells = sweep(
        ul_view,
        dl_view,
        basis,
        d1_grid=range(args.d1_min, args.d1_max + 1, args.step),
        d2_grid=range(args.d2_min, args.d2_max + 1, args.step),
        geom=geom,
        k=args.k,
        delta_pairs=args.delta_pairs,
        delta_b=args.b,
        delta_alpha=args.alpha,
        seed=args.seed,
        threads=args.threads,
    )
    records = [dataclasses.asdict(c) for c in cells]
    pl.write_report({"seed": args.seed, "cells": records}, _out(args, "sweep.json"))
    pl.write_rows_csv(
        [{k: ("" if v is None else v) for k, v in r.items()} for r in records], _out(args, "sweep.csv")
    )
    print(json.dumps({"cells": len(records), "output": str(_out(args, "sweep.json"))}))


def cmd_compare(args) -> None:
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    cfgs = [_pipeline_config(args, method=m) for m in methods]
    report = pl.compare_methods(cfgs, output_dir=args.output_dir)
    print(json.dumps(pl._jsonify(report["rows"]), sort_keys=True, indent=2))


def cmd_pipeline(args) -> None:
    cfg = _pipeline_config(args)
    report = pl.run_pipeline(cfg, output_dir=args.output_dir)
    print(json.dumps(pl._jsonify(report["metrics"]), sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    defaults = SimConfig()
    p.add_argument("--m", type=int, default=defaults.m, help="snapshots per node")
    p.add_argument("--grid-rows", type=int, default=defaults.grid_shape[0])
    p.add_argument("--grid-cols", type=int, default=defaults.grid_shape[1])
    p.add_argument("--spacing", type=float, default=defaults.grid_spacing_m, help="grid spacing [m]")
    p.add_argument("--snr-db", type=float, default=defaults.snr_db)
    p.add_argument("--rician-k", type=float, default=defaults.rician_k)
    p.add_argument("--path-loss-exponent", type=float, default=defaults.path_loss_exponent)
    p.add_argument("--shadowing-sigma-db", type=float, default=defaults.shadowing_sigma_db)
    p.add_argument("--shadowing-corr-m", type=float, default=defaults.shadowing_corr_m)
    p.add_argument("--phase-sigma-rad", type=float, default=defaults.phase_sigma_rad)
    p.add_argument("--phase-corr-m", type=float, default=defaults.phase_corr_m)
    p.add_argument("--speed-mps", type=float, default=defaults.speed_mps)
    p.add_argument("--carrier-hz", type=float, default=defaults.carrier_hz)
    p.add_argument("--snapshot-interval-s", type=float, default=defaults.snapshot_interval_s)
    p.add_argument("--los-doppler-frac", type=float, default=defaults.los_doppler_frac)
    p.add_argument("--diffuse-corr-m", type=float, default=defaults.diffuse_corr_m)


def _add_method_flags(p: argparse.ArgumentParser, with_method: bool = True) -> None:
    if with_method:
        p.add_argument("--method", choices=pl.METHODS, default="pca")
    p.add_argument("--d-hat", type=int, default=1, help="predictable rank")
    p.add_argument("--d1", type=int, default=3, help="unpredictable band start (1-based)")
    p.add_argument("--d2", type=int, default=20, help="unpredictable band end (inclusive)")
    p.add_argument("--gamma", type=float, default=None, help="kernel ridge regularizer")
    p.add_argument("--sigma", type=float, default=None, help="kernel bandwidth override")
    p.add_argument("--kernel-variant", choices=KERNEL_VARIANTS, default="conjugate")
    p.add_argument("--mu", type=float, default=1.0, help="reconstruction weight in the e2 composite loss")
    p.add_argument("--ae-epochs", type=int, default=200)
    p.add_argument("--ae-batch-size", type=int, default=32)
    p.add_argument("--ae-learning-rate", type=float, default=1e-3)
    p.add_argument("--ae-mode", choices=("centralized", "localized"), default="centralized")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metrics", default="tvd,cc,delta_bar,mp", help="comma-separated metric subset")
    p.add_argument("--k", type=int, default=8, help="neighbors per node")
    p.add_argument("--bins", type=int, default=32, help="fingerprint histogram bins")
    p.add_argument("--delta-pairs", type=int, default=16, help="node pairs in the dependence average")
    p.add_argument("--b", type=int, default=1000, help="permutation count")
    p.add_argument("--alpha", type=float, default=0.05, help="test significance level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csisplit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"csisplit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1, help="worker threads for sweep and fit-dist")
    common.add_argument("--output-dir", default=".")
    common.add_argument("--config", default=None, help="flat key = value file overriding flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic reciprocal dataset")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", parents=[common], help="PCA split of a CSI file")
    p.add_argument("--input", required=True)
    p.add_argument("--d-hat", type=int, default=1)
    p.add_argument("--d1", type=int, default=3)
    p.add_argument("--d2", type=int, default=20)
    p.add_argument("--output-predictable", default=None)
    p.add_argument("--output-unpredictable", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("kpca", parents=[common], help="kernel-PCA split of a CSI file")
    p.add_argument("--input", required=True)
    p.add_argument("--d-hat", type=int, default=1)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--kernel-variant", choices=KERNEL_VARIANTS, default="conjugate")
    p.set_defaults(func=cmd_kpca)

    p = sub.add_parser("ae-train", parents=[common], help="train an autoencoder on a CSI file")
    p.add_argument("--input", required=True)
    p.add_argument("--geometry", default=None)
    p.add_argument("--d-hat", type=int, default=1)
    p.add_argument("--loss", choices=("e1", "e2"), default="e1")
    p.add_argument("--ae-epochs", type=int, default=200)
    p.add_argument("--ae-batch-size", type=int, default=32)
    p.add_argument("--ae-learning-rate", type=float, default=1e-3)
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--weights-out", default=None)
    p.add_argument("--log", default=None, help="JSON-lines training log path")
    p.set_defaults(func=cmd_ae_train)

    p = sub.add_parser("ae-decompose", parents=[common], help="apply trained weights to a CSI file")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--geometry", default=None)
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_ae_decompose)

    p = sub.add_parser("dhsic", parents=[common], help="independence test between node sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--nodes", required=True, help="comma-separated node indices (d >= 2)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--b", type=int, default=1000)
    p.set_defaults(func=cmd_dhsic)

    p = sub.add_parser("tvd-curve", parents=[common], help="fingerprint separability vs rank")
    p.add_argument("--input", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--d-hat-max", type=int, default=10)
    p.add_argument("--bins", type=int, default=32)
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_tvd_curve)

    p = sub.add_parser("skg-mp", parents=[common], help="uplink/downlink mismatch probability")
    p.add_argument("--input-ul", required=True)
    p.add_argument("--input-dl", required=True)
    p.set_defaults(func=cmd_skg_mp)

    p = sub.add_parser("fit-dist", parents=[common], help="fit amplitude/phase distributions")
    p.add_argument("--input", required=True)
    p.add_argument("--component", choices=("amplitude", "phase"), default="amplitude")
    p.set_defaults(func=cmd_fit_dist)

    p = sub.add_parser("sweep", parents=[common], help="metric grid over unpredictable bands")
    p.add_argument("--input-ul", required=True)
    p.add_argument("--input-dl", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--d1-min", type=int, default=1)
    p.add_argument("--d1-max", type=int, default=21)
    p.add_argument("--d2-min", type=int, default=2)
    p.add_argument("--d2-max", type=int, default=30)
    p.add_argument("--step", type=int, default=2)
    p.add_argument("--delta-pairs", type=int, default=0, help="0 skips the dependence metric")
    p.add_argument("--b", type=int, default=1000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", parents=[common], help="method comparison table on one dataset")
    p.add_argument("--input-ul", required=True)
    p.add_argument("--input-dl", required=True)
    p.add_argument("--geometry", required=True)
    p.add_argument("--methods", default="none,pca,kpca,ae1,ae2")
    _add_method_flags(p, with_method=False)
    _add_metric_flags(p)
    p.set_defaults(func=cmd_compare, source="files", method="none")

    p = sub.add_parser("pipeline", parents=[common], help="dataset -> method -> metrics report")
    p.add_argument("--source", choices=("simulate", "files"), default="simulate")
    p.add_argument("--input-ul", default=None)
    p.add_argument("--input-dl", default=None)
    p.add_argument("--geometry", default=None)
    _add_sim_flags(p)
    _add_method_flags(p)
    _add_metric_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        args.func(args)
        return 0
    except Exception as exc:  # pragma: no cover - exercised via subcommand tests
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
