"""Command-line interface.

Subcommands: simulate, decompose, ae-train, ae-decompose, dhsic,
tvd-curve, skg-mp, fit-dist, sweep, compare, pipeline. ``decompose
--method {pca,kpca}`` splits one CSI file, once, with the pipeline's
decomposer for the method and writes predictable.csi, unpredictable.csi
and decompose.json (the method's details); ae-train and ae-decompose
persist and apply autoencoder weights, and ae-decompose splits with the
pipeline's ``ae_split``. Global flags --seed, --output-dir and --config: a
flat key = value file whose entries are parsed as --key=value after the
command line, so they override it and take the flag's type, choices and
errors; keys are the subcommand's long option names, with dashes or
underscores. Every option shared by several subcommands is declared once,
with one default and one help.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline as pl
from .autoencoder import TrainConfig, build_pair_dataset, default_mlp_spec, read_weights, train, write_weights
from .core import from_real_view, read_csi_file, to_real_view, write_csi_file
from .dependence import dhsic_test
from .kpca import KERNEL_VARIANTS
from .pca import fit_pca, sweep
from .simulate import SimConfig, simulate
from .skg import avg_mp


#: largest --config file read, in bytes
MAX_CONFIG_BYTES = 1 << 20


class ConfigError(ValueError):
    """Malformed --config file: oversized, not UTF-8, a line that is not
    ``key = value``, or a key that is no option of the subcommand."""


def _config_tokens(path) -> list[str]:
    """A flat ``key = value`` file of at most ``MAX_CONFIG_BYTES`` as the
    tokens ``--key=value``, underscores in keys read as dashes; the ``=``
    form keeps a value such as -5 a value."""
    try:
        text = pl.read_capped(path, MAX_CONFIG_BYTES, ConfigError).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 file: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return tokens


def _out(args, name: str, given=None) -> Path:
    """The path ``given``, or else ``name`` in the output directory; makes
    its directory."""
    path = Path(given) if given else Path(args.output_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


#: SimConfig fields that are options of the same name
_SIM_OPTIONS = (
    "m",
    "snr_db",
    "rician_k",
    "path_loss_exponent",
    "shadowing_sigma_db",
    "shadowing_corr_m",
    "phase_sigma_rad",
    "phase_corr_m",
    "speed_mps",
    "carrier_hz",
    "snapshot_interval_s",
    "los_doppler_frac",
    "diffuse_corr_m",
)
#: PipelineConfig fields whose option has another name
_PIPELINE_OPTIONS = {
    "ul_path": "input_ul",
    "dl_path": "input_dl",
    "geometry_path": "geometry",
    "ae_loss_mu": "mu",
    "k_neighbors": "k",
    "delta_b": "b",
}


def _sim_config(args) -> SimConfig:
    return SimConfig(
        grid_shape=(args.grid_rows, args.grid_cols),
        grid_spacing_m=args.spacing,
        seed=args.seed,
        **{name: getattr(args, name) for name in _SIM_OPTIONS},
    )


def _pipeline_config(args, **overrides) -> pl.PipelineConfig:
    """The PipelineConfig of the options the subcommand declares; fields
    without an option keep their defaults."""
    values = {}
    for f in dataclasses.fields(pl.PipelineConfig):
        option = _PIPELINE_OPTIONS.get(f.name, f.name)
        if hasattr(args, option):
            values[f.name] = getattr(args, option)
    if "metrics" in values:
        values["metrics"] = tuple(values["metrics"].split(",")) if values["metrics"] else pl.ALL_METRICS
    values["sim"] = _sim_config(args) if hasattr(args, "m") else SimConfig(seed=args.seed)
    return pl.PipelineConfig(**{**values, **overrides})


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> None:
    out = simulate(_sim_config(args))
    paths = pl.write_sim_output(out, args.output_dir)
    print(json.dumps(paths, sort_keys=True, indent=2))


def _write_split(args, csi, parts, predictable_path=None, unpredictable_path=None) -> dict[str, str]:
    """Write the (predictable, unpredictable) real views of a CSI file's split
    as CSI files with the input's direction and SNR; returns their paths."""
    paths = {
        "predictable": str(_out(args, "predictable.csi", predictable_path)),
        "unpredictable": str(_out(args, "unpredictable.csi", unpredictable_path)),
    }
    for part, path in zip(parts, paths.values()):
        write_csi_file(from_real_view(part, direction=csi.direction, snr_db=csi.snr_db), path)
    return paths


def cmd_decompose(args) -> None:
    csi = read_csi_file(args.input)
    # pca and kpca fit on the one view they split and need no geometry
    (parts,), details, _ = pl.DECOMPOSERS[args.method](_pipeline_config(args), [to_real_view(csi)], None)
    paths = _write_split(args, csi, parts, args.output_predictable, args.output_unpredictable)
    paths["details"] = str(_out(args, "decompose.json"))
    pl.write_report(details, paths["details"])
    print(json.dumps(paths, sort_keys=True, indent=2))


def cmd_ae_train(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    if args.loss == "e2":
        if not args.geometry:
            raise ValueError("--geometry is required for the e2 loss (neighbor pairs)")
        dataset = build_pair_dataset(view, pl.read_geometry(args.geometry), args.k)
    else:
        dataset = view
    spec = default_mlp_spec(dataset.shape[0], args.d_hat)
    cfg = TrainConfig(
        loss=args.loss,
        learning_rate=args.ae_learning_rate,
        batch_size=args.ae_batch_size,
        epochs=args.ae_epochs,
        seed=args.seed,
        mu=args.mu,
    )
    log_path = _out(args, "ae_train_log.jsonl", args.log)
    model = train(dataset, spec, cfg, log_path=log_path)
    weights_path = _out(args, "ae.weights", args.weights_out)
    write_weights(model, weights_path)
    print(json.dumps({"weights": str(weights_path), "final_loss": model.final_loss, "log": str(log_path)}))


def cmd_ae_decompose(args) -> None:
    csi = read_csi_file(args.input)
    geom = pl.read_geometry(args.geometry) if args.geometry else None
    parts = pl.ae_split(read_weights(args.weights), to_real_view(csi), geom, args.k)
    print(json.dumps(_write_split(args, csi, parts), sort_keys=True, indent=2))


def cmd_dhsic(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    nodes = []
    for tok in args.nodes.split(","):
        try:
            nodes.append(int(tok))
        except ValueError:
            raise ValueError(f"--nodes entry {tok!r} is not an integer index") from None
    if len(nodes) < 2:
        raise ValueError("--nodes needs at least two comma-separated indices")
    for pos, node in enumerate(nodes):
        if not 0 <= node < view.shape[1]:
            raise ValueError(f"--nodes index {node} is outside [0, {view.shape[1]})")
        if node in nodes[:pos]:
            raise ValueError(f"--nodes repeats index {node}")
    report = dhsic_test([view[:, i] for i in nodes], alpha=args.alpha, b=args.b, seed=args.seed)
    payload = {**dataclasses.asdict(report), "nodes": nodes, "seed": args.seed}
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
    # imported here: distfit loads scipy.stats, about half of this module's
    # import time, and no other subcommand needs it
    from .distfit import ALL_FAMILIES, PHASE_FAMILIES, fit_families

    csi = read_csi_file(args.input)
    if args.component == "amplitude":
        samples = np.abs(csi.data).ravel()
        families = ALL_FAMILIES
    else:
        samples = np.angle(csi.data).ravel()
        families = PHASE_FAMILIES
    results = fit_families(samples, families)
    payload = [dataclasses.asdict(r) for r in results]
    pl.write_report({"component": args.component, "fits": payload}, _out(args, "fit_dist.json"))
    print(json.dumps(pl._jsonify(payload), sort_keys=True, indent=2))


def cmd_sweep(args) -> None:
    if args.step < 1:
        raise ValueError(f"--step must be at least 1, got {args.step}")
    ul = read_csi_file(args.input_ul)
    dl = read_csi_file(args.input_dl)
    geom = pl.read_geometry(args.geometry)
    ul_view, dl_view = to_real_view(ul), to_real_view(dl)
    d2_grid = range(args.d2_min, args.d2_max + 1, args.step)
    # the sweep reads components 1 to the largest d2 and no further
    basis = fit_pca(ul_view, top=max(d2_grid, default=None))
    cells = sweep(
        ul_view,
        dl_view,
        basis,
        d1_grid=range(args.d1_min, args.d1_max + 1, args.step),
        d2_grid=d2_grid,
        geom=geom,
        k=args.k,
        delta_pairs=args.delta_pairs,
        delta_b=args.b,
        delta_alpha=args.alpha,
        seed=args.seed,
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
    p.add_argument("--grid-rows", type=int, default=defaults.grid_shape[0])
    p.add_argument("--grid-cols", type=int, default=defaults.grid_shape[1])
    p.add_argument("--spacing", type=float, default=defaults.grid_spacing_m, help="grid spacing [m]")
    for name in _SIM_OPTIONS:
        value = getattr(defaults, name)
        help_text = "snapshots per node" if name == "m" else None
        p.add_argument(f"--{name.replace('_', '-')}", type=type(value), default=value, help=help_text)


_DEFAULTS = pl.PipelineConfig()

#: the options that several subcommands take, each with its one default and help
_FLAGS = {
    "input": dict(required=True, help="CSI file"),
    "input-ul": dict(default=None, help="uplink CSI file"),
    "input-dl": dict(default=None, help="downlink CSI file"),
    "geometry": dict(default=None, help="node geometry JSON"),
    "d-hat": dict(type=int, default=_DEFAULTS.d_hat, help="predictable rank"),
    "d1": dict(type=int, default=_DEFAULTS.d1, help="PCA unpredictable band start (1-based)"),
    "d2": dict(type=int, default=_DEFAULTS.d2, help="PCA unpredictable band end (inclusive)"),
    "gamma": dict(type=float, default=_DEFAULTS.gamma, help="kernel ridge regularizer (default 1e-3 trace(K_Y)/N)"),
    "sigma": dict(type=float, default=_DEFAULTS.sigma, help="kernel bandwidth override (default: median rule)"),
    "kernel-variant": dict(choices=KERNEL_VARIANTS, default=_DEFAULTS.kernel_variant),
    "mu": dict(type=float, default=_DEFAULTS.ae_loss_mu, help="reconstruction weight in the e2 composite loss"),
    "ae-epochs": dict(type=int, default=_DEFAULTS.ae_epochs),
    "ae-batch-size": dict(type=int, default=_DEFAULTS.ae_batch_size),
    "ae-learning-rate": dict(type=float, default=_DEFAULTS.ae_learning_rate),
    "ae-mode": dict(choices=("centralized", "localized"), default=_DEFAULTS.ae_mode),
    "metrics": dict(default=",".join(_DEFAULTS.metrics), help="comma-separated metric subset"),
    "k": dict(type=int, default=_DEFAULTS.k_neighbors, help="neighbors per node"),
    "bins": dict(type=int, default=_DEFAULTS.bins, help="fingerprint histogram bins"),
    "delta-pairs": dict(
        type=int, default=_DEFAULTS.delta_pairs, help="node pairs in the dependence average (sweep: 0 skips it)"
    ),
    "b": dict(
        type=int, default=_DEFAULTS.delta_b, help="permutations, where the permutation null runs (M < 131 or d >= 3)"
    ),
    "alpha": dict(type=float, default=_DEFAULTS.alpha, help="test significance level"),
}
_KPCA_FLAGS = ("gamma", "sigma", "kernel-variant")
_AE_FLAGS = ("mu", "ae-epochs", "ae-batch-size", "ae-learning-rate", "ae-mode")
_METHOD_FLAGS = ("d-hat", "d1", "d2", *_KPCA_FLAGS, *_AE_FLAGS)
_METRIC_FLAGS = ("metrics", "k", "bins", "delta-pairs", "b", "alpha")


def _add_flags(p: argparse.ArgumentParser, *names: str, required: tuple[str, ...] = ()) -> None:
    """Add the shared options ``names`` to ``p``; those in ``required`` become mandatory."""
    for name in names:
        p.add_argument(f"--{name}", **{**_FLAGS[name], **({"required": True} if name in required else {})})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="csisplit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"csisplit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output-dir", default=".")
    common.add_argument("--config", default=None, help="flat key = value file overriding flags")
    sub = parser.add_subparsers(dest="command", required=True)
    files = ("input-ul", "input-dl", "geometry")

    p = sub.add_parser("simulate", parents=[common], help="generate a synthetic reciprocal dataset")
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", parents=[common], help="PCA or kernel-PCA split of a CSI file")
    p.add_argument("--method", choices=("pca", "kpca"), default="pca", help="decomposition method")
    _add_flags(p, "input", "d-hat", "d1", "d2", *_KPCA_FLAGS)
    p.add_argument("--output-predictable", default=None)
    p.add_argument("--output-unpredictable", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("ae-train", parents=[common], help="train an autoencoder on a CSI file")
    _add_flags(p, "input", "geometry", "d-hat", "ae-epochs", "ae-batch-size", "ae-learning-rate", "mu", "k")
    p.add_argument("--loss", choices=("e1", "e2"), default="e1")
    p.add_argument("--weights-out", default=None)
    p.add_argument("--log", default=None, help="JSON-lines training log path")
    p.set_defaults(func=cmd_ae_train)

    p = sub.add_parser("ae-decompose", parents=[common], help="apply trained weights to a CSI file")
    _add_flags(p, "input", "geometry", "k")
    p.add_argument("--weights", required=True)
    p.set_defaults(func=cmd_ae_decompose)

    p = sub.add_parser("dhsic", parents=[common], help="independence test between node sequences")
    _add_flags(p, "input", "alpha", "b")
    p.add_argument("--nodes", required=True, help="comma-separated node indices (d >= 2)")
    p.set_defaults(func=cmd_dhsic)

    p = sub.add_parser("tvd-curve", parents=[common], help="fingerprint separability vs rank")
    _add_flags(p, "input", "geometry", "bins", "k", required=("geometry",))
    p.add_argument("--d-hat-max", type=int, default=10)
    p.set_defaults(func=cmd_tvd_curve)

    p = sub.add_parser("skg-mp", parents=[common], help="uplink/downlink mismatch probability")
    _add_flags(p, "input-ul", "input-dl", required=files)
    p.set_defaults(func=cmd_skg_mp)

    p = sub.add_parser("fit-dist", parents=[common], help="fit amplitude/phase distributions")
    _add_flags(p, "input")
    p.add_argument("--component", choices=("amplitude", "phase"), default="amplitude")
    p.set_defaults(func=cmd_fit_dist)

    p = sub.add_parser("sweep", parents=[common], help="metric grid over unpredictable bands")
    _add_flags(p, *files, "delta-pairs", "b", "alpha", "k", required=files)
    p.add_argument("--d1-min", type=int, default=1)
    p.add_argument("--d1-max", type=int, default=21)
    p.add_argument("--d2-min", type=int, default=2)
    p.add_argument("--d2-max", type=int, default=30)
    p.add_argument("--step", type=int, default=2)
    p.set_defaults(func=cmd_sweep, delta_pairs=0)

    p = sub.add_parser("compare", parents=[common], help="method comparison table on one dataset")
    _add_flags(p, *files, *_METHOD_FLAGS, *_METRIC_FLAGS, required=files)
    p.add_argument("--methods", default=",".join(pl.METHODS))
    p.set_defaults(func=cmd_compare, source="files", method="none")

    p = sub.add_parser("pipeline", parents=[common], help="dataset -> method -> metrics report")
    p.add_argument("--source", choices=("simulate", "files"), default="simulate")
    p.add_argument("--method", choices=pl.METHODS, default=_DEFAULTS.method, help="decomposition method")
    _add_flags(p, *files, *_METHOD_FLAGS, *_METRIC_FLAGS)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's entries come last, so they override the command line
            path = args.config
            # "\0" is no path, so the re-parse keeps it unless an entry of the
            # file names a config file of its own, which would go unread
            args, unknown = parser.parse_known_args([*argv, "--config=\0", *_config_tokens(path)])
            if args.config != "\0":
                unknown.insert(0, "--config")
            if unknown:
                raise ConfigError(f"{path}: unknown key {unknown[0][2:].split('=', 1)[0]!r}")
        args.func(args)
        return 0
    except Exception as exc:  # pragma: no cover - exercised via subcommand tests
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
