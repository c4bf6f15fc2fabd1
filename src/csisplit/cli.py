"""Command-line interface.

Subcommands: simulate, fit, split, dhsic, tvd-curve, skg-mp, fit-dist,
sweep, compare, pipeline. ``fit --method {pca,kpca,ae1,ae2}`` fits one
method on one CSI file as the pipeline fits the uplink (``pipeline.fit``;
ae2 needs --geometry) and writes model.bin, fit.json (its details) and an
autoencoder's training log. ``split --model`` splits a CSI file into
predictable.csi and unpredictable.csi at the settings the model was fitted
with. Global flags --seed, --output-dir and --config: a flat key = value
file whose entries are parsed as --key=value after the command line, so
they override it and take the flag's type, choices and errors; keys are
the subcommand's long option names, with dashes or underscores. Every
option shared by several subcommands is declared once, with one default
and one help. Each option that sets a config field is stored under that
field's name (--k as k_neighbors, --input-ul as ul_path, --spacing as
grid_spacing_m), and the simulator's options are the ``SimConfig`` fields
but grid_shape (--grid-rows, --grid-cols) and seed (--seed). The list
options --metrics, --methods and --nodes take comma-separated entries,
stripped; an empty or repeated entry is an error that names the flag. fit,
sweep, compare and pipeline build a ``PipelineConfig``, which checks
itself when built, before any file is read; sweep checks --b and --alpha
only if --delta-pairs > 0.

Importing this module loads no SciPy module. Each SciPy import sits in
the function that calls it: kpca's fit and split, the softplus derivative
of autoencoder training, and ``distfit`` for fit-dist. A command loads
SciPy only when it reaches one of them; simulate, sweep, skg-mp,
tvd-curve, dhsic, fit --method pca, split with any model but kpca's,
compare with methods none and pca, and pipeline with those methods on
files or a simulated source never do.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline as pl
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


#: the simulator's options: every SimConfig field but grid_shape (--grid-rows
#: and --grid-cols) and seed (the global --seed)
_SIM_FIELDS = tuple(f.name for f in dataclasses.fields(SimConfig) if f.name not in ("grid_shape", "seed"))
_SIM_DEFAULTS = SimConfig()
_SIM_HELP = {"grid_spacing_m": "grid spacing [m]", "m": "snapshots per node"}


def _list_option(value: str, flag: str, parse=str) -> list:
    """The comma-separated entries of a list option, stripped and each read
    by ``parse``; an empty value has none. An empty or repeated entry is an
    error that names ``flag``."""
    entries = []
    for token in [t.strip() for t in value.split(",")] if value.strip() else []:
        if not token:
            raise ValueError(f"{flag} has an empty entry: {value!r}")
        entry = parse(token)
        if entry in entries:
            raise ValueError(f"{flag} repeat {entry!r}")
        entries.append(entry)
    return entries


def _sim_config(args) -> SimConfig:
    return SimConfig(
        grid_shape=(args.grid_rows, args.grid_cols),
        seed=args.seed,
        **{name: getattr(args, name) for name in _SIM_FIELDS},
    )


def _pipeline_config(args, **overrides) -> pl.PipelineConfig:
    """The PipelineConfig of the options the subcommand declares, each
    stored under its field's name; fields without an option keep their
    defaults."""
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(pl.PipelineConfig) if hasattr(args, f.name)}
    if "metrics" in values:
        values["metrics"] = tuple(_list_option(values["metrics"], "--metrics"))
    values["sim"] = _sim_config(args) if hasattr(args, "m") else SimConfig(seed=args.seed)
    return pl.PipelineConfig(**{**values, **overrides})


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> None:
    out = simulate(_sim_config(args))
    paths = pl.write_sim_output(out, args.output_dir)
    print(json.dumps(paths, sort_keys=True, indent=2))


def cmd_fit(args) -> None:
    cfg = _pipeline_config(args)
    view = to_real_view(read_csi_file(args.input))
    # only ae2's pairs read a given geometry: the other methods fit on node columns alone
    geom = pl.read_geometry(args.geometry_path) if args.geometry_path and cfg.method == "ae2" else None
    log_path = _out(args, "ae_train_log.jsonl", args.log) if cfg.method in ("ae1", "ae2") else None
    fitted = pl.fit(cfg, view, geom, log_path=log_path)
    paths = {"model": str(_out(args, "model.bin")), "details": str(_out(args, "fit.json"))}
    pl.write_model(fitted, paths["model"])
    pl.write_report(pl.describe(fitted), paths["details"])
    print(json.dumps({**paths, **({"log": str(log_path)} if log_path else {})}, sort_keys=True, indent=2))


def cmd_split(args) -> None:
    fitted = pl.read_model(args.model)
    csi = read_csi_file(args.input)
    geom = pl.read_geometry(args.geometry_path) if args.geometry_path else None
    parts = pl.split(fitted, to_real_view(csi), geom)
    paths = {"predictable": str(_out(args, "predictable.csi")), "unpredictable": str(_out(args, "unpredictable.csi"))}
    for part, path in zip(parts, paths.values()):
        write_csi_file(from_real_view(part, direction=csi.direction, snr_db=csi.snr_db), path)
    print(json.dumps(paths, sort_keys=True, indent=2))


def _node_index(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"--nodes entry {token!r} is not an integer index") from None


def cmd_dhsic(args) -> None:
    csi = read_csi_file(args.input)
    view = to_real_view(csi)
    nodes = _list_option(args.nodes, "--nodes", _node_index)
    if len(nodes) < 2:
        raise ValueError("--nodes needs at least two comma-separated indices")
    for node in nodes:
        if not 0 <= node < view.shape[1]:
            raise ValueError(f"--nodes index {node} is outside [0, {view.shape[1]})")
    report = dhsic_test([view[:, i] for i in nodes], alpha=args.alpha, b=args.delta_b, seed=args.seed)
    payload = {**dataclasses.asdict(report), "nodes": nodes, "seed": args.seed}
    pl.write_report(payload, _out(args, "dhsic.json"))
    print(json.dumps(pl._jsonify(payload), sort_keys=True, indent=2))


def cmd_tvd_curve(args) -> None:
    csi = read_csi_file(args.input)
    geom = pl.read_geometry(args.geometry_path)
    records = pl.tvd_curve(csi, geom, d_hat_max=args.d_hat_max, k=args.k_neighbors, bins=args.bins)
    pl.write_report({"curve": records, "seed": args.seed}, _out(args, "tvd_curve.json"))
    print(json.dumps(records, sort_keys=True, indent=2))


def cmd_skg_mp(args) -> None:
    ul = read_csi_file(args.ul_path)
    dl = read_csi_file(args.dl_path)
    report = avg_mp(to_real_view(ul), to_real_view(dl))
    payload = {"per_node_mp": report.per_node_mp.tolist(), "avg_mp": report.avg_mp}
    pl.write_report(payload, _out(args, "skg_mp.json"))
    print(json.dumps({"avg_mp": report.avg_mp}))


def cmd_fit_dist(args) -> None:
    # imported here: distfit loads scipy.stats, scipy.optimize and
    # scipy.special, ten times this module's own import time, and no other
    # subcommand needs it
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
    metrics = ("cc", "mp", "delta_bar") if args.delta_pairs > 0 else ("cc", "mp")
    cfg = _pipeline_config(args, source="files", metrics=metrics)
    ul, dl, geom = pl.load_dataset(cfg)
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
        k=cfg.k_neighbors,
        delta_pairs=cfg.delta_pairs,
        delta_b=cfg.delta_b,
        delta_alpha=cfg.alpha,
        seed=cfg.seed,
    )
    records = [dataclasses.asdict(c) for c in cells]
    pl.write_report({"seed": cfg.seed, "cells": records}, _out(args, "sweep.json"))
    pl.write_rows_csv(
        [{k: ("" if v is None else v) for k, v in r.items()} for r in records], _out(args, "sweep.csv")
    )
    print(json.dumps({"cells": len(records), "output": str(_out(args, "sweep.json"))}))


def cmd_compare(args) -> None:
    methods = _list_option(args.methods, "--methods")
    report = pl.compare_methods(_pipeline_config(args), methods, output_dir=args.output_dir)
    print(json.dumps(pl._jsonify(report["rows"]), sort_keys=True, indent=2))


def cmd_pipeline(args) -> None:
    cfg = _pipeline_config(args)
    report = pl.run_pipeline(cfg, output_dir=args.output_dir)
    print(json.dumps(pl._jsonify(report["metrics"]), sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-rows", type=int, default=_SIM_DEFAULTS.grid_shape[0])
    p.add_argument("--grid-cols", type=int, default=_SIM_DEFAULTS.grid_shape[1])
    for name in _SIM_FIELDS:
        value = getattr(_SIM_DEFAULTS, name)
        flag = "--spacing" if name == "grid_spacing_m" else f"--{name.replace('_', '-')}"
        p.add_argument(flag, dest=name, type=type(value), default=value, help=_SIM_HELP.get(name))


_DEFAULTS = pl.PipelineConfig()

#: the options that several subcommands take, each with its one default and help
_FLAGS = {
    "input": dict(required=True, help="CSI file"),
    "input-ul": dict(dest="ul_path", default=None, help="uplink CSI file"),
    "input-dl": dict(dest="dl_path", default=None, help="downlink CSI file"),
    "geometry": dict(dest="geometry_path", default=None, help="node geometry JSON"),
    "d-hat": dict(type=int, default=_DEFAULTS.d_hat, help="predictable rank"),
    "d1": dict(type=int, default=_DEFAULTS.d1, help="PCA unpredictable band start (1-based)"),
    "d2": dict(type=int, default=_DEFAULTS.d2, help="PCA unpredictable band end (inclusive)"),
    "gamma": dict(type=float, default=_DEFAULTS.gamma, help="kernel ridge regularizer (default 1e-3 trace(K_Y)/N)"),
    "sigma": dict(type=float, default=_DEFAULTS.sigma, help="kernel bandwidth override (default: median rule)"),
    "kernel-variant": dict(choices=KERNEL_VARIANTS, default=_DEFAULTS.kernel_variant),
    "mu": dict(
        dest="ae_loss_mu",
        type=float,
        default=_DEFAULTS.ae_loss_mu,
        help="reconstruction weight in the e2 composite loss",
    ),
    "ae-epochs": dict(type=int, default=_DEFAULTS.ae_epochs),
    "ae-batch-size": dict(type=int, default=_DEFAULTS.ae_batch_size),
    "ae-learning-rate": dict(type=float, default=_DEFAULTS.ae_learning_rate),
    "ae-mode": dict(choices=pl.AE_MODES, default=_DEFAULTS.ae_mode),
    "metrics": dict(default=",".join(_DEFAULTS.metrics), help="comma-separated metric subset"),
    "k": dict(dest="k_neighbors", type=int, default=_DEFAULTS.k_neighbors, help="neighbors per node"),
    "bins": dict(type=int, default=_DEFAULTS.bins, help="fingerprint histogram bins"),
    "delta-pairs": dict(
        type=int, default=_DEFAULTS.delta_pairs, help="node pairs in the dependence average (sweep: 0 skips it)"
    ),
    "b": dict(
        dest="delta_b",
        type=int,
        default=_DEFAULTS.delta_b,
        help="permutations, where the permutation null runs (M < 131 or d >= 3)",
    ),
    "alpha": dict(type=float, default=_DEFAULTS.alpha, help="test significance level"),
}
_KPCA_FLAGS = ("gamma", "sigma", "kernel-variant")
#: the options that ``fit`` reads: every method option but the pipeline's --ae-mode
_FIT_FLAGS = ("d-hat", "d1", "d2", *_KPCA_FLAGS, "mu", "ae-epochs", "ae-batch-size", "ae-learning-rate")
_METHOD_FLAGS = (*_FIT_FLAGS, "ae-mode")
_SCORE_FLAGS = ("k", "delta-pairs", "b", "alpha")


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

    p = sub.add_parser("fit", parents=[common], help="fit a method on a CSI file and write its model file")
    p.add_argument("--method", choices=pl.METHODS[1:], default=_DEFAULTS.method, help="decomposition method")
    _add_flags(p, "input", "geometry", *_FIT_FLAGS, "k")
    p.add_argument("--log", default=None, help="JSON-lines training log path (ae1 and ae2)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("split", parents=[common], help="split a CSI file with a model file")
    _add_flags(p, "input", "geometry")
    p.add_argument("--model", required=True, help="model file written by fit")
    p.set_defaults(func=cmd_split)

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
    _add_flags(p, *files, *_METHOD_FLAGS, *_SCORE_FLAGS, required=files)
    p.add_argument("--methods", default=",".join(pl.METHODS))
    p.set_defaults(func=cmd_compare, source="files", method="none")

    p = sub.add_parser("pipeline", parents=[common], help="dataset -> method -> metrics report")
    p.add_argument("--source", choices=("simulate", "files"), default="simulate")
    p.add_argument("--method", choices=pl.METHODS, default=_DEFAULTS.method, help="decomposition method")
    _add_flags(p, *files, *_METHOD_FLAGS, "metrics", "bins", *_SCORE_FLAGS)
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
