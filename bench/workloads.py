"""The benchmark's workloads: inputs made from a seed, one timed iteration
through csisplit's public entry points, and the checks on its outputs.

Every csisplit function is called through its module attribute at call time,
so the traced run's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

from csisplit import core, dependence, pca, pipeline, simulate, skg

# outputs of the default seed are compared with REFERENCE_FILE within REFERENCE_TOL
REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_TOL = 1e-9
CROSS_CHECK_TOL = 1e-12


def pinned(key: str) -> bool:
    """Whether an output is compared with the reference. Not the dependence
    level, whose permutations a faster null may legitimately redraw, and not
    the autoencoder's, whose training amplifies last-digit BLAS differences
    (two BLAS threads instead of one move ae2.avg_cc by 8e-3)."""
    return not (key.endswith("avg_delta_bar") or key.startswith("ae"))


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Path], object]  # (seed, work directory) -> state
    run: Callable[[object], object]  # the timed iteration
    inspect: Callable[[object, object], tuple[dict[str, float], list[str]]]  # -> (outputs, problems)


def metric_problems(outputs: dict[str, float]) -> list[str]:
    """Range check of every named metric, by the metric's base name."""
    problems = []
    for key, value in outputs.items():
        base = key.rsplit(".", 1)[-1]
        if not math.isfinite(value):
            problems.append(f"{key}={value} is not finite")
        elif base == "avg_tvd" and not 0.0 <= value <= 1.0:
            problems.append(f"{key}={value} outside [0, 1]")
        elif base == "avg_cc" and not -1.0 <= value <= 1.0:
            problems.append(f"{key}={value} outside [-1, 1]")
        elif base == "avg_mp" and not 0.0 <= value <= 1.0:
            problems.append(f"{key}={value} outside [0, 1]")
        elif base == "avg_delta_bar" and not (value == 0.0 or value > 1.0):
            problems.append(f"{key}={value} is neither 0 nor above 1")
    return problems


def reference_problems(workload: str, outputs: dict[str, float], reference: dict) -> list[str]:
    """Differences of the pinned outputs from the committed default-seed ones."""
    expected = reference.get(workload)
    if expected is None:
        return [f"no reference outputs for {workload}"]
    keys = {k for k in outputs if pinned(k)}
    problems = [f"{k} missing from the reference" for k in sorted(keys - expected.keys())]
    problems += [f"{k} missing from the outputs" for k in sorted(expected.keys() - keys)]
    for key in sorted(keys & expected.keys()):
        if abs(outputs[key] - expected[key]) > REFERENCE_TOL:
            problems.append(f"{key}={outputs[key]!r}, reference {expected[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# paper-default: the paper's headline pipeline run, dominated by dHSIC
# ---------------------------------------------------------------------------


def _paper_setup(seed: int, _workdir: Path) -> pipeline.PipelineConfig:
    # one dependence test at M=512 with B=250 permutations, instead of 16 tests
    # with B=1000, keeps an iteration to about two seconds, so that a run holds
    # enough iterations for a steady median; the other fields are defaults
    return pipeline.PipelineConfig(sim=simulate.SimConfig(seed=seed), seed=seed, delta_pairs=1, delta_b=250)


def _pipeline_inspect(_cfg, report: dict) -> tuple[dict[str, float], list[str]]:
    outputs = {k: float(v) for k, v in report["metrics"].items()}
    return outputs, metric_problems(outputs)


PAPER_DEFAULT = Workload("paper-default", _paper_setup, lambda cfg: pipeline.run_pipeline(cfg), _pipeline_inspect)


# ---------------------------------------------------------------------------
# band-sweep: the sweep command over CSI files; no dHSIC call
# ---------------------------------------------------------------------------

SWEEP_GRID = (8, 8)  # 110 cells x 512 neighbor pairs: about three seconds an iteration
SWEEP_CELLS = 110  # the sweep defaults: d1 in 1..21 and d2 in 2..30, step 2, d1 <= d2
CHECK_CELL = (3, 20)  # the pipeline's default band


@dataclass
class SweepState:
    cli: ModuleType
    directory: Path
    argv: list[str]
    expected_cell: tuple[float, float] | None = None


def _sweep_setup(seed: int, workdir: Path) -> SweepState:
    # imported here, not above: the CLI module pulls in scipy.stats, a cost of
    # this workload's set-up only
    from csisplit import cli

    out = simulate.simulate(simulate.SimConfig(grid_shape=SWEEP_GRID, seed=seed))
    core.write_csi_file(out.uplink, workdir / "uplink.csi")
    core.write_csi_file(out.downlink, workdir / "downlink.csi")
    pipeline.write_geometry(out.geometry, workdir / "geometry.json")
    argv = [
        "sweep",
        "--input-ul", str(workdir / "uplink.csi"),
        "--input-dl", str(workdir / "downlink.csi"),
        "--geometry", str(workdir / "geometry.json"),
        "--output-dir", str(workdir / "out"),
        "--seed", str(seed),
    ]
    return SweepState(cli=cli, directory=workdir, argv=argv)


def _sweep_run(state: SweepState) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        code = state.cli.main(state.argv)
    if code != 0:
        raise RuntimeError(f"csisplit sweep exited with {code}")
    return code


def _expected_cell(state: SweepState) -> tuple[float, float]:
    """The check cell recomputed through pca.decompose on the same files."""
    d = state.directory
    ul = core.to_real_view(core.read_csi_file(d / "uplink.csi"))
    dl = core.to_real_view(core.read_csi_file(d / "downlink.csi"))
    geom = pipeline.read_geometry(d / "geometry.json")
    basis = pca.fit_pca(ul)
    band = pca.DecompConfig(d_hat=1, d1=CHECK_CELL[0], d2=CHECK_CELL[1])
    band_ul = pca.decompose(ul, basis, band).unpredictable
    band_dl = pca.decompose(dl, basis, band).unpredictable
    return dependence.avg_neighbor_cc(band_ul, geom, 8), skg.avg_mp(band_ul, band_dl).avg_mp


def _sweep_inspect(state: SweepState, _code) -> tuple[dict[str, float], list[str]]:
    out_dir = state.directory / "out"
    cells = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))["cells"]
    for name in ("sweep.json", "sweep.csv"):  # the next iteration must write them anew
        (out_dir / name).unlink()
    outputs = {}
    for cell in cells:
        outputs[f"cell.{cell['d1']}.{cell['d2']}.avg_cc"] = float(cell["avg_cc"])
        outputs[f"cell.{cell['d1']}.{cell['d2']}.avg_mp"] = float(cell["avg_mp"])
    problems = metric_problems(outputs)
    if len(cells) != SWEEP_CELLS:
        problems.append(f"{len(cells)} sweep cells, expected {SWEEP_CELLS}")
    if state.expected_cell is None:
        state.expected_cell = _expected_cell(state)
    prefix = f"cell.{CHECK_CELL[0]}.{CHECK_CELL[1]}"
    for suffix, want in zip(("avg_cc", "avg_mp"), state.expected_cell):
        got = outputs.get(f"{prefix}.{suffix}", math.nan)
        if not abs(got - want) <= CROSS_CHECK_TOL:
            problems.append(f"{prefix}.{suffix}={got!r}, pca.decompose gives {want!r}")
    return outputs, problems


BAND_SWEEP = Workload("band-sweep", _sweep_setup, _sweep_run, _sweep_inspect)


# ---------------------------------------------------------------------------
# grid-1600: the n-scaling point, kpca and the pair autoencoder at n=1600
# ---------------------------------------------------------------------------

GRID_METHODS = ("kpca", "ae2")


def _grid_setup(seed: int, _workdir: Path) -> list[pipeline.PipelineConfig]:
    sim = simulate.SimConfig(grid_shape=(40, 40), m=64, seed=seed)
    return [
        pipeline.PipelineConfig(sim=sim, method=method, metrics=("tvd", "cc", "mp"), ae_epochs=5, seed=seed)
        for method in GRID_METHODS
    ]


def _grid_run(cfgs: list[pipeline.PipelineConfig]) -> list[dict]:
    return [pipeline.run_pipeline(cfg) for cfg in cfgs]


def _grid_inspect(_cfgs, reports: list[dict]) -> tuple[dict[str, float], list[str]]:
    outputs = {
        f"{report['config']['method']}.{key}": float(value)
        for report in reports
        for key, value in report["metrics"].items()
    }
    return outputs, metric_problems(outputs)


GRID_1600 = Workload("grid-1600", _grid_setup, _grid_run, _grid_inspect)

WORKLOADS = {w.name: w for w in (PAPER_DEFAULT, BAND_SWEEP, GRID_1600)}
