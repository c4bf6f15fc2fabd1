import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import csisplit
from csisplit import cli, pipeline
from csisplit.autoencoder import decompose_ae, read_weights
from csisplit.core import CsiMatrix, read_csi_file, to_real_view, write_csi_file
from csisplit.distfit import ALL_FAMILIES, PHASE_FAMILIES, fit_families
from csisplit.pca import fit_pca, sweep

SUBCOMMANDS = (
    "simulate",
    "decompose",
    "ae-train",
    "ae-decompose",
    "dhsic",
    "tvd-curve",
    "skg-mp",
    "fit-dist",
    "sweep",
    "compare",
    "pipeline",
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sim")
    argv = ["simulate", "--grid-rows", "4", "--grid-cols", "4", "--m", "16", "--output-dir", str(directory)]
    assert cli.main(argv) == 0
    return directory


def _files(dataset):
    return [
        "--input-ul", str(dataset / "uplink.csi"),
        "--input-dl", str(dataset / "downlink.csi"),
        "--geometry", str(dataset / "geometry.json"),
    ]  # fmt: skip


def test_importing_the_cli_loads_neither_scipy_linalg_nor_scipy_stats():
    # a fresh interpreter: this one has loaded both through the test modules
    src = str(Path(csisplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, csisplit.cli; print(sorted(m for m in ('scipy.linalg', 'scipy.stats') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_files_equal_the_direct_sweep(dataset, tmp_path):
    assert cli.main(["sweep", *_files(dataset), "--output-dir", str(tmp_path)]) == 0
    ul = to_real_view(read_csi_file(dataset / "uplink.csi"))
    dl = to_real_view(read_csi_file(dataset / "downlink.csi"))
    geom = pipeline.read_geometry(dataset / "geometry.json")
    cells = sweep(ul, dl, fit_pca(ul), range(1, 22, 2), range(2, 31, 2), geom, k=8)
    records = [dataclasses.asdict(c) for c in cells]
    assert json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8")) == {"seed": 0, "cells": records}
    with open(tmp_path / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(float(r["d1"])), int(float(r["d2"]))) for r in rows] == [(c.d1, c.d2) for c in cells]
    assert [float(r["avg_cc"]) for r in rows] == [c.avg_cc for c in cells]
    assert [float(r["avg_mp"]) for r in rows] == [c.avg_mp for c in cells]
    assert {r["delta_bar"] for r in rows} == {""}


def test_sweep_band_beyond_the_basis_exits_1(dataset, tmp_path, capsys):
    # the 4x4, m=16 set has a 32-dimensional basis
    assert cli.main(["sweep", *_files(dataset), "--d2-max", "40", "--output-dir", str(tmp_path)]) == 1
    assert "band (1, 40) invalid for dimension 32" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize("step", ["0", "-2"])
def test_sweep_step_below_1_exits_1_naming_the_flag(dataset, tmp_path, capsys, step):
    assert cli.main(["sweep", *_files(dataset), "--step", step, "--output-dir", str(tmp_path)]) == 1
    assert f"--step must be at least 1, got {step}" in capsys.readouterr().err
    assert not (tmp_path / "sweep.json").exists()


@pytest.mark.parametrize(
    "component, families, part", [("amplitude", ALL_FAMILIES, np.abs), ("phase", PHASE_FAMILIES, np.angle)]
)
def test_fit_dist_file_equals_the_direct_fits(dataset, tmp_path, component, families, part):
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--component", component]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    expected = fit_families(part(read_csi_file(dataset / "uplink.csi").data).ravel(), families)
    payload = json.loads((tmp_path / "fit_dist.json").read_text(encoding="utf-8"))
    assert payload["component"] == component
    assert payload["fits"] == pipeline._jsonify([dataclasses.asdict(r) for r in expected])


def test_threads_option_is_rejected(dataset, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", *_files(dataset), "--output-dir", str(tmp_path), "--threads", "2"])
    assert excinfo.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_lists_no_threads_option(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "--output-dir" in out and "--threads" not in out


def test_config_file_threads_key_is_unknown(dataset, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("threads = 2\n", encoding="utf-8")
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--config", str(config)]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "unknown key 'threads'" in capsys.readouterr().err
    assert not (tmp_path / "fit_dist.json").exists()


def test_config_line_without_equals_names_file_and_line(dataset, tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# fits\ncomponent = phase\ncomponent phase\n", encoding="utf-8")
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--config", str(config)]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert f"{config}:3: expected 'key = value'" in capsys.readouterr().err


def _config(tmp_path, text: str) -> str:
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "raw, match",
    [
        (b"component phase\n", "expected 'key = value'"),
        (b" = 5\n", "expected 'key = value'"),
        (b"component = \xff\n", "not a UTF-8 file"),
    ],
)
def test_bad_config_file_raises_a_config_error(tmp_path, raw, match):
    path = tmp_path / "run.conf"
    path.write_bytes(raw)
    with pytest.raises(cli.ConfigError, match=match) as excinfo:
        cli._config_tokens(path)
    assert isinstance(excinfo.value, ValueError)


def test_oversized_config_file_is_refused_without_being_read(tmp_path):
    path = Path(_config(tmp_path, "component = phase\n"))
    os.truncate(path, cli.MAX_CONFIG_BYTES + 1)  # sparse: no disk blocks
    tracemalloc.start()
    try:
        with pytest.raises(cli.ConfigError, match=f"more than the {cli.MAX_CONFIG_BYTES}-byte limit"):
            cli._config_tokens(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18  # reading the file would allocate its 1 MiB


def test_config_line_without_a_key_names_file_and_line(dataset, tmp_path, capsys):
    config = _config(tmp_path, "component = phase\n = 5\n")
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--config", config]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert f"{config}:2: expected 'key = value'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, entry, option",
    [
        ("pipeline", "m = abc", "--m"),
        ("pipeline", "method = foo", "--method"),
        ("fit-dist", "component = bogus", "--component"),
    ],
)
def test_config_value_fails_as_the_flags_value_does(dataset, tmp_path, capsys, command, entry, option):
    argv = [command, "--config", _config(tmp_path, entry + "\n"), "--output-dir", str(tmp_path)]
    if command == "fit-dist":
        argv += ["--input", str(dataset / "uplink.csi")]
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert f"argument {option}: invalid" in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} == {"run.conf"}


def test_config_key_that_is_no_option_is_unknown(dataset, tmp_path, capsys):
    config = _config(tmp_path, "func = 1\n")
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--config", config]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert f"{config}: unknown key 'func'" in capsys.readouterr().err
    assert not (tmp_path / "fit_dist.json").exists()


@pytest.mark.parametrize("entry", ["config = {other}", "conf = {other}", "config = {same}"])
def test_config_file_naming_a_config_file_is_rejected(dataset, tmp_path, capsys, entry):
    # a second file would go unread, so the key is unknown, even as a prefix
    # or when it names the file itself
    config = tmp_path / "run.conf"
    config.write_text(entry.format(other=tmp_path / "nothere.conf", same=config) + "\n", encoding="utf-8")
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--config", str(config)]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert f"{config}: unknown key 'config'" in capsys.readouterr().err
    assert not (tmp_path / "fit_dist.json").exists()


def test_config_entries_override_the_command_line(dataset, tmp_path):
    # the file's phase overrides the command line's amplitude; a prefix of the
    # option name and underscores for dashes are read as the flag would be
    argv = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--component", "amplitude"]
    config = _config(tmp_path, "component = phase\n")
    assert cli.main([*argv, "--config", config, "--output-dir", str(tmp_path / "full")]) == 0
    config = _config(tmp_path, f"comp=phase\noutput_dir = {tmp_path / 'prefix'}\n")
    assert cli.main([*argv, "--config", config, "--output-dir", str(tmp_path / "ignored")]) == 0
    assert not (tmp_path / "ignored").exists()
    flag = ["fit-dist", "--input", str(dataset / "uplink.csi"), "--component", "phase"]
    assert cli.main([*flag, "--output-dir", str(tmp_path / "flag")]) == 0
    expected = (tmp_path / "flag" / "fit_dist.json").read_bytes()
    assert json.loads(expected)["component"] == "phase"
    assert {f["family"] for f in json.loads(expected)["fits"]} == set(PHASE_FAMILIES)
    assert (tmp_path / "full" / "fit_dist.json").read_bytes() == expected
    assert (tmp_path / "prefix" / "fit_dist.json").read_bytes() == expected


def test_pipeline_ae1_rejects_d_hat_zero(tmp_path, capsys):
    argv = ["pipeline", "--method", "ae1", "--d-hat", "0", "--grid-rows", "3", "--grid-cols", "3", "--m", "8"]
    assert cli.main([*argv, "--ae-epochs", "1", "--output-dir", str(tmp_path)]) == 1
    assert "d_hat must be at least 1 for method ae1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_decompose_kpca_rejects_d_hat_zero(dataset, tmp_path, capsys):
    argv = ["decompose", "--method", "kpca", "--d-hat", "0", "--input", str(dataset / "uplink.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "d_hat must lie in" in capsys.readouterr().err
    assert not (tmp_path / "predictable.csi").exists()


def test_decompose_kpca_exits_1_on_a_singular_ridge_system(tmp_path, capsys):
    # 4 duplicated columns give duplicated scores, and K_Y + 1e-300 I is singular
    rng = np.random.default_rng(18)
    base = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
    write_csi_file(CsiMatrix(np.concatenate([base, base[:, :4]], axis=1)), tmp_path / "ul.csi")
    argv = ["decompose", "--method", "kpca", "--d-hat", "2", "--gamma", "1e-300", "--input", str(tmp_path / "ul.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    assert "score Gram is singular" in capsys.readouterr().err
    assert not (tmp_path / "out" / "predictable.csi").exists()


@pytest.fixture(scope="module")
def weights(dataset, tmp_path_factory):
    """Two-epoch e1 (per-node) and e2 (pair) weights trained on the uplink."""
    directory = tmp_path_factory.mktemp("weights")
    paths = {}
    for loss in ("e1", "e2"):
        paths[loss] = directory / f"{loss}.weights"
        argv = ["ae-train", "--input", str(dataset / "uplink.csi"), "--geometry", str(dataset / "geometry.json")]
        argv += ["--loss", loss, "--ae-epochs", "2", "--weights-out", str(paths[loss]), "--output-dir", str(directory)]
        assert cli.main(argv) == 0
    return paths


def test_ae_decompose_e1_files_equal_decompose_ae(dataset, weights, tmp_path):
    argv = ["ae-decompose", "--input", str(dataset / "uplink.csi"), "--weights", str(weights["e1"])]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    ul = read_csi_file(dataset / "uplink.csi")
    dec = decompose_ae(read_weights(weights["e1"]), to_real_view(ul))
    pred, unpred = read_csi_file(tmp_path / "predictable.csi"), read_csi_file(tmp_path / "unpredictable.csi")
    assert np.array_equal(to_real_view(pred), dec.predictable)
    assert np.array_equal(to_real_view(unpred), dec.unpredictable)
    assert pred.direction == unpred.direction == ul.direction
    assert pred.snr_db == unpred.snr_db == ul.snr_db


def test_ae_decompose_pair_model_without_geometry_exits_1(dataset, weights, tmp_path, capsys):
    argv = ["ae-decompose", "--input", str(dataset / "uplink.csi"), "--weights", str(weights["e2"])]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "a pair-input model needs the node geometry" in capsys.readouterr().err
    assert not (tmp_path / "predictable.csi").exists()


def test_ae_decompose_width_mismatch_exits_1(dataset, weights, tmp_path, capsys):
    # 6 of the 16 snapshots: a 12-row view, whose width is neither the e1
    # model's 32 inputs nor half of them
    ul = read_csi_file(dataset / "uplink.csi")
    write_csi_file(CsiMatrix(ul.data[:6], direction=ul.direction, snr_db=ul.snr_db), tmp_path / "short.csi")
    argv = ["ae-decompose", "--input", str(tmp_path / "short.csi"), "--weights", str(weights["e1"])]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "model expects input dim 32, the real view has 12" in capsys.readouterr().err
    assert not (tmp_path / "predictable.csi").exists()


def _golden_text(payload) -> str:
    """The bytes ``pipeline.write_report`` writes for ``payload``."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# the full reports of dhsic, tvd-curve and skg-mp on the 4x4, m=16 set
GOLDEN_DHSIC = {
    "alpha": 0.05,
    "b": 100,
    "critical_value": 0.02942206590571947,
    "degenerate_variables": [],
    "delta_bar": 1.4824530018875448,
    "nodes": [0, 1, 5],
    "null": "permutation",
    "p_value": 0.009900990099009901,
    "raw_ratio": 1.4824530018875448,
    "reject": True,
    "seed": 0,
    "statistic": 0.043616829923667014,
}
GOLDEN_TVD_CURVE = {
    "curve": [
        {"avg_tvd": 0.82080078125, "d_hat": 0},
        {"avg_tvd": 0.953125, "d_hat": 1},
        {"avg_tvd": 0.9140625, "d_hat": 2},
        {"avg_tvd": 0.88916015625, "d_hat": 3},
        {"avg_tvd": 0.85009765625, "d_hat": 4},
    ],
    "seed": 0,
}
GOLDEN_SKG_MP = {
    "avg_mp": 0.05078125,
    "per_node_mp": [
        0.125, 0.0, 0.0625, 0.0625, 0.0625, 0.0625, 0.0, 0.0, 0.125, 0.0, 0.0625, 0.0, 0.0, 0.125, 0.125, 0.0
    ],
}  # fmt: skip


def test_dhsic_report_matches_golden(dataset, tmp_path, capsys):
    argv = ["dhsic", "--input", str(dataset / "uplink.csi"), "--nodes", "0,1,5", "--b", "100"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "dhsic.json").read_text(encoding="utf-8") == _golden_text(GOLDEN_DHSIC)
    assert json.loads(capsys.readouterr().out) == GOLDEN_DHSIC


def test_tvd_curve_report_matches_golden(dataset, tmp_path, capsys):
    argv = ["tvd-curve", "--input", str(dataset / "uplink.csi"), "--geometry", str(dataset / "geometry.json")]
    assert cli.main([*argv, "--d-hat-max", "4", "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "tvd_curve.json").read_text(encoding="utf-8") == _golden_text(GOLDEN_TVD_CURVE)
    assert json.loads(capsys.readouterr().out) == GOLDEN_TVD_CURVE["curve"]


@pytest.mark.parametrize(
    "nodes, message",
    [
        ("0,-1", "--nodes index -1 is outside [0, 16)"),
        ("0,99", "--nodes index 99 is outside [0, 16)"),
        ("0,1,0", "--nodes repeats index 0"),
        ("0,a", "--nodes entry 'a' is not an integer index"),
        ("0,,1", "--nodes entry '' is not an integer index"),
    ],
)
def test_dhsic_rejects_a_node_outside_the_set_or_repeated(dataset, tmp_path, capsys, nodes, message):
    argv = ["dhsic", "--input", str(dataset / "uplink.csi"), "--nodes", nodes, "--b", "100"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dhsic.json").exists()


def test_tvd_curve_rejects_a_negative_d_hat_max(dataset, tmp_path, capsys):
    argv = ["tvd-curve", "--input", str(dataset / "uplink.csi"), "--geometry", str(dataset / "geometry.json")]
    assert cli.main([*argv, "--d-hat-max", "-1", "--output-dir", str(tmp_path)]) == 1
    assert "d_hat_max must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "tvd_curve.json").exists()


def test_tvd_curve_rejects_a_d_hat_max_beyond_the_view(dataset, tmp_path, capsys):
    argv = ["tvd-curve", "--input", str(dataset / "uplink.csi"), "--geometry", str(dataset / "geometry.json")]
    assert cli.main([*argv, "--d-hat-max", "33", "--output-dir", str(tmp_path)]) == 1
    assert "d_hat_max 33 exceeds the 32 rows of the real view" in capsys.readouterr().err
    assert not (tmp_path / "tvd_curve.json").exists()
    # the full rank is a curve
    assert cli.main([*argv, "--d-hat-max", "32", "--output-dir", str(tmp_path)]) == 0
    assert len(json.loads((tmp_path / "tvd_curve.json").read_text(encoding="utf-8"))["curve"]) == 33


def test_skg_mp_report_matches_golden(dataset, tmp_path, capsys):
    argv = ["skg-mp", "--input-ul", str(dataset / "uplink.csi"), "--input-dl", str(dataset / "downlink.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert (tmp_path / "skg_mp.json").read_text(encoding="utf-8") == _golden_text(GOLDEN_SKG_MP)
    assert json.loads(capsys.readouterr().out) == {"avg_mp": GOLDEN_SKG_MP["avg_mp"]}


def test_ae_train_makes_the_directories_of_given_log_and_weights_paths(dataset, tmp_path):
    fresh = tmp_path / "fresh" / "run"
    argv = ["ae-train", "--input", str(dataset / "uplink.csi"), "--ae-epochs", "1", "--output-dir", str(fresh)]
    argv += ["--log", str(fresh / "log.jsonl"), "--weights-out", str(tmp_path / "w" / "ae.weights")]
    assert cli.main(argv) == 0
    assert len((fresh / "log.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert read_weights(tmp_path / "w" / "ae.weights").spec.input_dim == 32


def test_decompose_makes_the_directories_of_given_output_paths(dataset, tmp_path):
    pred, unpred = tmp_path / "p" / "pred.csi", tmp_path / "u" / "unpred.csi"
    argv = ["decompose", "--method", "pca", "--input", str(dataset / "uplink.csi")]
    argv += ["--output-predictable", str(pred), "--output-unpredictable", str(unpred)]
    assert cli.main([*argv, "--output-dir", str(tmp_path / "out")]) == 0
    default = ["decompose", "--method", "pca", "--input", str(dataset / "uplink.csi"), "--output-dir"]
    assert cli.main([*default, str(tmp_path / "default")]) == 0
    assert pred.read_bytes() == (tmp_path / "default" / "predictable.csi").read_bytes()
    assert unpred.read_bytes() == (tmp_path / "default" / "unpredictable.csi").read_bytes()


def test_sweep_with_delta_pairs_matches_the_library_sweep(dataset, tmp_path):
    # the 4x4, m=16 set has M=32 observations: too few shifts, so the
    # dependence tests take the permutation null with --b permutations
    grid = ["--d1-max", "3", "--d2-max", "4", "--delta-pairs", "2", "--b", "100"]
    assert cli.main(["sweep", *_files(dataset), *grid, "--output-dir", str(tmp_path)]) == 0
    ul = to_real_view(read_csi_file(dataset / "uplink.csi"))
    dl = to_real_view(read_csi_file(dataset / "downlink.csi"))
    geom = pipeline.read_geometry(dataset / "geometry.json")
    # the CLI fits only the components up to the largest d2
    cells = sweep(ul, dl, fit_pca(ul, top=4), [1, 3], [2, 4], geom, k=8, delta_pairs=2, delta_b=100)
    records = [dataclasses.asdict(c) for c in cells]
    assert json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))["cells"] == records
    assert any(r["delta_bar"] > 0 for r in records)
