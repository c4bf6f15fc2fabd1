import csv
import dataclasses
import hashlib
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
from csisplit.autoencoder import decompose_ae, decompose_ae_pairs, train
from csisplit.core import CsiMatrix, Direction, read_csi_file, to_real_view, write_csi_file
from csisplit.distfit import ALL_FAMILIES, PHASE_FAMILIES, fit_families
from csisplit.pca import fit_pca, sweep
from csisplit.simulate import SimConfig

SUBCOMMANDS = (
    "simulate",
    "fit",
    "split",
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


def _fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter: this one has loaded SciPy through the test modules."""
    src = str(Path(csisplit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)


_SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_importing_the_cli_loads_no_scipy_module():
    proc = _fresh_python("import sys, csisplit.cli; " + _SCIPY_LOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_and_skg_mp_on_files_load_no_scipy_module(dataset, tmp_path):
    code = "\n".join(
        [
            "import sys",
            "from csisplit import cli",
            "ul, dl, geom, out = sys.argv[1:]",
            "files = ['--input-ul', ul, '--input-dl', dl]",
            "assert cli.main(['sweep', *files, '--geometry', geom, '--output-dir', out + '/sweep']) == 0",
            "assert cli.main(['skg-mp', *files, '--output-dir', out + '/skg']) == 0",
            _SCIPY_LOADED,
        ]
    )
    paths = [str(dataset / name) for name in ("uplink.csi", "downlink.csi", "geometry.json")]
    proc = _fresh_python(code, *paths, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "sweep" / "sweep.json").is_file() and (tmp_path / "skg" / "skg_mp.json").is_file()


_SMALL_SIM = ["--grid-rows", "4", "--grid-cols", "4", "--m", "16"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", *_SMALL_SIM],
        ["pipeline", "--method", "pca", *_SMALL_SIM, "--metrics", "tvd,cc,delta_bar,mp", "--delta-pairs", "2"],
        ["pipeline", "--method", "none", *_SMALL_SIM, "--metrics", "tvd,cc,delta_bar,mp", "--delta-pairs", "2"],
    ],
    ids=["simulate", "pipeline-pca", "pipeline-none"],
)
def test_simulating_commands_load_no_scipy_module(tmp_path, argv):
    code = "\n".join(
        [
            "import sys",
            "from csisplit import cli",
            "assert cli.main(sys.argv[1:]) == 0",
            _SCIPY_LOADED,
        ]
    )
    proc = _fresh_python(code, *argv, "--output-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert any(tmp_path.iterdir())


# sha256 of the files that `simulate --grid-rows 4 --grid-cols 4 --m 16` writes
GOLDEN_SIMULATE_FILES = {
    "uplink.csi": "71f74971c56227d097de08c5527f35ca928f56635c9d5793f278e1f21475807a",
    "downlink.csi": "99d34db857e98eabc9c57c115bdcc4434367ab1c2dc6c0c6dc9c3a6c47d744ee",
    "truth.csi": "ba93664e4592d4e19fc6ab49395dac12bc82b1f3db8815ad5f7478baac03876a",
    "geometry.json": "b9d42087180c4421da9f50d8102241853617730fbe209893c166f89ada3133ce",
}


def test_simulate_files_match_golden(dataset):
    digests = {name: hashlib.sha256((dataset / name).read_bytes()).hexdigest() for name in GOLDEN_SIMULATE_FILES}
    assert digests == GOLDEN_SIMULATE_FILES
    assert sorted(p.name for p in dataset.iterdir()) == sorted(GOLDEN_SIMULATE_FILES)


def test_simulate_with_an_infinite_speed_exits_1_naming_the_field(tmp_path, capsys):
    argv = ["simulate", *_SMALL_SIM, "--speed-mps", "inf", "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    assert "speed_mps must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("geometry_from_3x4", [True, False], ids=["csi-4x4-geometry-3x4", "csi-3x4-geometry-4x4"])
def test_sweep_with_a_geometry_of_another_node_count_exits_1(dataset, tmp_path, capsys, geometry_from_3x4):
    other = tmp_path / "3x4"
    assert cli.main(["simulate", "--grid-rows", "3", "--grid-cols", "4", "--m", "16", "--output-dir", str(other)]) == 0
    csi_dir, geometry_dir = (dataset, other) if geometry_from_3x4 else (other, dataset)
    files = ["--input-ul", str(csi_dir / "uplink.csi"), "--input-dl", str(csi_dir / "downlink.csi")]
    files += ["--geometry", str(geometry_dir / "geometry.json"), "--output-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert cli.main(["sweep", *files]) == 1
    assert "stage 'dataset': uplink/downlink/geometry dimensions disagree" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.json").exists()


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


@pytest.mark.parametrize(
    "options, field",
    [
        (["--metrics", "tvd", "--bins", "0"], "bins"),
        (["--k", "0"], "k_neighbors"),
        (["--method", "pca", "--d1", "5", "--d2", "3"], "band (d1, d2) = (5, 3)"),
        (["--metrics", ""], "metrics must name at least one of"),
        (["--metrics", "tvd,tvd"], "--metrics repeat 'tvd'"),
    ],
)
def test_pipeline_bad_scoring_option_exits_1_naming_the_field(tmp_path, capsys, options, field):
    argv = ["pipeline", "--grid-rows", "3", "--grid-cols", "3", "--m", "8", *options]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_pipeline_metrics_entries_are_stripped(tmp_path):
    argv = ["pipeline", "--method", "none", "--grid-rows", "3", "--grid-cols", "3", "--m", "8"]
    assert cli.main([*argv, "--metrics", "tvd, cc", "--output-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["metrics"] == ["tvd", "cc"]


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_simulator_options_are_stored_under_their_config_fields(command):
    args = cli.build_parser().parse_args([command])
    fields = [f.name for f in dataclasses.fields(SimConfig) if f.name not in ("grid_shape", "seed")]
    assert {name: getattr(args, name) for name in fields} == {name: getattr(SimConfig(), name) for name in fields}
    assert cli._sim_config(args) == SimConfig()


def test_pipeline_options_are_stored_under_their_config_fields():
    parser = cli.build_parser()
    args = parser.parse_args(["pipeline"])
    assert {f.name for f in dataclasses.fields(pipeline.PipelineConfig)} - set(vars(args)) == {"sim"}
    assert cli._pipeline_config(args) == pipeline.PipelineConfig()
    # the options whose flag is not the field's name
    files = ["--input-ul", "u.csi", "--input-dl", "d.csi", "--geometry", "g.json"]
    renamed = ["--mu", "2", "--k", "3", "--b", "200", "--spacing", "2"]
    args = parser.parse_args(["pipeline", "--source", "files", *files, *renamed])
    assert cli._pipeline_config(args) == pipeline.PipelineConfig(
        source="files",
        ul_path="u.csi",
        dl_path="d.csi",
        geometry_path="g.json",
        ae_loss_mu=2.0,
        k_neighbors=3,
        delta_b=200,
        sim=SimConfig(grid_spacing_m=2.0),
    )


def test_pipeline_k_beyond_the_nodes_exits_1_in_the_dataset_stage(dataset, tmp_path, capsys):
    argv = ["pipeline", "--source", "files", *_files(dataset), "--method", "ae1", "--ae-epochs", "1", "--k", "16"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: stage 'dataset': k_neighbors=16 needs more than the 16 nodes")
    assert not list(tmp_path.iterdir())


def test_compare_k_zero_exits_1_naming_the_field_before_reading_a_file(tmp_path, capsys):
    files = ["--input-ul", str(tmp_path / "ul.csi"), "--input-dl", str(tmp_path / "dl.csi")]
    argv = ["compare", *files, "--geometry", str(tmp_path / "geometry.json"), "--k", "0"]
    assert cli.main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    assert "k_neighbors must be at least 1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_methods_entries_are_stripped_and_an_empty_one_exits_1(dataset, tmp_path, capsys):
    argv = ["compare", *_files(dataset), "--methods", " pca,,none", "--output-dir", str(tmp_path / "bad")]
    assert cli.main(argv) == 1
    assert "--methods has an empty entry: ' pca,,none'" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    argv = ["compare", *_files(dataset), "--methods", " none , pca", "--delta-pairs", "2", "--b", "100"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "compare.json").read_text(encoding="utf-8"))["methods"] == ["none", "pca"]


def test_compare_repeated_method_exits_1(dataset, tmp_path, capsys):
    argv = ["compare", *_files(dataset), "--methods", "pca,pca", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "methods repeat 'pca'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_kpca_rejects_d_hat_zero(dataset, tmp_path, capsys):
    argv = ["fit", "--method", "kpca", "--d-hat", "0", "--input", str(dataset / "uplink.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "d_hat must be at least 1 for method kpca, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_kpca_exits_1_on_a_singular_ridge_system(tmp_path, capsys):
    # 4 duplicated columns give duplicated scores, and K_Y + 1e-300 I is singular
    rng = np.random.default_rng(18)
    base = rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))
    write_csi_file(CsiMatrix(np.concatenate([base, base[:, :4]], axis=1)), tmp_path / "ul.csi")
    argv = ["fit", "--method", "kpca", "--d-hat", "2", "--gamma", "1e-300", "--input", str(tmp_path / "ul.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    assert "score Gram is singular" in capsys.readouterr().err
    assert not (tmp_path / "out" / "model.bin").exists()


@pytest.fixture(scope="module")
def models(dataset, tmp_path_factory):
    """Model files fitted on the uplink: pca, kpca, and two-epoch ae1
    (per-node) and ae2 (pair) models at k=3."""
    directory = tmp_path_factory.mktemp("models")
    paths = {}
    for method in ("pca", "kpca", "ae1", "ae2"):
        argv = ["fit", "--method", method, "--input", str(dataset / "uplink.csi")]
        argv += ["--geometry", str(dataset / "geometry.json"), "--d-hat", "2", "--ae-epochs", "2", "--k", "3"]
        assert cli.main([*argv, "--output-dir", str(directory / method)]) == 0
        paths[method] = directory / method / "model.bin"
    return paths


def test_split_ae1_files_equal_decompose_ae(dataset, models, tmp_path):
    argv = ["split", "--input", str(dataset / "uplink.csi"), "--model", str(models["ae1"])]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    ul = read_csi_file(dataset / "uplink.csi")
    dec = decompose_ae(pipeline.read_model(models["ae1"]).model, to_real_view(ul))
    pred, unpred = read_csi_file(tmp_path / "predictable.csi"), read_csi_file(tmp_path / "unpredictable.csi")
    assert np.array_equal(to_real_view(pred), dec.predictable)
    assert np.array_equal(to_real_view(unpred), dec.unpredictable)
    assert pred.direction == unpred.direction == ul.direction
    assert pred.snr_db == unpred.snr_db == ul.snr_db


@pytest.mark.parametrize("method", ["pca", "kpca", "ae1", "ae2"])
def test_fit_on_the_uplink_and_split_of_the_downlink_equal_the_pipelines_downlink_split(dataset, tmp_path, method):
    # the pipeline fits on the uplink and splits the downlink with that fit; the
    # fit and split commands do the same through the model file
    files = ["--geometry", str(dataset / "geometry.json")]
    argv = ["fit", "--method", method, "--input", str(dataset / "uplink.csi"), *files]
    assert cli.main([*argv, "--d-hat", "2", "--ae-epochs", "2", "--k", "3", "--output-dir", str(tmp_path)]) == 0
    argv = ["split", "--model", str(tmp_path / "model.bin"), "--input", str(dataset / "downlink.csi"), *files]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    paths = dict(ul_path=str(dataset / "uplink.csi"), dl_path=str(dataset / "downlink.csi"), geometry_path=files[1])
    cfg = pipeline.PipelineConfig(source="files", **paths, method=method, d_hat=2, ae_epochs=2, k_neighbors=3)
    out = pipeline.apply_method(cfg, *pipeline.load_dataset(cfg))
    unpred = read_csi_file(tmp_path / "unpredictable.csi")
    assert np.array_equal(to_real_view(unpred), out.unpred_dl)
    assert unpred.direction == Direction.DOWNLINK
    if method in ("pca", "kpca"):  # fit.json holds the details of the pipeline's report
        written = json.loads((tmp_path / "fit.json").read_text(encoding="utf-8"))
        assert written == pipeline._jsonify(out.details)


def test_a_pair_model_splits_at_its_fitted_k_and_split_takes_no_k(dataset, models, tmp_path, capsys):
    assert json.loads((models["ae2"].parent / "fit.json").read_text(encoding="utf-8"))["k"] == 3
    geometry = dataset / "geometry.json"
    argv = ["split", "--model", str(models["ae2"]), "--input", str(dataset / "downlink.csi")]
    argv += ["--geometry", str(geometry)]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    fitted = pipeline.read_model(models["ae2"])
    view = to_real_view(read_csi_file(dataset / "downlink.csi"))
    dec = decompose_ae_pairs(fitted.model, view, pipeline.read_geometry(geometry), 3)
    assert fitted.k == 3
    assert np.array_equal(to_real_view(read_csi_file(tmp_path / "unpredictable.csi")), dec.unpredictable)
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--k", "3", "--output-dir", str(tmp_path / "with-k")])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --k 3" in capsys.readouterr().err
    assert not (tmp_path / "with-k").exists()


def test_split_pair_model_without_geometry_exits_1(dataset, models, tmp_path, capsys):
    argv = ["split", "--input", str(dataset / "uplink.csi"), "--model", str(models["ae2"])]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "a pair-input model needs the node geometry: it pairs each node with 3 neighbors" in capsys.readouterr().err
    assert not (tmp_path / "predictable.csi").exists()


@pytest.mark.parametrize(
    "method, rows, cols, message",
    [
        ("pca", 6, 16, "view has 12 features, basis expects 32"),
        ("ae1", 6, 16, "the ae1 model splits real views of 32 rows, this one has 12"),
        ("ae2", 6, 16, "the ae2 model splits real views of 32 rows, this one has 12"),
        ("kpca", 6, 16, "CSI of shape (6, 16), the model was fitted on columns of shape (16, 16)"),
        ("kpca", 16, 12, "CSI of shape (16, 12), the model was fitted on columns of shape (16, 16)"),
    ],
    ids=["pca-12-rows", "ae1-12-rows", "ae2-12-rows", "kpca-6-snapshots", "kpca-12-nodes"],
)
def test_split_of_another_shape_exits_1_naming_both(dataset, models, tmp_path, capsys, method, rows, cols, message):
    # the models were fitted on 16 snapshots of 16 nodes: a 32-row real view
    ul = read_csi_file(dataset / "uplink.csi")
    other = CsiMatrix(ul.data[:rows, :cols], direction=ul.direction, snr_db=ul.snr_db)
    write_csi_file(other, tmp_path / "other.csi")
    argv = ["split", "--input", str(tmp_path / "other.csi"), "--model", str(models[method])]
    assert cli.main([*argv, "--geometry", str(dataset / "geometry.json"), "--output-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "predictable.csi").exists()


def test_fit_pca_and_splits_with_pca_and_ae1_models_load_no_scipy_module(dataset, models, tmp_path):
    code = "\n".join(
        [
            "import sys",
            "from csisplit import cli",
            "ul, dl, ae1, out = sys.argv[1:]",
            "assert cli.main(['fit', '--method', 'pca', '--input', ul, '--output-dir', out + '/pca']) == 0",
            "pca = ['--model', out + '/pca/model.bin', '--input', dl, '--output-dir', out + '/pca']",
            "assert cli.main(['split', *pca]) == 0",
            "assert cli.main(['split', '--model', ae1, '--input', dl, '--output-dir', out + '/ae1']) == 0",
            _SCIPY_LOADED,
        ]
    )
    paths = [str(dataset / "uplink.csi"), str(dataset / "downlink.csi"), str(models["ae1"])]
    proc = _fresh_python(code, *paths, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "pca" / "unpredictable.csi").is_file() and (tmp_path / "ae1" / "unpredictable.csi").is_file()


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
        ("0,1,0", "--nodes repeat 0"),
        ("0,a", "--nodes entry 'a' is not an integer index"),
        ("0,,1", "--nodes has an empty entry: '0,,1'"),
        ("0, 00", "--nodes repeat 0"),
    ],
)
def test_dhsic_rejects_a_node_outside_the_set_or_repeated(dataset, tmp_path, capsys, nodes, message):
    argv = ["dhsic", "--input", str(dataset / "uplink.csi"), "--nodes", nodes, "--b", "100"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "dhsic.json").exists()


def test_dhsic_nodes_entries_are_stripped(dataset, tmp_path):
    argv = ["dhsic", "--input", str(dataset / "uplink.csi"), "--nodes", " 0, 1 ", "--b", "100"]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "dhsic.json").read_text(encoding="utf-8"))["nodes"] == [0, 1]


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


def test_fit_makes_the_directories_of_its_output_and_a_given_log_path(dataset, tmp_path):
    fresh = tmp_path / "fresh" / "run"
    argv = ["fit", "--method", "ae1", "--input", str(dataset / "uplink.csi"), "--ae-epochs", "1"]
    argv += ["--log", str(tmp_path / "log" / "train.jsonl"), "--output-dir", str(fresh)]
    assert cli.main(argv) == 0
    assert len((tmp_path / "log" / "train.jsonl").read_text(encoding="utf-8").splitlines()) == 1
    assert pipeline.read_model(fresh / "model.bin").model.spec.input_dim == 32
    assert not (fresh / "ae_train_log.jsonl").exists()


@pytest.mark.parametrize("method", ["ae1", "ae2"])
def test_fit_model_equals_the_pipelines_centralized_uplink_model(dataset, tmp_path, monkeypatch, method):
    options = ["--d-hat", "2", "--ae-epochs", "2", "--ae-batch-size", "8", "--ae-learning-rate", "3e-3"]
    options += ["--mu", "2", "--k", "3", "--seed", "4"]
    argv = ["fit", "--input", str(dataset / "uplink.csi"), "--geometry", str(dataset / "geometry.json")]
    assert cli.main([*argv, "--method", method, *options, "--output-dir", str(tmp_path)]) == 0
    written = pipeline.read_model(tmp_path / "model.bin")

    models = []

    def recording_train(*args, **kwargs):
        models.append(train(*args, **kwargs))
        return models[-1]

    monkeypatch.setattr(pipeline, "train", recording_train)
    settings = dict(ae_epochs=2, ae_batch_size=8, ae_learning_rate=3e-3, ae_loss_mu=2.0, k_neighbors=3)
    cfg = pipeline.PipelineConfig(sim=SimConfig(seed=4), method=method, d_hat=2, seed=4, **settings)
    ul, dl = (read_csi_file(dataset / f"{side}.csi") for side in ("uplink", "downlink"))
    pipeline.apply_method(cfg, ul, dl, pipeline.read_geometry(dataset / "geometry.json"))
    (model,) = models
    assert written.model.spec == model.spec
    assert written.model.input_scale == model.input_scale
    assert np.array_equal(written.model.params, model.params)
    assert written.model.history == model.history
    assert written.k == (3 if method == "ae2" else None)


def test_fit_ae1_d_hat_zero_exits_1_naming_d_hat(dataset, tmp_path, capsys):
    argv = ["fit", "--method", "ae1", "--d-hat", "0", "--ae-epochs", "1", "--input", str(dataset / "uplink.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "d_hat must be at least 1 for method ae1, got 0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("option", [["--metrics", "tvd"], ["--bins", "7"]])
def test_compare_takes_no_metrics_or_bins_option(dataset, tmp_path, capsys, option):
    # compare always scores cc, delta_bar and mp, and no fingerprint histogram
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["compare", *_files(dataset), "--methods", "none", *option, "--output-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_with_too_few_permutations_exits_1_before_reading_a_file(tmp_path, capsys, monkeypatch):
    # m=128: M=256 observations, where the shift null runs and would not read --b
    data = tmp_path / "data"
    assert cli.main(["simulate", "--grid-rows", "3", "--grid-cols", "3", "--m", "128", "--output-dir", str(data)]) == 0
    files = ["--input-ul", str(data / "uplink.csi"), "--input-dl", str(data / "downlink.csi")]
    reads = []
    read = pipeline.read_csi_file
    monkeypatch.setattr(pipeline, "read_csi_file", lambda path: reads.append(path) or read(path))
    argv = ["sweep", *files, "--geometry", str(data / "geometry.json"), "--d1-max", "1", "--d2-max", "2"]
    assert cli.main([*argv, "--delta-pairs", "2", "--b", "50", "--output-dir", str(tmp_path / "out")]) == 1
    assert "delta_b must be at least 100 permutations" in capsys.readouterr().err
    assert reads == [] and not (tmp_path / "out" / "sweep.json").exists()


def test_pipeline_on_files_rejects_a_bad_simulator_option(dataset, tmp_path, capsys):
    # the files source simulates nothing, but every config it builds is checked
    argv = ["pipeline", "--source", "files", *_files(dataset), "--m", "1", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    assert "need at least 2 snapshots" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_fit_ae2_without_geometry_exits_1(dataset, tmp_path, capsys):
    argv = ["fit", "--method", "ae2", "--ae-epochs", "1", "--input", str(dataset / "uplink.csi")]
    assert cli.main([*argv, "--output-dir", str(tmp_path)]) == 1
    assert "a pair-input model needs the node geometry" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
