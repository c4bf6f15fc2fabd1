import csv
import dataclasses
import json

import numpy as np
import pytest

from csisplit import cli, pipeline
from csisplit.core import read_csi_file, to_real_view
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
