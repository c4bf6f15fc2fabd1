import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from csisplit import cli, pipeline
from csisplit.autoencoder import decompose_ae_pairs, read_weights
from csisplit.core import read_csi_file, to_real_view, write_csi_file
from csisplit.dependence import dhsic_test, select_delta_pairs
from csisplit.simulate import SimConfig, simulate

SMALL = SimConfig(grid_shape=(3, 3), m=32)


@pytest.mark.parametrize(
    "field, value",
    [("delta_pairs", 0), ("delta_b", 99), ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5)],
)
def test_bad_delta_bar_settings_fail_before_any_stage(field, value):
    cfg = pipeline.PipelineConfig(sim=SMALL, **{field: value})
    with pytest.raises(ValueError, match=field):
        pipeline.run_pipeline(cfg)
    # the settings are unused, and not checked, without the delta_bar metric
    dataclasses.replace(cfg, metrics=("tvd", "cc", "mp")).validate()


@pytest.mark.parametrize("mu", [0.5, 0.0, float("nan")])
def test_bad_ae2_mu_fails_before_any_stage(mu):
    cfg = pipeline.PipelineConfig(sim=SMALL, method="ae2", ae_loss_mu=mu)
    with pytest.raises(ValueError, match="ae_loss_mu"):
        pipeline.run_pipeline(cfg)
    # ae1 trains on the reconstruction loss alone, which does not use mu
    dataclasses.replace(cfg, method="ae1").validate()


@pytest.mark.parametrize("method", ["kpca", "ae1", "ae2"])
def test_d_hat_zero_fails_before_any_stage_for_fitted_ranks(method):
    cfg = pipeline.PipelineConfig(sim=SMALL, method=method, d_hat=0)
    with pytest.raises(ValueError, match="d_hat must be at least 1"):
        pipeline.run_pipeline(cfg)
    # PCA allows rank 0: an all-zero predictable part
    dataclasses.replace(cfg, method="pca").validate()


@pytest.mark.parametrize("m, null, b", [(32, "permutation", 100), (128, "shift", 193)])
def test_cli_dhsic_payload_carries_the_p_value(tmp_path, m, null, b):
    # M=64 observations give too few shifts, M=256 give 193; --b counts permutations only
    uplink = simulate(SimConfig(grid_shape=(3, 3), m=m)).uplink
    write_csi_file(uplink, tmp_path / "uplink.csi")
    argv = ["dhsic", "--input", str(tmp_path / "uplink.csi"), "--nodes", "0,1", "--b", "100"]
    assert cli.main(argv + ["--output-dir", str(tmp_path), "--seed", "3"]) == 0
    payload = json.loads((tmp_path / "dhsic.json").read_text(encoding="utf-8"))
    view = to_real_view(uplink)
    expected = dhsic_test([view[:, 0], view[:, 1]], b=100, seed=3)
    assert payload["p_value"] == expected.p_value
    assert payload["statistic"] == expected.statistic
    assert (payload["null"], payload["b"]) == (null, b)


def test_simulated_run_rejects_a_seed_that_differs_from_the_simulators():
    cfg = pipeline.PipelineConfig(sim=SMALL, seed=1)
    with pytest.raises(ValueError, match="seed=1 disagrees with sim.seed=0"):
        pipeline.run_pipeline(cfg)
    # a run on files simulates nothing, so sim.seed is not read
    dataclasses.replace(cfg, source="files", ul_path="ul.csi", dl_path="dl.csi", geometry_path="g.json").validate()


@pytest.mark.parametrize(
    "text, match",
    [
        ("[[0, 0], [1, 0]]", "JSON object"),
        ('{"k": 2}', "'positions'"),
        ('{"positions": [[0, 0], [1]]}', "'positions'"),
        ('{"positions": "abc"}', "'positions'"),
        ('{"positions": [[0, 0], [1, 0]], "k": [1]}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": 1e400}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": 0}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": -3}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": 1.5}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": true}', "'k'"),
        ('{"positions": [[0, 0], [1, 0]], "k": "8"}', "'k'"),
    ],
)
def test_bad_geometry_file_raises_a_geometry_error_naming_the_key(tmp_path, text, match):
    path = tmp_path / "geometry.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(pipeline.GeometryError, match=match):
        pipeline.read_geometry(path)


@pytest.mark.parametrize(
    "raw",
    [b'{"positions": [[0, 0], [1, 0]], "k": "\xff"}', b'{"positions": [[0, 0], [1, 0]'],
    ids=["not-utf8", "malformed-json"],
)
def test_geometry_file_that_is_not_utf8_json_raises_a_geometry_error_naming_it(tmp_path, raw):
    path = tmp_path / "geometry.json"
    path.write_bytes(raw)
    with pytest.raises(pipeline.GeometryError, match="geometry.json: not a UTF-8 JSON geometry file") as excinfo:
        pipeline.read_geometry(path)
    assert isinstance(excinfo.value, ValueError)


def test_oversized_geometry_file_is_refused_without_being_read(tmp_path):
    path = tmp_path / "geometry.json"
    path.write_text('{"positions": [[0, 0], [1, 0]]}', encoding="utf-8")
    os.truncate(path, pipeline.MAX_GEOMETRY_BYTES + 1)  # sparse: no disk blocks
    tracemalloc.start()
    try:
        with pytest.raises(pipeline.GeometryError, match=f"more than the {pipeline.MAX_GEOMETRY_BYTES}-byte limit"):
            pipeline.read_geometry(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # reading the file would allocate its 64 MiB


def _stage_of(call) -> str:
    with pytest.raises(pipeline.PipelineError) as excinfo:
        call()
    assert str(excinfo.value).startswith(f"stage '{excinfo.value.stage}': ")
    return excinfo.value.stage


def test_each_stage_raises_its_own_pipeline_error(tmp_path):
    out = pipeline.write_sim_output(simulate(SMALL), tmp_path)
    files = dict(source="files", ul_path=out["uplink"], dl_path=out["downlink"], geometry_path=out["geometry"])
    missing = pipeline.PipelineConfig(**{**files, "ul_path": str(tmp_path / "missing.csi")})
    assert _stage_of(lambda: pipeline.run_pipeline(missing)) == "dataset"
    # kpca keeps at most n - 1 of the 9 nodes' components
    assert _stage_of(lambda: pipeline.run_pipeline(pipeline.PipelineConfig(sim=SMALL, method="kpca", d_hat=9))) == (
        "decompose"
    )
    # 8 neighbors is the most a 3x3 grid has
    assert _stage_of(lambda: pipeline.run_pipeline(pipeline.PipelineConfig(sim=SMALL, k_neighbors=9))) == "metrics"
    other = dataclasses.replace(SMALL, m=16)
    cfgs = [pipeline.PipelineConfig(sim=SMALL), pipeline.PipelineConfig(sim=other, method="pca")]
    assert _stage_of(lambda: pipeline.compare_methods(cfgs)) == "compare"


def test_cli_stage_error_names_the_stage_and_exits_1(tmp_path, capsys):
    out = pipeline.write_sim_output(simulate(SMALL), tmp_path)
    argv = ["pipeline", "--source", "files", "--input-ul", str(tmp_path / "missing.csi")]
    argv += ["--input-dl", out["downlink"], "--geometry", out["geometry"], "--output-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage 'dataset': ")
    assert not (tmp_path / "run" / "report.json").exists()


def test_geometry_file_round_trip(tmp_path):
    geom = simulate(SMALL).geometry
    pipeline.write_geometry(geom, tmp_path / "geometry.json")
    back = pipeline.read_geometry(tmp_path / "geometry.json")
    assert np.array_equal(back.positions, geom.positions) and back.k == geom.k


def test_cli_ae_decompose_applies_the_trained_pair_model(tmp_path):
    out = simulate(SMALL)
    write_csi_file(out.uplink, tmp_path / "uplink.csi")
    pipeline.write_geometry(out.geometry, tmp_path / "geometry.json")
    files = ["--input", str(tmp_path / "uplink.csi"), "--geometry", str(tmp_path / "geometry.json"), "--k", "4"]
    common = ["--output-dir", str(tmp_path)]
    assert cli.main(["ae-train", *files, "--loss", "e2", "--ae-epochs", "1", *common]) == 0
    assert cli.main(["ae-decompose", *files, "--weights", str(tmp_path / "ae.weights"), *common]) == 0
    view = to_real_view(out.uplink)
    dec = decompose_ae_pairs(read_weights(tmp_path / "ae.weights"), view, out.geometry, 4)
    assert np.array_equal(to_real_view(read_csi_file(tmp_path / "predictable.csi")), dec.predictable)
    assert np.array_equal(to_real_view(read_csi_file(tmp_path / "unpredictable.csi")), dec.unpredictable)


def test_report_is_byte_identical_for_a_seed_and_records_each_pairs_test(tmp_path):
    # m=128: M=256 observations, enough for the default shift null
    cfg = pipeline.PipelineConfig(sim=SimConfig(grid_shape=(3, 3), m=128, seed=4), delta_pairs=3, seed=4)
    first = pipeline.run_pipeline(cfg, output_dir=tmp_path / "a")
    pipeline.run_pipeline(cfg, output_dir=tmp_path / "b")
    text = (tmp_path / "a" / "report.json").read_bytes()
    assert text == (tmp_path / "b" / "report.json").read_bytes()
    entries = first["diagnostics"]["delta_bar"]
    ul, dl, geom = pipeline.load_dataset(cfg)
    assert [e["nodes"] for e in entries] == [list(pair) for pair in select_delta_pairs(geom, 3)]
    view = pipeline.apply_method(cfg, ul, dl, geom).unpred_ul
    for entry in entries:
        i, j = entry["nodes"]
        want = dhsic_test([view[:, i], view[:, j]])
        assert entry == {
            "nodes": [i, j],
            "null": "shift",
            "statistic": want.statistic,
            "critical_value": want.critical_value,
            "p_value": want.p_value,
            "reject": want.reject,
            "b": 193,
        }
    # the tests stay out of the sections that goldens compare
    assert set(first["metrics"]) == {"avg_tvd", "avg_cc", "avg_mp", "avg_delta_bar"}
    assert first["method_details"] == {"method": "pca", "d_hat": 1, "d1": 3, "d2": 20}
    assert pipeline.run_pipeline(dataclasses.replace(cfg, metrics=("cc",)))["diagnostics"] == {}


@pytest.mark.parametrize("method, mode", [("ae1", "localized"), ("ae2", "centralized"), ("ae2", "localized")])
def test_ae_report_carries_each_directions_loss_history(tmp_path, method, mode):
    cfg = pipeline.PipelineConfig(
        sim=SMALL, method=method, ae_mode=mode, ae_epochs=3, metrics=("cc", "mp"), d_hat=2, seed=0
    )
    first = pipeline.run_pipeline(cfg, output_dir=tmp_path / "a")
    pipeline.run_pipeline(cfg, output_dir=tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
    details, diagnostics = first["method_details"], first["diagnostics"]
    for side in ("ul", "dl"):
        history = diagnostics[f"loss_history_{side}"]
        assert len(history) == cfg.ae_epochs
        assert history[-1] == details[f"final_loss_{side}"]
    if mode == "centralized":  # one model serves both sides
        assert diagnostics["loss_history_ul"] == diagnostics["loss_history_dl"]
    assert set(first["metrics"]) == {"avg_cc", "avg_mp"}


@pytest.mark.parametrize("command", [["pipeline", "--source", "files"], ["compare", "--methods", "pca"]])
def test_cli_short_sequences_take_the_permutation_null(tmp_path, capsys, command):
    # m=32: M=64 observations give 49 shifts, fewer than the 100 a test needs
    out = simulate(SMALL)
    write_csi_file(out.uplink, tmp_path / "uplink.csi")
    write_csi_file(out.downlink, tmp_path / "downlink.csi")
    pipeline.write_geometry(out.geometry, tmp_path / "geometry.json")
    files = ["--input-ul", str(tmp_path / "uplink.csi"), "--input-dl", str(tmp_path / "downlink.csi")]
    files += ["--geometry", str(tmp_path / "geometry.json"), "--output-dir", str(tmp_path / "out")]
    assert cli.main([*command, *files, "--delta-pairs", "1", "--b", "100"]) == 0
    if command[0] == "pipeline":
        report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
        [entry] = report["diagnostics"]["delta_bar"]
        assert entry["null"] == "permutation" and entry["b"] == 100
