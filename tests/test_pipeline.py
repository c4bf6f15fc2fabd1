import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisplit import cli, pipeline
from csisplit.autoencoder import decompose_ae_pairs
from csisplit.core import CsiMatrix, read_csi_file, to_real_view, write_csi_file
from csisplit.dependence import dhsic_test, select_delta_pairs
from csisplit.simulate import SimConfig, simulate

SMALL = SimConfig(grid_shape=(3, 3), m=32)


@pytest.mark.parametrize(
    "field, value",
    [("delta_pairs", 0), ("delta_b", 99), ("alpha", 0.0), ("alpha", 1.0), ("alpha", 1.5)],
)
def test_bad_delta_bar_settings_fail_before_any_stage(field, value):
    with pytest.raises(ValueError, match=field):
        pipeline.PipelineConfig(sim=SMALL, **{field: value})
    # the settings are unused, and not checked, without the delta_bar metric
    pipeline.PipelineConfig(sim=SMALL, metrics=("tvd", "cc", "mp"), **{field: value})


def _forbid(monkeypatch, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"pipeline.{name} was called")

    monkeypatch.setattr(pipeline, name, forbidden)


@pytest.mark.parametrize(
    "settings, field",
    [
        (dict(k_neighbors=0), "k_neighbors"),
        (dict(k_neighbors=-1, metrics=("cc",)), "k_neighbors"),
        (dict(k_neighbors=0, method="ae2", metrics=("mp",)), "k_neighbors"),
        (dict(bins=0, metrics=("tvd",)), "bins"),
        (dict(d1=5, d2=3), "d1, d2"),
        (dict(d1=0), "d1, d2"),
        (dict(d_hat=-1), "d_hat"),
    ],
)
def test_bad_scoring_settings_fail_when_the_config_is_built(monkeypatch, settings, field):
    _forbid(monkeypatch, "load_dataset")
    with pytest.raises(ValueError, match=field):
        pipeline.run_pipeline(pipeline.PipelineConfig(sim=SMALL, **settings))


@pytest.mark.parametrize(
    "settings",
    [
        dict(k_neighbors=0, metrics=("mp", "delta_bar")),
        dict(k_neighbors=0, method="ae1", metrics=("mp",)),
        dict(bins=0, metrics=("cc", "mp")),
        dict(d1=5, d2=3, method="none"),
    ],
)
def test_scoring_settings_are_not_checked_where_unread(settings):
    pipeline.PipelineConfig(sim=SMALL, **settings)


@pytest.mark.parametrize(
    "settings", [dict(method="ae1"), dict(method="ae2", metrics=("mp",))], ids=["ae1-tvd-cc", "ae2-pairs"]
)
def test_k_beyond_the_nodes_fails_in_the_dataset_stage_before_training(monkeypatch, tmp_path, settings):
    _forbid(monkeypatch, "train")
    out = pipeline.write_sim_output(simulate(SMALL), tmp_path)
    files = dict(source="files", ul_path=out["uplink"], dl_path=out["downlink"], geometry_path=out["geometry"])
    for source in (dict(sim=SMALL), files):
        cfg = pipeline.PipelineConfig(**source, k_neighbors=9, ae_epochs=1, **settings)
        with pytest.raises(pipeline.PipelineError, match="k_neighbors=9 needs more than the 9 nodes") as excinfo:
            pipeline.run_pipeline(cfg)
        assert excinfo.value.stage == "dataset"


def test_k_beyond_the_nodes_is_not_checked_where_unread():
    cfg = pipeline.PipelineConfig(sim=SMALL, method="none", metrics=("mp",), k_neighbors=9)
    assert set(pipeline.run_pipeline(cfg)["metrics"]) == {"avg_mp"}


def test_empty_metric_set_fails_before_any_stage():
    with pytest.raises(ValueError, match="metrics"):
        pipeline.PipelineConfig(sim=SMALL, metrics=())


def test_repeated_metric_fails_before_any_stage():
    with pytest.raises(ValueError, match="metrics repeat 'tvd'"):
        pipeline.PipelineConfig(sim=SMALL, metrics=("tvd", "cc", "tvd"))


@pytest.mark.parametrize("method", ["ae1", "ae2"])
def test_bad_ae_mode_fails_before_any_stage(method):
    with pytest.raises(ValueError, match="ae_mode"):
        pipeline.PipelineConfig(sim=SMALL, method=method, ae_mode="federated")
    # the methods that train no autoencoder do not read the mode
    pipeline.PipelineConfig(sim=SMALL, method="pca", ae_mode="federated")


@pytest.mark.parametrize("mu", [0.5, 0.0, float("nan")])
def test_bad_ae2_mu_fails_before_any_stage(mu):
    with pytest.raises(ValueError, match="mu must be finite and above 0.5 for the e2 loss"):
        pipeline.PipelineConfig(sim=SMALL, method="ae2", ae_loss_mu=mu)
    # ae1 trains on the reconstruction loss alone, which does not use mu
    pipeline.PipelineConfig(sim=SMALL, method="ae1", ae_loss_mu=mu)


@pytest.mark.parametrize("method", ["ae1", "ae2"])
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("ae_learning_rate", float("nan"), "learning_rate must be finite and positive"),
        ("ae_epochs", 0, "epochs and batch_size must be at least 1"),
        ("ae_batch_size", 0, "epochs and batch_size must be at least 1"),
    ],
)
def test_bad_ae_training_settings_fail_before_the_dataset_loads(method, field, value, message):
    with pytest.raises(ValueError, match=message):
        pipeline.PipelineConfig(sim=SMALL, method=method, **{field: value})
    # the methods that train no autoencoder do not read the settings
    pipeline.PipelineConfig(sim=SMALL, method="pca", **{field: value})


@pytest.mark.parametrize("method", ["kpca", "ae1", "ae2"])
def test_d_hat_zero_fails_before_any_stage_for_fitted_ranks(method):
    with pytest.raises(ValueError, match="d_hat must be at least 1"):
        pipeline.PipelineConfig(sim=SMALL, method=method, d_hat=0)
    # PCA allows rank 0: an all-zero predictable part
    pipeline.PipelineConfig(sim=SMALL, method="pca", d_hat=0)


def test_configs_check_themselves_when_built_and_when_replaced():
    assert not hasattr(pipeline.PipelineConfig, "validate") and not hasattr(SimConfig, "validate")
    with pytest.raises(ValueError, match="delta_b must be at least 100 permutations"):
        dataclasses.replace(pipeline.PipelineConfig(sim=SMALL), delta_b=99)
    with pytest.raises(ValueError, match="need at least 2 snapshots"):
        dataclasses.replace(SMALL, m=1)


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
    with pytest.raises(ValueError, match="seed=1 disagrees with sim.seed=0"):
        pipeline.PipelineConfig(sim=SMALL, seed=1)
    # a run on files simulates nothing, so sim.seed is not read
    files = dict(source="files", ul_path="ul.csi", dl_path="dl.csi", geometry_path="g.json")
    pipeline.PipelineConfig(sim=SMALL, seed=1, **files)


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
        # a JSON int beyond float64: numpy raises an OverflowError, not a ValueError
        pytest.param(
            '{"positions": [[' + "9" * 400 + ', 0], [1, 1]]}', "'positions' is not a numeric", id="int-beyond-float64"
        ),
    ],
)
def test_bad_geometry_file_raises_a_geometry_error_naming_the_key(tmp_path, text, match):
    path = tmp_path / "geometry.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(pipeline.GeometryError, match=match):
        pipeline.read_geometry(path)


@pytest.mark.parametrize(
    "raw",
    [
        b'{"positions": [[0, 0], [1, 0]], "k": "\xff"}',
        b'{"positions": [[0, 0], [1, 0]',
        # valid JSON of 200 kB, far below the size cap, nested deeper than the decoder recurses
        b'{"positions": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        # an int of more digits than Python converts: json raises a plain ValueError
        b'{"positions": [[0, 0], [1, 0]], "k": ' + b"1" * 5000 + b"}",
    ],
    ids=["not-utf8", "malformed-json", "nested-too-deeply", "int-of-5000-digits"],
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


_VALID_GEOMETRY = b'{"k": 2, "positions": [[0.0, 0.0], [1.5, 0.0], [0.0, 2.0]]}'


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_geometry_files_either_load_or_raise_a_geometry_error(tmp_path_factory, data):
    raw = bytearray(data.draw(st.sampled_from([_VALID_GEOMETRY, b""])))
    for _ in range(data.draw(st.integers(0, 4)) if raw else 0):
        raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.sampled_from(b'[]{},:"-.e0123456789 kx\xff'))
    path = tmp_path_factory.mktemp("geometry") / "geometry.json"
    path.write_bytes(bytes(raw[: data.draw(st.integers(0, len(raw)))]) + data.draw(st.binary(max_size=8)))
    try:
        geom = pipeline.read_geometry(path)
    except pipeline.GeometryError:
        return
    assert geom.positions.shape[1] in (2, 3) and geom.k >= 1


def test_capped_read_refuses_a_file_that_grew_after_fstat(tmp_path, monkeypatch):
    path = tmp_path / "grown.json"
    path.write_bytes(b"x" * 10)
    fstat = os.fstat
    # the size fstat saw, 4 bytes, is within the limit; the 10 read are not
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result((*fstat(fd)[:6], 4, *fstat(fd)[7:])))
    with pytest.raises(pipeline.GeometryError, match="more than the 4-byte limit"):
        pipeline.read_capped(path, 4, pipeline.GeometryError)


def test_report_writes_numpy_scalars_as_numbers_and_infinities_as_strings(tmp_path):
    report = {"count": np.int64(3), "ratio": np.float32(0.5), "bounds": (-math.inf, math.inf), "row": np.arange(2)}
    pipeline.write_report(report, tmp_path / "out" / "report.json")
    assert json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8")) == {
        "bounds": ["-inf", "inf"],
        "count": 3,
        "ratio": 0.5,
        "row": [0, 1],
    }


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
    # 8 neighbors is the most a 3x3 grid has, which is known once its geometry is
    assert _stage_of(lambda: pipeline.run_pipeline(pipeline.PipelineConfig(sim=SMALL, k_neighbors=9))) == "dataset"
    # a node whose uplink is all zeros has no neighbor CC
    ul = read_csi_file(out["uplink"])
    flat = ul.data.copy()
    flat[:, 0] = 0.0
    write_csi_file(CsiMatrix(flat, ul.direction, ul.snr_db), tmp_path / "flat.csi")
    cfg = pipeline.PipelineConfig(**{**files, "ul_path": str(tmp_path / "flat.csi")}, method="none", metrics=("cc",))
    assert _stage_of(lambda: pipeline.run_pipeline(cfg)) == "metrics"


def test_cli_stage_error_names_the_stage_and_exits_1(tmp_path, capsys):
    out = pipeline.write_sim_output(simulate(SMALL), tmp_path)
    argv = ["pipeline", "--source", "files", "--input-ul", str(tmp_path / "missing.csi")]
    argv += ["--input-dl", out["downlink"], "--geometry", out["geometry"], "--output-dir", str(tmp_path / "run")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: stage 'dataset': ")
    assert not (tmp_path / "run" / "report.json").exists()


def test_report_csv_bytes_are_pinned_for_a_seed(tmp_path):
    # one row per metric, sorted by name, each value its repr(float)
    cfg = pipeline.PipelineConfig(sim=SimConfig(grid_shape=(4, 4), m=32), method="none", metrics=("tvd", "cc", "mp"))
    pipeline.run_pipeline(cfg, output_dir=tmp_path)
    assert (tmp_path / "report.csv").read_bytes() == (
        b"metric,value\r\n"
        b"avg_cc,0.5706495140837886\r\n"
        b"avg_mp,0.072265625\r\n"
        b"avg_tvd,0.648681640625\r\n"
    )


def test_geometry_file_round_trip(tmp_path):
    geom = simulate(SMALL).geometry
    pipeline.write_geometry(geom, tmp_path / "geometry.json")
    back = pipeline.read_geometry(tmp_path / "geometry.json")
    assert np.array_equal(back.positions, geom.positions) and back.k == geom.k


def test_cli_split_applies_the_fitted_pair_model_at_its_k(tmp_path):
    out = simulate(SMALL)
    write_csi_file(out.uplink, tmp_path / "uplink.csi")
    pipeline.write_geometry(out.geometry, tmp_path / "geometry.json")
    files = ["--input", str(tmp_path / "uplink.csi"), "--geometry", str(tmp_path / "geometry.json")]
    common = ["--output-dir", str(tmp_path)]
    assert cli.main(["fit", *files, "--method", "ae2", "--k", "4", "--ae-epochs", "1", *common]) == 0
    assert cli.main(["split", *files, "--model", str(tmp_path / "model.bin"), *common]) == 0
    view = to_real_view(out.uplink)
    dec = decompose_ae_pairs(pipeline.read_model(tmp_path / "model.bin").model, view, out.geometry, 4)
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
