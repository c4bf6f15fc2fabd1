"""Golden metrics and oracles for the decomposition methods: the pipeline,
``compare`` and the ``decompose`` command must give what the methods' own
fit and decompose functions give."""

import dataclasses
import json

import numpy as np
import pytest

from csisplit import autoencoder, cli, pipeline
from csisplit.autoencoder import (
    TrainConfig,
    build_pair_dataset,
    decompose_ae,
    decompose_ae_pairs,
    default_mlp_spec,
    train,
)
from csisplit.core import Decomposition, read_csi_file, to_real_view, view_to_complex, write_csi_file
from csisplit.kpca import decompose_kpca, fit_kpca
from csisplit.pca import DecompConfig, decompose, fit_pca
from csisplit.simulate import SimConfig, simulate

SIM = SimConfig(grid_shape=(4, 4), m=32)

# run_pipeline metrics at SIM with delta_pairs=2, delta_b=100
GOLDEN = {
    "none": {
        "avg_tvd": 0.648681640625,
        "avg_cc": 0.5706495140837886,
        "avg_mp": 0.072265625,
        "avg_delta_bar": 4.496950077271084,
    },
    "pca": {
        "avg_tvd": 0.886474609375,
        "avg_cc": -0.04355704429465309,
        "avg_mp": 0.095703125,
        "avg_delta_bar": 2.595615117817187,
    },
    "kpca": {
        "avg_tvd": 0.6591796875,
        "avg_cc": -0.03530092938562549,
        "avg_mp": 0.109375,
        "avg_delta_bar": 1.3265448278047893,
    },
}


def _cfg(method, **overrides):
    return pipeline.PipelineConfig(sim=SIM, method=method, delta_pairs=2, delta_b=100, ae_epochs=2, **overrides)


@pytest.fixture(scope="module")
def dataset():
    out = simulate(SIM)
    return out.uplink, out.downlink, out.geometry


@pytest.mark.parametrize("method", sorted(GOLDEN))
def test_pipeline_metrics_match_golden(method):
    metrics = pipeline.run_pipeline(_cfg(method))["metrics"]
    assert metrics.keys() == GOLDEN[method].keys()
    for key, want in GOLDEN[method].items():
        assert abs(metrics[key] - want) <= 1e-9, key


@pytest.mark.parametrize("method", sorted(pipeline.DECOMPOSERS))
def test_every_decomposer_splits_each_view_into_one_real_view_decomposition(dataset, method):
    ul, dl, geom = dataset
    views = [to_real_view(ul), to_real_view(dl)]
    splits, _, _ = pipeline.DECOMPOSERS[method](_cfg(method, d_hat=2), views, geom)
    assert len(splits) == len(views)
    for split, view in zip(splits, views):
        assert type(split) is Decomposition
        for part in split:
            assert part.dtype == np.float64 and part.shape == view.shape
        if method in ("kpca", "ae1", "ae2"):  # the unpredictable part is the exact residual
            assert np.array_equal(split.unpredictable, view - split.predictable)


def _pair_data(view, geom, k):
    """(node, neighbor) column pairs, gathered independently of the package."""
    return np.vstack([np.repeat(view, k, axis=1), view[:, geom.neighbors(k).ravel()]])


@pytest.mark.parametrize("mode", ["centralized", "localized"])
@pytest.mark.parametrize("method", ["ae1", "ae2"])
def test_autoencoder_methods_equal_direct_train_and_decompose(dataset, method, mode):
    ul, dl, geom = dataset
    cfg = _cfg(method, ae_mode=mode)
    got = pipeline.apply_method(cfg, ul, dl, geom)

    ul_view, dl_view = to_real_view(ul), to_real_view(dl)
    k = cfg.k_neighbors
    tc = TrainConfig(
        loss="e1" if method == "ae1" else "e2",
        learning_rate=cfg.ae_learning_rate,
        batch_size=cfg.ae_batch_size,
        epochs=cfg.ae_epochs,
        seed=cfg.seed,
        mu=cfg.ae_loss_mu,
    )
    if method == "ae1":
        data_ul, data_dl = ul_view, dl_view
    else:
        data_ul, data_dl = _pair_data(ul_view, geom, k), _pair_data(dl_view, geom, k)
    spec = default_mlp_spec(data_ul.shape[0], 1)
    if mode == "centralized":
        model_ul = model_dl = train(data_ul, spec, tc)
    else:  # each side its own model, with seeds spawned from the pipeline's
        seeds = [int(seq.generate_state(1)[0]) for seq in np.random.SeedSequence(cfg.seed).spawn(2)]
        model_ul = train(data_ul, spec, dataclasses.replace(tc, seed=seeds[0]))
        model_dl = train(data_dl, spec, dataclasses.replace(tc, seed=seeds[1]))
    if method == "ae1":
        dec_ul, dec_dl = decompose_ae(model_ul, ul_view), decompose_ae(model_dl, dl_view)
    else:
        dec_ul = decompose_ae_pairs(model_ul, ul_view, geom, k)
        dec_dl = decompose_ae_pairs(model_dl, dl_view, geom, k)

    assert np.array_equal(got.fingerprint, np.abs(view_to_complex(dec_ul.predictable)))
    assert np.array_equal(got.unpred_ul, dec_ul.unpredictable)
    assert np.array_equal(got.unpred_dl, dec_dl.unpredictable)
    assert got.details["final_loss_ul"] == model_ul.final_loss
    assert got.details["final_loss_dl"] == model_dl.final_loss


@pytest.mark.parametrize("mode, trained", [("centralized", 1), ("localized", 2)])
def test_ae2_builds_pair_data_for_training_only(dataset, monkeypatch, mode, trained):
    ul, dl, geom = dataset
    built = []

    def counting_build(view, geom, k=8):
        built.append(view)
        return build_pair_dataset(view, geom, k)

    monkeypatch.setattr(autoencoder, "build_pair_dataset", counting_build)
    monkeypatch.setattr(pipeline, "build_pair_dataset", counting_build)
    pipeline.apply_method(_cfg("ae2", ae_mode=mode), ul, dl, geom)
    # one build per trained model, the uplink's first; the splits gather
    # their pairs block by block
    assert len(built) == trained
    for view, csi in zip(built, (ul, dl)):
        assert np.array_equal(view, to_real_view(csi))


@pytest.mark.parametrize("grid, k", [((16, 16), 3), ((16, 16), 8), ((19, 17), 3), ((19, 17), 8)])
def test_ae2_split_equals_one_forward_over_all_pairs(grid, k):
    out = simulate(SimConfig(grid_shape=grid, m=6))
    view, geom = to_real_view(out.uplink), out.geometry
    spec = default_mlp_spec(2 * view.shape[0], 2)
    model = autoencoder.TrainedModel(
        spec=spec, params=autoencoder.init_params(spec, np.random.default_rng(5)), input_scale=0.37
    )
    got = decompose_ae_pairs(model, view, geom, k)

    y, _ = autoencoder.forward(spec, model.params, build_pair_dataset(view, geom, k) / model.input_scale)
    want = np.zeros_like(view)
    for rank in range(k):
        want += y[: view.shape[0], rank::k]
    want *= model.input_scale / k
    assert np.array_equal(got.unpredictable, view - got.predictable)
    if geom.n <= autoencoder.PAIR_BLOCK_NODES:  # one block: the one-shot pass itself
        assert np.array_equal(got.predictable, want)
    else:  # 256 + 67 nodes: each block's matrix products may round as BLAS's kernel for their shape does
        np.testing.assert_allclose(got.predictable, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_compare_rows_equal_the_pipeline_metrics():
    methods = pipeline.METHODS[::-1]  # none last, so the original columns cannot come from the first row
    cfgs = [_cfg(method) for method in methods]
    rows = pipeline.compare_methods(cfgs)["rows"]
    assert [row["method"] for row in rows] == list(methods)
    original = pipeline.run_pipeline(_cfg("none"))["metrics"]
    for cfg, row in zip(cfgs, rows):
        metrics = pipeline.run_pipeline(cfg)["metrics"]
        assert row["residual_cc"] == metrics["avg_cc"]
        assert row["residual_delta_bar"] == metrics["avg_delta_bar"]
        assert row["mp"] == metrics["avg_mp"]
        assert row["original_cc"] == original["avg_cc"]
        assert row["original_delta_bar"] == original["avg_delta_bar"]


def test_compare_splits_method_none_once(monkeypatch):
    apply_method, applied = pipeline.apply_method, []

    def counting_apply(cfg, *args):
        applied.append(cfg.method)
        return apply_method(cfg, *args)

    monkeypatch.setattr(pipeline, "apply_method", counting_apply)
    rows = pipeline.compare_methods([_cfg("none"), _cfg("pca")])["rows"]
    assert applied == ["none", "pca"]
    for row, method in zip(rows, ("none", "pca")):
        assert row["original_cc"] == GOLDEN["none"]["avg_cc"]
        assert row["original_delta_bar"] == GOLDEN["none"]["avg_delta_bar"]
        assert row["residual_cc"] == GOLDEN[method]["avg_cc"]
        assert row["residual_delta_bar"] == GOLDEN[method]["avg_delta_bar"]
        assert row["mp"] == GOLDEN[method]["avg_mp"]


def test_compare_report_records_the_config_it_scored(tmp_path):
    report = pipeline.compare_methods([_cfg("none"), _cfg("pca")], output_dir=tmp_path)
    assert list(report["config"]["metrics"]) == ["cc", "delta_bar", "mp"]
    written = json.loads((tmp_path / "compare.json").read_text(encoding="utf-8"))
    assert written["config"]["metrics"] == ["cc", "delta_bar", "mp"]


def _run_cli(tmp_path, argv):
    assert cli.main(argv + ["--output-dir", str(tmp_path)]) == 0
    details = json.loads((tmp_path / "decompose.json").read_text(encoding="utf-8"))
    return read_csi_file(tmp_path / "predictable.csi"), read_csi_file(tmp_path / "unpredictable.csi"), details


def test_cli_pca_decompose_files_equal_the_direct_split(tmp_path, dataset):
    ul = dataset[0]
    write_csi_file(ul, tmp_path / "ul.csi")
    argv = ["decompose", "--input", str(tmp_path / "ul.csi"), "--d-hat", "2", "--d2", "10"]
    pred, unpred, details = _run_cli(tmp_path, argv)
    view = to_real_view(ul)
    # the pca split fits only the max(d_hat, d2) components it reads
    dec = decompose(view, fit_pca(view, top=10), DecompConfig(d_hat=2, d1=3, d2=10))
    assert np.array_equal(to_real_view(pred), dec.predictable)
    assert np.array_equal(to_real_view(unpred), dec.unpredictable)
    assert pred.direction == unpred.direction == ul.direction
    assert pred.snr_db == unpred.snr_db == ul.snr_db
    assert details == {"method": "pca", "d_hat": 2, "d1": 3, "d2": 10}


def test_cli_decompose_splits_its_view_once(tmp_path, dataset, monkeypatch):
    views = []

    def counting_decompose(view, basis, cfg):
        views.append(view)
        return decompose(view, basis, cfg)

    monkeypatch.setattr(pipeline, "decompose", counting_decompose)
    write_csi_file(dataset[0], tmp_path / "ul.csi")
    _run_cli(tmp_path, ["decompose", "--input", str(tmp_path / "ul.csi")])
    assert len(views) == 1 and np.array_equal(views[0], to_real_view(dataset[0]))


def test_cli_kpca_decompose_files_equal_the_direct_split(tmp_path, dataset):
    ul = dataset[0]
    write_csi_file(ul, tmp_path / "ul.csi")
    argv = ["decompose", "--method", "kpca", "--input", str(tmp_path / "ul.csi"), "--d-hat", "2", "--gamma", "0.01"]
    pred, unpred, details = _run_cli(tmp_path, argv)
    model = fit_kpca(ul, 2, gamma=0.01)
    want_pred, want_unpred = decompose_kpca(model, ul)
    assert np.array_equal(to_real_view(pred), want_pred)
    assert np.array_equal(to_real_view(unpred), want_unpred)
    assert details["gamma"] == 0.01 and details["d_hat"] == 2
    assert details["condition_estimate"] == model.diagnostics.condition_estimate
    assert details["eigenvalues"] == model.eigenvalues.tolist()
    # every field the former kpca.json carried but the asymmetry norm, which the
    # Gram's exact symmetry made pointless
    assert set(details) >= {
        "d_hat", "eigenvalues", "bandwidth_sigma", "score_bandwidth", "gamma", "condition_estimate"
    }
