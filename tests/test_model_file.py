"""The model file of ``pipeline.write_model`` and ``pipeline.read_model``:
bit-exact round trips for every method, a pinned layout, and typed errors
for every malformed file, mutated ones included."""

import dataclasses
import hashlib
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisplit import pipeline
from csisplit.autoencoder import TrainedModel, default_mlp_spec, init_params
from csisplit.core import to_real_view
from csisplit.simulate import SimConfig, simulate

MODEL_METHODS = ("pca", "kpca", "ae1", "ae2")


@pytest.fixture(scope="module")
def uplink():
    out = simulate(SimConfig(grid_shape=(4, 4), m=16))
    return to_real_view(out.uplink), out.geometry


def _cfg(method, **overrides):
    settings = dict(d_hat=2, d2=10, ae_epochs=2, k_neighbors=3)
    return pipeline.PipelineConfig(method=method, **{**settings, **overrides})


@pytest.fixture(scope="module")
def fitted(uplink):
    ul, geom = uplink
    return {method: pipeline.fit(_cfg(method), ul, geom) for method in MODEL_METHODS}


def _fields(f: pipeline.Fitted) -> list:
    """Every field of a fitted split, arrays as their float64 bytes: equal
    lists are bit-exact copies."""
    model = f.model
    if f.method == "pca":
        parts = [model.eigenvectors, model.eigenvalues, model.mean, f.ranks]
    elif f.method == "kpca":
        parts = [model.alphas, model.eigenvalues, model.factor[0], model.factor[1], model.eigenvalue_sum]
        parts += [model.shape, dataclasses.astuple(model.diagnostics)]
    else:
        parts = [model.spec, model.params, model.input_scale, np.array(model.history), f.k]
    arrays = [(p.shape, np.asarray(p, dtype="<f8").tobytes()) if isinstance(p, np.ndarray) else p for p in parts]
    return [f.method, *arrays]


def _written(f, path):
    pipeline.write_model(f, path)
    return path.read_bytes()


@pytest.mark.parametrize("method", MODEL_METHODS)
def test_model_file_round_trip_is_bit_exact(fitted, tmp_path, method):
    raw = _written(fitted[method], tmp_path / "model.bin")
    back = pipeline.read_model(tmp_path / "model.bin")
    assert _fields(back) == _fields(fitted[method])
    assert _written(back, tmp_path / "again.bin") == raw
    assert pipeline.describe(back).keys() == pipeline.describe(fitted[method]).keys()


def test_a_pca_model_holds_only_the_components_its_split_reads(fitted):
    # d_hat=2, d2=10: the first 10 of the 32 components
    assert fitted["pca"].model.eigenvectors.shape == (10, 32)
    assert fitted["pca"].model.eigenvalues.shape == (10,)


def test_an_infinite_condition_estimate_comes_back_as_the_float(fitted, tmp_path):
    model = fitted["kpca"].model
    diagnostics = dataclasses.replace(model.diagnostics, condition_estimate=math.inf)
    f = pipeline.Fitted("kpca", dataclasses.replace(model, diagnostics=diagnostics))
    pipeline.write_model(f, tmp_path / "model.bin")
    condition = pipeline.read_model(tmp_path / "model.bin").model.diagnostics.condition_estimate
    assert type(condition) is float and condition == math.inf


def _pinned_models():
    spec = default_mlp_spec(6, 2)
    model = TrainedModel(spec, init_params(spec, np.random.default_rng(9)), input_scale=0.75, history=[0.5, 0.25])
    return {"ae1": pipeline.Fitted("ae1", model), "ae2": pipeline.Fitted("ae2", model, k=3)}


# length and sha256 of the model files of an untrained 6-wide autoencoder
GOLDEN_MODEL_FILES = {
    "ae1": (109_295, "58d50b9345682df2ec236ded6a6c71d9e9618bd8976107b21195e14cefacd47c"),
    "ae2": (109_303, "21ed162acc4f0cab0dfb20c8633d55921899fedf10bdb614904d02fe3947dd6d"),
}


@pytest.mark.parametrize("method", ["ae1", "ae2"])
def test_model_file_layout_is_pinned(tmp_path, method):
    raw = _written(_pinned_models()[method], tmp_path / "model.bin")
    assert (len(raw), hashlib.sha256(raw).hexdigest()) == GOLDEN_MODEL_FILES[method]
    magic, version, length = struct.unpack_from("<4sII", raw)
    assert (magic, version) == (b"CSM1", 1)
    header = json.loads(raw[12 : 12 + length])
    n_params = default_mlp_spec(6, 2).n_params
    assert header["method"] == method and header["arrays"] == {"params": [n_params], "history": [2]}


def _parts(f, tmp_path):
    """(header object, payload bytes) of a fitted split's model file."""
    raw = _written(f, tmp_path / "valid.bin")
    (length,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12 : 12 + length]), raw[12 + length :]


def _model_file(header, payload=b"", version=1) -> bytes:
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    return b"CSM1" + struct.pack("<II", version, len(text)) + text + payload


def _edited(header, **settings):
    return {**header, "settings": {**header["settings"], **settings}}


def _bad_files(fitted, tmp_path):
    pca, pca_payload = _parts(fitted["pca"], tmp_path)
    kpca, kpca_payload = _parts(fitted["kpca"], tmp_path)
    ae1, ae1_payload = _parts(fitted["ae1"], tmp_path)
    ae2, ae2_payload = _parts(fitted["ae2"], tmp_path)
    last = struct.pack("<d", math.nan)
    shapes = pca["arrays"]
    return {
        "empty": (b"", "no model file: 0 bytes, magic b'', version 0, 0-B header"),
        "short": (b"CSM1\x01\x00", "no model file: 6 bytes, magic b''"),
        "magic": (b"NOPE" + _model_file(pca, pca_payload)[4:], "magic b'NOPE'"),
        "version": (_model_file(pca, pca_payload, version=2), "version 2"),
        "header-past-the-end": (b"CSM1" + struct.pack("<II", 1, 2**32 - 1) + b"{}", "4294967295-B header"),
        "not-json": (_model_file(b"{method", pca_payload), "Expecting property name"),
        "not-utf8": (_model_file(b'{"method": "\xff"}', pca_payload), "codec can't decode"),
        "nested-too-deeply": (_model_file(b"[" * 100_000 + b"]" * 100_000), "recursion"),
        "huge-int-text": (_model_file(b'{"method": ' + b"1" * 5000 + b"}"), "4300"),
        "not-an-object": (_model_file([1, 2], pca_payload), "names no method"),
        "unknown-method": (_model_file({**pca, "method": "svd"}, pca_payload), "names no method"),
        "unhashable-method": (_model_file({**pca, "method": ["pca"]}, pca_payload), "unhashable"),
        "no-settings": (_model_file({**pca, "settings": [1]}, pca_payload), "the pca settings are"),
        "float-rank": (_model_file(_edited(pca, d_hat=1.0), pca_payload), "the pca settings are"),
        "bool-rank": (_model_file(_edited(pca, d_hat=True), pca_payload), "the pca settings are"),
        "missing-setting": (_model_file({**pca, "settings": {"d_hat": 2}}, pca_payload), "the pca settings are"),
        "huge-int-scale": (_model_file(_edited(ae1, input_scale=10**400), ae1_payload), "the ae1 settings are"),
        "arrays-reordered": (
            _model_file({**pca, "arrays": dict(reversed(list(shapes.items())))}, pca_payload),
            "the pca arrays are",
        ),
        "array-missing": (_model_file({**pca, "arrays": {"eigenvectors": [10, 32]}}, pca_payload), "arrays are"),
        "negative-size": (
            _model_file({**pca, "arrays": {**shapes, "eigenvalues": [-1], "mean": [43]}}, pca_payload),
            "each shaped by a list of sizes",
        ),
        "float-size": (_model_file({**pca, "arrays": {**shapes, "mean": [32.0]}}, pca_payload), "list of sizes"),
        "huge-size": (_model_file({**pca, "arrays": {**shapes, "mean": [10**400]}}, pca_payload), "arrays need"),
        "truncated": (_model_file(pca, pca_payload[:-1]), "bytes after the header, the arrays need"),
        "trailing": (_model_file(pca, pca_payload + bytes(8)), "bytes after the header, the arrays need"),
        "not-finite": (_model_file(ae1, ae1_payload[:-8] + last), "not finite"),
        "mean-of-another-width": (
            _model_file({**pca, "arrays": {**shapes, "mean": [31]}}, pca_payload[:-8]),
            r"eigenvectors \(10, 32\), eigenvalues \(10,\), mean \(31,\)",
        ),
        "band-beyond-the-basis": (_model_file(_edited(pca, d2=11), pca_payload), "band"),
        "factor-of-another-shape": (
            _model_file(_edited(kpca, shape=[16, 15]), kpca_payload),
            r"a \(16, 16\) factor and \(16, 2\) alphas for a fitted shape \[16, 15\]",
        ),
        "fitted-shape-of-one-entry": (_model_file(_edited(kpca, shape=[16]), kpca_payload), "fitted shape"),
        "zero-gamma": (_model_file(_edited(kpca, gamma=0.0), kpca_payload), "ridge gamma 0.0"),
        "params-of-another-architecture": (
            _model_file(_edited(ae1, layer_dims=[32, 100, 50, 20, 3, 20, 50, 100, 32]), ae1_payload),
            r"need integer widths and 18895 parameters, not \(18854,\)",
        ),
        "float-layer-dim": (
            _model_file(_edited(ae1, layer_dims=[32.0, 100, 50, 20, 2, 20, 50, 100, 32]), ae1_payload),
            "need integer widths",
        ),
        "infinite-layer-dim": (
            _model_file(_edited(ae1, layer_dims=[1e400, 100, 50, 20, 2, 20, 50, 100, 1e400]), ae1_payload),
            "infinity",
        ),
        "activation-of-no-name": (
            _model_file(_edited(ae1, activations=["tanh"] * 7 + ["sine"]), ae1_payload),
            "activations must be among",
        ),
        "nan-scale": (_model_file(_edited(ae1, input_scale=math.nan), ae1_payload), "input scale nan"),
        "zero-k": (_model_file(_edited(ae2, k=0), ae2_payload), "k >= 1"),
        "ae2-without-k": (_model_file({**ae2, "settings": ae1["settings"]}, ae2_payload), "the ae2 settings are"),
    }


def test_every_malformed_model_file_raises_a_typed_error_naming_it(fitted, tmp_path):
    for name, (raw, match) in _bad_files(fitted, tmp_path).items():
        path = tmp_path / f"{name}.bin"
        path.write_bytes(raw)
        with pytest.raises(pipeline.ModelFileError, match=match) as excinfo:
            pipeline.read_model(path)
        assert str(excinfo.value).startswith(f"{path}: "), name
        assert isinstance(excinfo.value, ValueError)


def test_oversized_model_file_is_refused_without_being_read(fitted, tmp_path):
    path = tmp_path / "model.bin"
    pipeline.write_model(fitted["ae1"], path)
    os.truncate(path, pipeline.MAX_MODEL_BYTES + 1)  # sparse: no disk blocks
    tracemalloc.start()
    try:
        with pytest.raises(pipeline.ModelFileError, match=f"more than the {pipeline.MAX_MODEL_BYTES}-byte limit"):
            pipeline.read_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # reading the file would allocate its 1 GiB


@pytest.fixture(scope="module")
def small_models():
    """One small fitted split of each method, for the mutation test."""
    out = simulate(SimConfig(grid_shape=(2, 3), m=2, seed=3))
    view, geom = to_real_view(out.uplink), out.geometry
    cfg = dict(d_hat=1, d1=1, d2=2, ae_epochs=1, k_neighbors=2)
    return {method: pipeline.fit(pipeline.PipelineConfig(method=method, **cfg), view, geom) for method in MODEL_METHODS}


@pytest.mark.parametrize("method", MODEL_METHODS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_model_files_either_load_or_raise_a_typed_error(tmp_path_factory, small_models, method, data):
    directory = tmp_path_factory.mktemp("model")
    raw = bytearray(_written(small_models[method], directory / "valid.bin"))
    (length,) = struct.unpack_from("<I", raw, 8)
    for _ in range(data.draw(st.integers(1, 4))):
        pos = data.draw(st.integers(0, min(len(raw), 12 + length + 16) - 1))  # the header and the payload's start
        raw[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(raw)))
    path = directory / "fuzz.bin"
    path.write_bytes(bytes(raw[:cut]) + data.draw(st.binary(max_size=16)))
    try:
        model = pipeline.read_model(path)
    except pipeline.ModelFileError:
        return
    # what loads writes back to a file that loads to the same bytes again
    once = _written(model, directory / "once.bin")
    assert _written(pipeline.read_model(directory / "once.bin"), directory / "twice.bin") == once
