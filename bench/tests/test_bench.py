"""Self-tests of the benchmark harness: metric names, span arithmetic,
output checks and tracing of missing names. Fast; no workload is run."""

from __future__ import annotations

import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
from layers import PER_LAYER, IterationTrace  # noqa: E402
from tracing import Span, Tracer, inclusive_seconds, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, metric_problems, reference_problems  # noqa: E402

from csisplit import core, dependence, pca, pipeline  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_and_workload_names_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    names += [m.name for m in PER_LAYER] + list(WORKLOADS)
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad
    assert len({m["name"] for m in spec["end_to_end"] + spec["per_layer"]}) == len(spec["end_to_end"] + spec["per_layer"])


def test_benchmark_json_lists_what_the_driver_measures():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: the union [1, 5] counts once
        Span("c", 8.0, 12.0, 0),  # runs past the parent: only [8, 10] counts
        Span("leaf", 1.5, 2.5, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_inclusive_seconds_counts_nested_same_name_spans_once():
    spans = [Span("f", 0.0, 4.0, None), Span("g", 1.0, 3.0, 0), Span("f", 1.5, 2.5, 1), Span("f", 5.0, 6.0, None)]
    assert inclusive_seconds(spans) == pytest.approx({"f": 5.0, "g": 2.0})


def test_metric_ranges_reject_corrupted_values():
    good = {"avg_tvd": 0.5, "avg_cc": -0.2, "avg_mp": 0.1, "avg_delta_bar": 0.0, "x.avg_delta_bar": 3.0}
    assert metric_problems(good) == []
    for key, value in [("avg_tvd", 1.5), ("avg_cc", -1.01), ("avg_mp", -0.1), ("avg_delta_bar", 0.5), ("avg_cc", math.nan)]:
        assert metric_problems({**good, key: value}), (key, value)


def test_reference_pins_all_but_the_dependence_level_and_autoencoder():
    reference = {"w": {"avg_tvd": 0.5, "kpca.avg_cc": 0.25}}
    outputs = {"avg_tvd": 0.5, "kpca.avg_cc": 0.25, "avg_delta_bar": 7.0, "ae2.avg_cc": 0.3}
    assert reference_problems("w", outputs, reference) == []
    assert reference_problems("w", {**outputs, "avg_tvd": 0.5 + 1e-6}, reference)
    assert reference_problems("w", {k: v for k, v in outputs.items() if k != "kpca.avg_cc"}, reference)


def _fake_workload(outputs_by_call: dict[int, dict]) -> Workload:
    calls = []

    def run_once(_state):
        calls.append(None)
        time.sleep(0.005)
        return outputs_by_call.get(len(calls), {"avg_cc": 0.25})

    return Workload("fake", lambda seed, d: None, run_once, lambda _s, out: (out, metric_problems(out)))


def test_a_corrupted_or_changed_output_counts_as_a_failure():
    workload = _fake_workload({2: {"avg_cc": 1.5}, 3: {"avg_cc": 0.26}})
    result = run.measure(workload, None, seconds=0.2)
    assert result.attempted >= 4
    assert result.failed == 2
    assert len(result.walls) == result.attempted


def test_a_raising_iteration_counts_as_a_failure():
    def boom(_state):
        raise RuntimeError("boom")

    workload = Workload("fake", lambda seed, d: None, boom, lambda _s, out: (out, []))
    result = run.measure(workload, None, seconds=0.05)
    assert result.failed == result.attempted >= 1


def test_reference_failure_counts_and_tracing_alternates():
    workload = _fake_workload({})
    tracer = Tracer({"pca.fit_pca": None})
    result = run.measure(workload, None, seconds=0.1, check_reference=lambda out: ["off"], tracer=tracer)
    assert result.failed == 1  # the first iteration only
    assert result.traces and result.walls


def test_missing_name_yields_absent_metrics():
    tracer = Tracer({"dependence.permutation_statistics": None, "dependence.no_such_function": None}, ("core.gone",))
    assert tracer.absent == ["core.gone", "dependence.no_such_function"]
    with tracer:
        pass
    trace = IterationTrace([Span("cli.main", 0.0, 1.0, None)], {}, {}, 1.0)
    values, absent = run.layer_values([trace], 1.0, ["dependence.permutation_statistics"])
    assert {"dependence.permutation_statistics.s", "dependence.permutations_per_s"} <= set(absent)
    assert "dependence.permutation_statistics.s" not in values
    assert values["dependence.avg_neighbor_cc.s"] == 0.0
    assert values["trace.unaccounted_s"] == 0.0
    _, absent = run.layer_values([trace], None, [])
    assert absent == ["trace.overhead_s"]


def test_tracer_replaces_every_binding_and_restores_them():
    original = dependence.avg_neighbor_cc
    geom = core.NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), k=2)
    view = np.random.default_rng(0).standard_normal((8, 4))
    with Tracer({"dependence.avg_neighbor_cc": None, "core.NodeGeometry": None}, ("dependence.pearson_cc",)) as t:
        assert pipeline.avg_neighbor_cc is pca.avg_neighbor_cc is dependence.avg_neighbor_cc is not original
        pipeline.avg_neighbor_cc(view, geom, 2)
        core.NodeGeometry(positions=geom.positions)
    assert pipeline.avg_neighbor_cc is pca.avg_neighbor_cc is dependence.avg_neighbor_cc is original
    assert [s.name for s in t.spans] == ["dependence.avg_neighbor_cc", "core.NodeGeometry"]
    assert t.counts["dependence.pearson_cc"] == 8
