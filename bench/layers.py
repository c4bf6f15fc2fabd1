"""Per-layer metrics of the traced run, and the csisplit functions they are
measured at.

Each metric names the end-to-end metric and workload it should move, so that
a change to one layer can state beforehand where its effect must show.
Totals are per timed iteration: ``.s`` is inclusive seconds, ``.calls`` an
exact count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from tracing import Span, inclusive_seconds

# target -> None, or a function of the call's bound arguments giving its work units
SPANNED = {
    "simulate.simulate": None,
    "core.NodeGeometry": None,
    "core.read_csi_file": lambda a: os.path.getsize(a["path"]),
    "pca.fit_pca": None,
    "pca.decompose": None,
    "pca.sweep": None,
    "kpca.fit_kpca": None,
    "kpca.decompose_kpca": None,
    "autoencoder.train": lambda a: a["cfg"].epochs * np.shape(a["dataset"])[1],
    "autoencoder.build_pair_dataset": None,
    "autoencoder.decompose_ae": None,
    "autoencoder.decompose_ae_pairs": None,
    "dependence.dhsic_test": lambda a: a["b"],
    "dependence.permutation_statistics": None,
    "dependence.gaussian_gram_1d": None,
    "dependence.avg_neighbor_cc": None,
    "fingerprint.avg_neighbor_tvd": None,
    "skg.avg_mp": None,
    "pipeline.run_pipeline": None,
    "pipeline.load_dataset": None,
    "pipeline.apply_method": None,
    "pipeline.compute_metrics": None,
    "pipeline.write_report": None,
    "cli.main": None,
}
# hot inner functions: counted, not spanned
COUNTED = ("dependence.pearson_cc", "core.nearest_neighbors", "fingerprint.pairwise_tvd")


@dataclass(frozen=True)
class IterationTrace:
    """What the tracer recorded during one timed iteration."""

    spans: list[Span]
    counts: dict[str, int]
    work: dict[str, float]
    wall: float

    @cached_property
    def _inclusive(self) -> dict[str, float]:
        return inclusive_seconds(self.spans)

    def seconds(self, *targets: str) -> float:
        return sum(self._inclusive.get(t, 0.0) for t in targets)

    def calls(self, target: str) -> int:
        return self.counts.get(target, 0) + sum(1 for s in self.spans if s.name == target)

    def rate(self, work_target: str, time_target: str) -> float:
        busy = self.seconds(time_target)
        return self.work.get(work_target, 0.0) / busy if busy > 0 else 0.0

    def top_level_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent is None)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metric and workload this layer metric should move
    needs: tuple[str, ...]  # traced targets; the metric is absent when one is missing
    value: Callable[[IterationTrace, float], float]  # (trace, untraced median wall) -> value


def _s(name, moves, *targets):
    targets = targets or (name,)
    return LayerMetric(f"{name}.s", "s", "lower", moves, targets, lambda t, _: t.seconds(*targets))


def _calls(name, moves):
    return LayerMetric(f"{name}.calls", "count", "lower", moves, (name,), lambda t, _: t.calls(name))


_DHSIC = "wall_s on paper-default (and peak_rss_mb if permutations are batched); no change on band-sweep or grid-1600"
_NEIGHBOR = "wall_s on band-sweep; ~15% of it on grid-1600, <1% on paper-default"
_TVD = "wall_s on grid-1600; <1% on paper-default"
_SCALE = "wall_s and peak_rss_mb on grid-1600; setup_s on band-sweep"
_DECOMP = "wall_s on grid-1600 only"
_IO = "wall_s on band-sweep (ingest and output path)"
_STAGE = "splits wall_s on paper-default and grid-1600 into stages"

PER_LAYER: tuple[LayerMetric, ...] = (
    _s("dependence.dhsic_test", _DHSIC),
    _calls("dependence.dhsic_test", _DHSIC),
    _s("dependence.permutation_statistics", _DHSIC),
    _s("dependence.gaussian_gram_1d", _DHSIC),
    LayerMetric(
        "dependence.permutations_per_s", "1/s", "higher", _DHSIC,
        ("dependence.dhsic_test", "dependence.permutation_statistics"),
        lambda t, _: t.rate("dependence.dhsic_test", "dependence.permutation_statistics"),
    ),
    _s("dependence.avg_neighbor_cc", _NEIGHBOR),
    _calls("dependence.pearson_cc", _NEIGHBOR),
    _calls("core.nearest_neighbors", _NEIGHBOR),
    _s("skg.avg_mp", _NEIGHBOR),
    _s("pca.sweep", _NEIGHBOR),
    _s("fingerprint.avg_neighbor_tvd", _TVD),
    _calls("fingerprint.pairwise_tvd", _TVD),
    _s("simulate.simulate", _SCALE),
    _s("core.NodeGeometry", _SCALE),
    _s("pca.fit_pca", "wall_s on paper-default and band-sweep (<1%)"),
    _s("pca.decompose", "wall_s on paper-default and band-sweep (<1%)"),
    _s("kpca.fit_kpca", _DECOMP),
    _s("kpca.decompose_kpca", _DECOMP),
    _s("autoencoder.train", _DECOMP),
    LayerMetric(
        "autoencoder.train.samples_per_s", "1/s", "higher", _DECOMP, ("autoencoder.train",),
        lambda t, _: t.rate("autoencoder.train", "autoencoder.train"),
    ),
    _s("autoencoder.build_pair_dataset", _DECOMP),
    _s("autoencoder.decompose", _DECOMP, "autoencoder.decompose_ae", "autoencoder.decompose_ae_pairs"),
    _s("core.read_csi_file", _IO),
    LayerMetric(
        "core.read_csi_file.bytes", "bytes", "lower", _IO, ("core.read_csi_file",),
        lambda t, _: t.work.get("core.read_csi_file", 0),
    ),
    _s("pipeline.write_report", _IO),
    _s("pipeline.load_dataset", _STAGE),
    _s("pipeline.apply_method", _STAGE),
    _s("pipeline.compute_metrics", _STAGE),
    LayerMetric(
        "trace.overhead_s", "s", "lower", "none: traced median wall minus untraced median wall", (),
        lambda t, untraced: t.wall - untraced,
    ),
    LayerMetric(
        "trace.unaccounted_s", "s", "lower", "none: iteration wall minus the top-level spans", (),
        lambda t, _: t.wall - t.top_level_seconds(),
    ),
)
