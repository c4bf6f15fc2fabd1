"""Total variation distance between per-node empirical fingerprint measures.

The fingerprint statistic is the amplitude (modulus) of each node's
predictable-component time series; a pair of nodes is compared through
histograms on a shared equal-width grid spanning the pooled sample range.

One binning rule (:func:`_pair_edges`, :func:`_bin_counts`) scores every pair;
:func:`pairwise_tvd`, its one-pair case, stays public for the benchmark's count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NodeGeometry, neighbor_pairs

DEFAULT_BINS = 32


@dataclass(frozen=True)
class FingerprintReport:
    pairs: list[tuple[int, int]]
    pair_tvd: np.ndarray
    avg_tvd: float


def _pair_edges(lo: np.ndarray, hi: np.ndarray, bins: int) -> np.ndarray:
    """Row p is the ``bins``-bin equal-width grid over a pair's pooled range
    [lo[p], hi[p]], widened when hi[p] <= lo[p] so that it is valid. A row
    whose step underflows to zero cannot be strictly increasing and raises.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    hi = np.where(hi <= lo, lo + np.maximum(np.abs(lo), 1.0) * 1e-12 + 1e-300, hi)
    edges = np.linspace(lo, hi, bins + 1, axis=-1)
    if np.any(np.diff(edges, axis=1) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    return edges


def _bin_counts(samples: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(pairs, bins) counts of column p of ``samples`` on row p of ``edges``.

    Every sample lies on its pair's grid. Its bin is the number of interior
    edges at or below it, which is numpy.histogram's rule for explicit
    edges: bins are half open except the last, which holds the top edge.
    The bin is first estimated by arithmetic, then moved one edge at a time
    until that rule holds.
    """
    pairs, bins = edges.shape[0], edges.shape[1] - 1
    pair = np.arange(pairs)
    lo, width = edges[:, 0], edges[:, -1] - edges[:, 0]
    guess = np.clip((samples - lo) / width * bins, 0, bins - 1).astype(np.intp)
    lower = pair * (bins + 1)  # flat index of each pair's first edge
    index = lower + guess
    flat = edges.ravel()
    while (down := samples < flat[index]).any():
        index -= down
    while (up := (index < lower + bins - 1) & (samples >= flat[index + 1])).any():
        index += up
    bin_of_pair = index - lower + pair * bins
    return np.bincount(bin_of_pair.ravel(), minlength=pairs * bins).reshape(pairs, bins)


def pairwise_tvd(samples_a, samples_b, bins: int = DEFAULT_BINS) -> float:
    """TVD between two sample sets (of any lengths) on a shared equal-width
    grid over their pooled range: the one-pair case of :func:`avg_neighbor_tvd`."""
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size < 1 or b.size < 1 or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("need finite samples, at least one on each side")
    edges = _pair_edges(np.array([min(a.min(), b.min())]), np.array([max(a.max(), b.max())]), bins)
    probs_a = _bin_counts(a[:, None], edges)[0] / a.size
    probs_b = _bin_counts(b[:, None], edges)[0] / b.size
    return float(0.5 * np.sum(np.abs(probs_a - probs_b)))


def avg_neighbor_tvd(
    fingerprints: np.ndarray,
    geom: NodeGeometry,
    k: int | None = None,
    bins: int = DEFAULT_BINS,
) -> FingerprintReport:
    """Mean TVD over all (node, nearest-neighbor) pairs.

    ``fingerprints`` holds one amplitude sample set per node: shape
    (samples, n). Each pair gets its own shared 'bins'-bin grid over the
    pooled min/max, and its TVD equals :func:`pairwise_tvd` of the two
    columns. That TVD is symmetric bit for bit, so each unordered pair is
    scored once, in chunks of at most n // 2 pairs, and its value is
    scattered back to both directed pairs; ``pair_tvd`` stays node-major.
    """
    fp = np.asarray(fingerprints, dtype=np.float64)
    if fp.ndim != 2 or fp.shape[1] != geom.n:
        raise ValueError(f"fingerprints must have one column per node ({geom.n}), got shape {fp.shape}")
    if not np.all(np.isfinite(fp)):
        raise ValueError("fingerprints contain non-finite values")
    kk = geom.k if k is None else k
    other = geom.neighbors(kk).ravel()
    n, samples = geom.n, fp.shape[0]
    node = np.repeat(np.arange(n), kk)
    keys, directed = np.unique(np.minimum(node, other) * n + np.maximum(node, other), return_inverse=True)
    left, right = keys // n, keys % n
    lo_node, hi_node = fp.min(axis=0), fp.max(axis=0)
    unique_tvd = np.empty(keys.size)
    chunk = n // 2  # n >= 2, or neighbors(kk) has raised
    for start in range(0, keys.size, chunk):
        a, b = left[start : start + chunk], right[start : start + chunk]
        edges = _pair_edges(np.minimum(lo_node[a], lo_node[b]), np.maximum(hi_node[a], hi_node[b]), bins)
        probs_a = _bin_counts(fp[:, a], edges) / samples
        probs_b = _bin_counts(fp[:, b], edges) / samples
        unique_tvd[start : start + chunk] = 0.5 * np.sum(np.abs(probs_a - probs_b), axis=1)
    vals = unique_tvd[directed]
    vals.setflags(write=False)
    return FingerprintReport(pairs=neighbor_pairs(geom, kk), pair_tvd=vals, avg_tvd=float(np.mean(vals)))
