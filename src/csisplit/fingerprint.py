"""Total variation distance between per-node empirical fingerprint measures.

The fingerprint statistic is the amplitude (modulus) of each node's
predictable-component time series; a pair of nodes is compared through
histograms on a shared equal-width grid spanning the pooled sample range.

One counting rule scores every pair: on the grid of :func:`_pair_edges`, a
bin holds the samples below its upper edge minus those below its lower
edge, counted by binary search in the node's sorted samples
(:func:`_bin_probs`). :func:`pairwise_tvd`, its one-pair case, stays public
for the benchmark's count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NodeGeometry

DEFAULT_BINS = 32


@dataclass(frozen=True)
class FingerprintReport:
    pairs: np.ndarray  # read-only (n k, 2) rows of (node, neighbor), node-major, nearest first
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


def _bin_probs(sorted_samples: np.ndarray, node: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """(pairs, bins) shares of row node[p] of ``sorted_samples`` (ascending
    rows of one length) in the bins of row p of ``edges``.

    Every sample lies in its pair's [lo, hi]. One binary search per node
    counts #{x < e} for the interior edges e of all its pairs, and a bin
    holds the count below its upper edge minus the count below its lower
    one. A sample on an interior edge lands in the bin above it and one on
    the top edge in the last bin: numpy.histogram's rule for explicit edges.
    """
    order = np.argsort(node, kind="stable")  # each node's pairs in one run
    inner = edges[order, 1:-1]
    bounds = np.searchsorted(node[order], np.arange(len(sorted_samples) + 1)).tolist()
    below = np.empty(inner.shape, dtype=np.intp)
    for samples, start, stop in zip(sorted_samples, bounds, bounds[1:]):
        below[start:stop] = np.searchsorted(samples, inner[start:stop])
    size = sorted_samples.shape[1]
    probs = np.empty((node.size, edges.shape[1] - 1))
    probs[order] = np.diff(below, prepend=0, append=size) / size
    return probs


def pairwise_tvd(samples_a, samples_b, bins: int = DEFAULT_BINS) -> float:
    """TVD between two sample sets (of any lengths) on a shared equal-width
    grid over their pooled range: the one-pair case of :func:`avg_neighbor_tvd`."""
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size < 1 or b.size < 1 or not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("need finite samples, at least one on each side")
    edges = _pair_edges(np.array([min(a.min(), b.min())]), np.array([max(a.max(), b.max())]), bins)
    probs_a, probs_b = (_bin_probs(np.sort(x)[None], np.zeros(1, np.intp), edges)[0] for x in (a, b))
    return float(0.5 * np.sum(np.abs(probs_a - probs_b)))


def avg_neighbor_tvd(
    fingerprints: np.ndarray,
    geom: NodeGeometry,
    k: int,
    bins: int = DEFAULT_BINS,
) -> FingerprintReport:
    """Mean TVD over all (node, k-nearest-neighbor) pairs.

    ``fingerprints`` holds one amplitude sample set per node: shape
    (samples, n). Each pair gets its own shared 'bins'-bin grid over the
    pooled min/max, and its TVD equals :func:`pairwise_tvd` of the two
    columns. That TVD is symmetric bit for bit, so each unordered pair is
    scored once, on the columns sorted once and one side at a time, and its
    value is scattered back to both directed pairs; ``pair_tvd`` stays
    node-major.
    """
    fp = np.asarray(fingerprints, dtype=np.float64)
    if fp.ndim != 2 or fp.shape[1] != geom.n:
        raise ValueError(f"fingerprints must have one column per node ({geom.n}), got shape {fp.shape}")
    if not np.all(np.isfinite(fp)):
        raise ValueError("fingerprints contain non-finite values")
    other = geom.neighbors(k).ravel()
    n = geom.n
    node = np.repeat(np.arange(n), k)
    keys, directed = np.unique(np.minimum(node, other) * n + np.maximum(node, other), return_inverse=True)
    left, right = keys // n, keys % n
    sorted_fp = np.sort(fp.T, axis=1)
    lo, hi = sorted_fp[:, 0], sorted_fp[:, -1]
    edges = _pair_edges(np.minimum(lo[left], lo[right]), np.maximum(hi[left], hi[right]), bins)
    gap = _bin_probs(sorted_fp, left, edges)
    gap -= _bin_probs(sorted_fp, right, edges)
    vals = (0.5 * np.sum(np.abs(gap, out=gap), axis=1))[directed]
    pairs = np.column_stack([node, other])
    vals.setflags(write=False)
    pairs.setflags(write=False)
    return FingerprintReport(pairs=pairs, pair_tvd=vals, avg_tvd=float(np.mean(vals)))
