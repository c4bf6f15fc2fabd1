"""One-bit median quantizer and uplink/downlink mismatch probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SkgReport:
    per_node_mp: np.ndarray
    avg_mp: float


def avg_mp(unpredictable_ul: np.ndarray, unpredictable_dl: np.ndarray) -> SkgReport:
    """Average mismatch probability over nodes.

    Inputs are real views (2m, n). Each node's column is one time series of
    L = 2m samples (real coordinates above imaginary), quantized per
    direction to one bit per sample: bit_t = 1 iff x_t exceeds the lower
    median, the order statistic at (L - 1) // 2. An order statistic, not the
    even-length average, keeps the bits invariant under strictly monotone
    transforms; a constant sequence quantizes to all zeros. A node's
    mismatch probability is the fraction of its uplink and downlink bits
    that disagree.
    """
    ul = np.asarray(unpredictable_ul, dtype=np.float64)
    dl = np.asarray(unpredictable_dl, dtype=np.float64)
    if ul.shape != dl.shape:
        raise ValueError(f"shape mismatch: {ul.shape} vs {dl.shape}")
    if ul.ndim != 2:
        raise ValueError(f"inputs must be (2m, n) real views, got shape {ul.shape}")
    length = ul.shape[0]
    if length < 2:
        raise ValueError("need at least 2 samples to quantize")
    mid = (length - 1) // 2

    def bits(view: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(view.T)  # one contiguous row per node
        return rows > np.partition(rows, mid, axis=1)[:, mid, None]

    mps = np.count_nonzero(bits(ul) != bits(dl), axis=1) / length
    mps.setflags(write=False)
    return SkgReport(per_node_mp=mps, avg_mp=float(np.mean(mps)))
