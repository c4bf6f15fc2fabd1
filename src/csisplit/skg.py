"""One-bit median quantizer and uplink/downlink mismatch probability."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Direction


@dataclass(frozen=True)
class BitSequence:
    bits: np.ndarray  # uint8 over {0, 1}
    node: int = 0
    direction: Direction = Direction.UPLINK
    degenerate: bool = False  # constant input sequence

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class SkgReport:
    per_node_mp: np.ndarray
    avg_mp: float


def lower_median(x: np.ndarray) -> float:
    """Lower middle order statistic; for odd lengths the ordinary median.

    Using an order statistic (not the even-length average) keeps the
    quantizer invariant under strictly monotone transforms.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = (x.size - 1) // 2
    return float(np.partition(x, idx)[idx])


def quantize_median(x, node: int = 0, direction: Direction = Direction.UPLINK) -> BitSequence:
    """bit_t = 1 iff x_t exceeds the (lower) median of the sequence."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples to quantize")
    med = lower_median(x)
    bits = (x > med).astype(np.uint8)
    degenerate = bool(np.all(x == x[0]))
    return BitSequence(bits=bits, node=node, direction=direction, degenerate=degenerate)


def mismatch_probability(a: BitSequence, b: BitSequence) -> float:
    """Fraction of disagreeing bits (Hamming distance / length)."""
    if a.bits.size != b.bits.size:
        raise ValueError(f"length mismatch: {a.bits.size} vs {b.bits.size}")
    return float(np.mean(a.bits != b.bits))


def avg_mp(unpredictable_ul: np.ndarray, unpredictable_dl: np.ndarray) -> SkgReport:
    """Average mismatch probability over nodes.

    Inputs are real views (2m, n); each node's column is quantized as one
    time series (real coordinates above imaginary), per direction, exactly
    as :func:`quantize_median` quantizes it.
    """
    ul = np.asarray(unpredictable_ul, dtype=np.float64)
    dl = np.asarray(unpredictable_dl, dtype=np.float64)
    if ul.shape != dl.shape:
        raise ValueError(f"shape mismatch: {ul.shape} vs {dl.shape}")
    if ul.ndim != 2:
        raise ValueError(f"inputs must be (2m, n) real views, got shape {ul.shape}")
    if ul.shape[0] < 2:
        raise ValueError("need at least 2 samples to quantize")
    mid = (ul.shape[0] - 1) // 2  # the lower median's order statistic, as in lower_median
    bits_ul = ul > np.partition(ul, mid, axis=0)[mid]
    bits_dl = dl > np.partition(dl, mid, axis=0)[mid]
    mps = np.mean(bits_ul != bits_dl, axis=0)
    mps.setflags(write=False)
    return SkgReport(per_node_mp=mps, avg_mp=float(np.mean(mps)))
