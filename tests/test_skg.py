from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisplit.skg import avg_mp

# ---------------------------------------------------------------------------
# the per-node oracle: one sequence quantized and compared at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitSequence:
    bits: np.ndarray  # uint8 over {0, 1}
    degenerate: bool = False  # constant input sequence

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)


def lower_median(x: np.ndarray) -> float:
    """Lower middle order statistic; for odd lengths the ordinary median."""
    x = np.asarray(x, dtype=np.float64)
    idx = (x.size - 1) // 2
    return float(np.partition(x, idx)[idx])


def quantize_median(x) -> BitSequence:
    """bit_t = 1 iff x_t exceeds the (lower) median of the sequence."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 samples to quantize")
    med = lower_median(x)
    bits = (x > med).astype(np.uint8)
    return BitSequence(bits=bits, degenerate=bool(np.all(x == x[0])))


def mismatch_probability(a: BitSequence, b: BitSequence) -> float:
    """Fraction of disagreeing bits (Hamming distance / length)."""
    if a.bits.size != b.bits.size:
        raise ValueError(f"length mismatch: {a.bits.size} vs {b.bits.size}")
    return float(np.mean(a.bits != b.bits))


def _views_with_ties(length):
    """(ul, dl) of 12 nodes, seeded by ``length``, with a constant column and
    a column tied at its median."""
    rng = np.random.default_rng(length)
    ul = rng.standard_normal((length, 12))
    dl = ul + 0.5 * rng.standard_normal((length, 12))
    ul[:, 0] = 3.0  # constant: every bit 0
    ul[:, 1], dl[:, 1] = np.round(ul[:, 1]), np.round(dl[:, 1])  # ties at the median
    return ul, dl


def _per_node_mp(ul, dl):
    """The per-node loop the row-wise computation replaced."""
    return np.array(
        [mismatch_probability(quantize_median(ul[:, i]), quantize_median(dl[:, i])) for i in range(ul.shape[1])]
    )


def test_quantize_basic():
    assert quantize_median([1.0, 2.0, 3.0, 4.0]).bits.tolist() == [0, 0, 1, 1]


def test_quantize_constant_is_degenerate_zeros():
    seq = quantize_median([5.0] * 10)
    assert seq.degenerate
    assert seq.bits.tolist() == [0] * 10


def test_quantize_affine_invariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(257)
    assert np.array_equal(quantize_median(x).bits, quantize_median(5.0 * x + 7.0).bits)


def test_quantize_needs_two_samples():
    with pytest.raises(ValueError):
        quantize_median([1.0])


def _bits(values):
    return BitSequence(bits=np.asarray(values, dtype=np.uint8))


def test_mp_identical_zero():
    a = _bits([0, 1, 1, 0])
    assert mismatch_probability(a, a) == 0.0


def test_mp_single_differing_bit():
    a = _bits([0, 0, 0, 0, 0, 0, 0, 0])
    b = _bits([0, 0, 0, 1, 0, 0, 0, 0])
    assert mismatch_probability(a, b) == 0.125


def test_mp_length_mismatch():
    with pytest.raises(ValueError):
        mismatch_probability(_bits([0, 1]), _bits([0, 1, 0]))


def test_mp_independent_fair_bits_near_half():
    rng = np.random.default_rng(3)
    a = _bits(rng.integers(0, 2, 10_000))
    b = _bits(rng.integers(0, 2, 10_000))
    assert mismatch_probability(a, b) == pytest.approx(0.5, abs=0.02)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=64), st.randoms())
def test_mp_symmetric(bits, rnd):
    a = _bits(bits)
    b = _bits([rnd.randint(0, 1) for _ in bits])
    assert mismatch_probability(a, b) == mismatch_probability(b, a)


def test_avg_mp_identical_views_zero():
    rng = np.random.default_rng(8)
    view = rng.standard_normal((64, 5))
    assert avg_mp(view, view).avg_mp == 0.0


def test_avg_mp_sign_flip_near_one():
    # even-length continuous sequences: the lower-median rule makes every
    # bit disagree between x and -x
    rng = np.random.default_rng(9)
    view = rng.standard_normal((128, 6))
    report = avg_mp(view, -view)
    assert report.avg_mp >= 0.99


def test_avg_mp_independent_near_half():
    rng = np.random.default_rng(10)
    ul = rng.standard_normal((2048, 10))
    dl = rng.standard_normal((2048, 10))
    assert avg_mp(ul, dl).avg_mp == pytest.approx(0.5, abs=0.03)


def test_avg_mp_shape_mismatch():
    with pytest.raises(ValueError):
        avg_mp(np.zeros((4, 2)), np.zeros((4, 3)))


@pytest.mark.parametrize("length", [2, 3, 8, 9, 64, 65])
def test_avg_mp_equals_per_node_loop(length):
    ul, dl = _views_with_ties(length)
    report = avg_mp(ul, dl)
    assert np.array_equal(report.per_node_mp, _per_node_mp(ul, dl))
    assert report.avg_mp == float(np.mean(_per_node_mp(ul, dl)))


def test_avg_mp_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        avg_mp(np.zeros((1, 3)), np.zeros((1, 3)))


@pytest.mark.parametrize("length", [2, 3, 8, 9, 64, 65])
def test_avg_mp_equals_per_node_loop_on_node_major_and_strided_input(length):
    ul, dl = _views_with_ties(length)
    expected = _per_node_mp(ul, dl)
    # F-ordered: the transpose of a node-major array, as pca.sweep builds bands
    ul_f, dl_f = np.ascontiguousarray(ul.T).T, np.ascontiguousarray(dl.T).T
    assert ul_f.flags.f_contiguous and not ul_f.flags.c_contiguous
    assert np.array_equal(avg_mp(ul_f, dl_f).per_node_mp, expected)
    # non-contiguous column slices of wider arrays
    wide_ul, wide_dl = np.repeat(ul, 3, axis=1), np.repeat(dl, 3, axis=1)
    strided = avg_mp(wide_ul[:, ::3], wide_dl[:, 1::3])
    assert np.array_equal(strided.per_node_mp, expected)
    assert strided.avg_mp == float(np.mean(expected))
    assert not strided.per_node_mp.flags.writeable


def test_avg_mp_constant_sequences_quantize_to_zeros():
    # both directions constant: all bits 0 on each side, so nothing disagrees;
    # against a varying sequence the mismatch is the varying side's share of ones
    const = np.full((10, 3), 5.0)
    assert avg_mp(const, const).avg_mp == 0.0
    varying = np.tile(np.arange(10.0)[:, None], (1, 3))
    assert np.array_equal(avg_mp(const, varying).per_node_mp, np.full(3, 0.5))


def test_avg_mp_is_invariant_under_increasing_affine_maps():
    rng = np.random.default_rng(11)
    ul, dl = rng.standard_normal((257, 4)), rng.standard_normal((257, 4))
    report = avg_mp(ul, dl)
    moved = avg_mp(5.0 * ul + 7.0, 0.25 * dl - 3.0)
    assert np.array_equal(report.per_node_mp, moved.per_node_mp)
