import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisplit.skg import BitSequence, avg_mp, mismatch_probability, quantize_median


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


def _per_node_mp(ul, dl):
    """The per-node loop the column-wise computation replaced."""
    return np.array(
        [mismatch_probability(quantize_median(ul[:, i]), quantize_median(dl[:, i])) for i in range(ul.shape[1])]
    )


@pytest.mark.parametrize("length", [2, 3, 8, 9, 64, 65])
def test_avg_mp_equals_per_node_loop(length):
    rng = np.random.default_rng(length)
    ul = rng.standard_normal((length, 12))
    dl = ul + 0.5 * rng.standard_normal((length, 12))
    ul[:, 0] = 3.0  # constant: every bit 0
    ul[:, 1], dl[:, 1] = np.round(ul[:, 1]), np.round(dl[:, 1])  # ties at the median
    report = avg_mp(ul, dl)
    assert np.array_equal(report.per_node_mp, _per_node_mp(ul, dl))
    assert report.avg_mp == float(np.mean(_per_node_mp(ul, dl)))


def test_avg_mp_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2 samples"):
        avg_mp(np.zeros((1, 3)), np.zeros((1, 3)))
