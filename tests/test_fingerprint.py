from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csisplit.core import NodeGeometry
from csisplit.fingerprint import avg_neighbor_tvd, pairwise_tvd
from csisplit.simulate import SimConfig, simulate

# The reference: per-pair TVD through np.histogram, against which the
# package's one counting rule (fingerprint._pair_edges and _bin_probs) is
# compared with exact equality.


@dataclass(frozen=True)
class EmpiricalMeasure:
    bin_edges: np.ndarray
    probs: np.ndarray
    clipped: int = 0  # samples outside the grid, counted into the end bins

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be a strictly increasing 1-D grid")
        if probs.size != edges.size - 1:
            raise ValueError("probs length must be len(edges) - 1")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be nonnegative and sum to 1")
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "probs", probs)


def histogram(samples, edges) -> EmpiricalMeasure:
    """Normalized bin counts; out-of-range samples are clipped to the end bins."""
    samples = np.asarray(samples, dtype=np.float64).ravel()
    edges = np.asarray(edges, dtype=np.float64)
    if samples.size < 1:
        raise ValueError("need at least one sample")
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two bin edges")
    if np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing")
    clipped = int(np.sum(samples < edges[0]) + np.sum(samples > edges[-1]))
    counts, _ = np.histogram(np.clip(samples, edges[0], edges[-1]), bins=edges)
    return EmpiricalMeasure(bin_edges=edges, probs=counts / samples.size, clipped=clipped)


def tvd(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Half the L1 distance between two measures on the same grid."""
    if mu.bin_edges.shape != nu.bin_edges.shape or not np.array_equal(mu.bin_edges, nu.bin_edges):
        raise ValueError("measures live on different bin grids")
    return float(0.5 * np.sum(np.abs(mu.probs - nu.probs)))


def _shared_edges(a: np.ndarray, b: np.ndarray, bins: int) -> np.ndarray:
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:  # degenerate pooled range, widen so the grid is valid
        hi = lo + max(abs(lo), 1.0) * 1e-12 + 1e-300
    return np.linspace(lo, hi, bins + 1)


def reference_tvd(samples_a, samples_b, bins: int) -> float:
    """TVD between two sample sets on the equal-width grid over their pooled range."""
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    edges = _shared_edges(a, b, bins)
    return tvd(histogram(a, edges), histogram(b, edges))


def test_histogram_single_bin_mass():
    m = histogram([0.5, 0.5, 0.5], edges=[0.0, 1.0, 2.0])
    assert m.probs.tolist() == [1.0, 0.0]


def test_histogram_uniform_monte_carlo():
    rng = np.random.default_rng(0)
    m = histogram(rng.uniform(0, 1, 1_000_000), edges=np.linspace(0, 1, 11))
    assert np.all(np.abs(m.probs - 0.1) < 0.005)


def test_histogram_clips_and_counts_outliers():
    m = histogram([-5.0, 0.5, 99.0], edges=[0.0, 1.0])
    assert m.clipped == 2
    assert m.probs.tolist() == [1.0]


def test_histogram_empty_edges_error():
    with pytest.raises(ValueError):
        histogram([1.0], edges=[])


def test_histogram_non_monotone_edges_error():
    with pytest.raises(ValueError):
        histogram([1.0], edges=[0.0, 2.0, 1.0])


def _measure(probs):
    edges = np.arange(len(probs) + 1, dtype=float)
    return EmpiricalMeasure(bin_edges=edges, probs=np.asarray(probs, dtype=float))


def test_tvd_identical_zero():
    m = _measure([0.25, 0.75])
    assert tvd(m, m) == 0.0


def test_tvd_disjoint_supports_one():
    assert tvd(_measure([1.0, 0.0]), _measure([0.0, 1.0])) == 1.0


def test_tvd_half_case():
    assert tvd(_measure([0.5, 0.5]), _measure([1.0, 0.0])) == 0.5


def test_tvd_grid_mismatch():
    a = _measure([1.0])
    b = EmpiricalMeasure(bin_edges=np.array([0.0, 2.0]), probs=np.array([1.0]))
    with pytest.raises(ValueError):
        tvd(a, b)


prob_vectors = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
    lambda v: np.asarray(v) / np.sum(v)
)


@settings(max_examples=100, deadline=None)
@given(prob_vectors, prob_vectors, prob_vectors)
def test_tvd_symmetry_and_triangle(p, q, r):
    mp_, mq, mr = _measure(p), _measure(q), _measure(r)
    assert tvd(mp_, mq) == pytest.approx(tvd(mq, mp_), abs=1e-15)
    assert tvd(mp_, mr) <= tvd(mp_, mq) + tvd(mq, mr) + 1e-12


@settings(max_examples=50, deadline=None)
@given(prob_vectors, prob_vectors, st.permutations(range(3)))
def test_tvd_invariant_under_common_bin_permutation(p, q, perm):
    perm = list(perm)
    assert tvd(_measure(p), _measure(q)) == pytest.approx(
        tvd(_measure(p[perm]), _measure(q[perm])), abs=1e-12
    )


def test_avg_neighbor_tvd_identical_channels_zero():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), k=1)
    samples = np.tile(np.linspace(0, 1, 50)[:, None], (1, 3))
    assert avg_neighbor_tvd(samples, geom, k=1).avg_tvd == 0.0


def test_avg_neighbor_tvd_disjoint_ranges_one():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0]]), k=1)
    fp = np.column_stack([np.linspace(0, 1, 40), np.linspace(5, 6, 40)])
    assert avg_neighbor_tvd(fp, geom, k=1).avg_tvd == 1.0


def test_pairwise_tvd_degenerate_identical_constant():
    # both nodes constant at the same value: zero distance, not an error
    assert pairwise_tvd(np.full(10, 2.0), np.full(10, 2.0)) == 0.0


def _per_pair_tvd(fp, geom, k, bins):
    """The reference, pair by pair over the neighbor pairs."""
    return np.array([reference_tvd(fp[:, i], fp[:, j], bins) for i, j in _neighbor_pairs(geom, k)])


def _neighbor_pairs(geom, k):
    """Every (node, neighbor) pair: node-major, neighbors nearest first."""
    return [(i, j) for i in range(geom.n) for j in geom.neighbors(k)[i].tolist()]


def _awkward_fingerprints():
    """Random 3-D nodes whose columns include constants (a degenerate pooled
    range when two meet), values on the grid edges and ties."""
    rng = np.random.default_rng(5)
    geom = NodeGeometry(positions=rng.uniform(size=(40, 3)))
    fp = rng.gamma(2.0, size=(33, 40))
    fp[:, :12] = 2.5  # constants: many neighbor pairs have lo == hi
    fp[:, 12:14] = 0.0
    fp[:, 14:24] = rng.integers(0, 9, size=(33, 10))  # integers on the edges of an 8-bin grid over [0, 8]
    fp[0, 14:24], fp[1, 14:24] = 0.0, 8.0
    fp[:, 24] = 1e16 + 2.0 * np.arange(33)  # a range far above its spacing
    return fp, geom


@pytest.mark.parametrize("k, bins", [(1, 8), (3, 8), (8, 32), (5, 1)])
def test_avg_neighbor_tvd_equals_per_pair_loop(k, bins):
    fp, geom = _awkward_fingerprints()
    report = avg_neighbor_tvd(fp, geom, k=k, bins=bins)
    assert np.array_equal(report.pair_tvd, _per_pair_tvd(fp, geom, k, bins))
    assert report.pairs.shape == (geom.n * k, 2) and not report.pairs.flags.writeable
    assert report.pairs.tolist() == [list(pair) for pair in _neighbor_pairs(geom, k)]
    assert report.avg_tvd == float(np.mean(_per_pair_tvd(fp, geom, k, bins)))


@pytest.mark.parametrize("bins", [1, 8, 32])
def test_pairwise_tvd_equals_the_reference_on_every_node_pair(bins):
    fp, _ = _awkward_fingerprints()
    for i in range(fp.shape[1]):
        for j in range(i + 1, fp.shape[1]):
            assert pairwise_tvd(fp[:, i], fp[:, j], bins=bins) == reference_tvd(fp[:, i], fp[:, j], bins)


@pytest.mark.parametrize("bins", [1, 8, 32])
def test_pairwise_tvd_equals_the_reference_on_sets_of_unequal_length(bins):
    rng = np.random.default_rng(7)
    for size_a, size_b in [(1, 33), (5, 200), (200, 64)]:
        a = rng.gamma(2.0, size=size_a)
        b = rng.integers(0, 9, size=size_b).astype(float)  # ties, and values on the grid's edges
        assert pairwise_tvd(a, b, bins=bins) == reference_tvd(a, b, bins)
        assert pairwise_tvd(b, a, bins=bins) == reference_tvd(b, a, bins)
    # both sides constant at one value, at different lengths
    assert pairwise_tvd(np.full(3, 2.5), np.full(9, 2.5), bins=bins) == 0.0


@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([1.0, np.nan], [1.0]), ([1.0], [np.inf, 0.0])])
def test_pairwise_tvd_rejects_empty_or_non_finite_samples(a, b):
    with pytest.raises(ValueError, match="need finite samples, at least one on each side"):
        pairwise_tvd(a, b)


def test_avg_neighbor_tvd_equals_per_pair_loop_on_and_beside_the_edges():
    # every pooled range is [0.3, 1.9], so the 32-bin grid is `edges`; on it,
    # the arithmetic bin estimate is one too low for some edges and one too
    # high for some samples just below an edge
    edges = np.linspace(0.3, 1.9, 33)
    below = np.nextafter(edges, -np.inf)
    below[0] = edges[0]
    inside = np.random.default_rng(6).uniform(0.3, 1.9, 33)
    inside[:2] = 0.3, 1.9
    fp = np.column_stack([edges, below, inside, edges[::-1]])
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    report = avg_neighbor_tvd(fp, geom, k=3, bins=32)
    assert np.array_equal(report.pair_tvd, _per_pair_tvd(fp, geom, 3, 32))
    assert np.count_nonzero(report.pair_tvd) >= 6


def test_avg_neighbor_tvd_equals_per_pair_loop_on_simulated_fingerprints():
    out = simulate(SimConfig(grid_shape=(8, 8), m=64, seed=6))
    fp = np.abs(out.uplink.data)
    report = avg_neighbor_tvd(fp, out.geometry, k=8)
    assert np.array_equal(report.pair_tvd, _per_pair_tvd(fp, out.geometry, 8, 32))


def test_avg_neighbor_tvd_equals_per_pair_loop_at_the_default_size():
    # 20x20 with k=8: about half the directed pairs share an unordered pair
    out = simulate(SimConfig(seed=2))
    fp = np.abs(out.uplink.data)
    report = avg_neighbor_tvd(fp, out.geometry, k=8)
    assert np.array_equal(report.pair_tvd, _per_pair_tvd(fp, out.geometry, 8, 32))


def test_avg_neighbor_tvd_rejects_a_grid_that_cannot_increase():
    # a pooled range of two subnormal steps holds no strictly increasing 8-bin grid
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0]]), k=1)
    fp = np.column_stack([np.zeros(4), np.full(4, 1e-323)])
    with pytest.raises(ValueError, match="strictly increasing"):
        pairwise_tvd(fp[:, 0], fp[:, 1], bins=8)
    with pytest.raises(ValueError, match="strictly increasing"):
        avg_neighbor_tvd(fp, geom, k=1, bins=8)


def test_avg_neighbor_tvd_rejects_non_finite_or_misshaped_fingerprints():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]), k=1)
    fp = np.ones((5, 3))
    fp[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        avg_neighbor_tvd(fp, geom, k=1)
    with pytest.raises(ValueError, match="one column per node"):
        avg_neighbor_tvd(np.ones((5, 2)), geom, k=1)


# samples on a coarse lattice: many sit on a pair's interior edges and on its
# pooled min and max
lattice_steps = st.sampled_from([0.1, 0.25, 1.0, 3.0])
lattice_bins = st.sampled_from([1, 2, 3, 32])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_avg_neighbor_tvd_equals_per_pair_loop_on_lattice_fingerprints(data):
    n = data.draw(st.integers(4, 7))
    points = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=n, max_size=n, unique=True))
    geom = NodeGeometry(positions=np.array(points, dtype=float))
    fp = data.draw(arrays(np.int64, (data.draw(st.integers(1, 12)), n), elements=st.integers(0, 6)))
    fp = fp * data.draw(lattice_steps)
    k, bins = data.draw(st.sampled_from([1, 3])), data.draw(lattice_bins)
    assert np.array_equal(avg_neighbor_tvd(fp, geom, k=k, bins=bins).pair_tvd, _per_pair_tvd(fp, geom, k, bins))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairwise_tvd_equals_the_reference_on_lattice_sets_of_unequal_length(data):
    size_a = data.draw(st.integers(1, 12))
    size_b = data.draw(st.integers(1, 12).filter(lambda size: size != size_a))
    step, bins = data.draw(lattice_steps), data.draw(lattice_bins)
    a = data.draw(arrays(np.int64, size_a, elements=st.integers(0, 6))) * step
    b = data.draw(arrays(np.int64, size_b, elements=st.integers(0, 6))) * step
    assert pairwise_tvd(a, b, bins=bins) == reference_tvd(a, b, bins)
