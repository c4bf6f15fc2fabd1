import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from csisplit import pipeline
from csisplit.core import NodeGeometry
from csisplit.dependence import (
    _cv_index,
    _prepare_grams,
    avg_neighbor_cc,
    avg_neighbor_delta_bar,
    cc_from_moments,
    dhsic_statistic,
    dhsic_test,
    gaussian_gram_1d,
    median_bandwidth,
    neighbor_cc,
    pearson_cc,
    permutation_statistics,
    select_delta_pairs,
    shift_statistics,
)
from csisplit.simulate import SimConfig


def oracle_statistic(variables):
    """Naive loop evaluation of the three-term estimator, kernels included."""
    grams = []
    for x in variables:
        x = np.asarray(x, dtype=float)
        m = x.size
        d2 = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                d2[i, j] = (x[i] - x[j]) ** 2
        off = [d2[i, j] for i in range(m) for j in range(i + 1, m)]
        med = float(np.median(off))
        sigma2 = med / 2.0
        grams.append(np.exp(-d2 / sigma2))
    m = grams[0].shape[0]
    d = len(grams)
    term1 = 0.0
    for i in range(m):
        for j in range(m):
            prod = 1.0
            for k in grams:
                prod *= k[i, j]
            term1 += prod
    term1 /= m**2
    term2 = 1.0
    for k in grams:
        term2 *= sum(k[i, j] for i in range(m) for j in range(m))
    term2 /= float(m) ** (2 * d)
    term3 = 0.0
    for i in range(m):
        prod = 1.0
        for k in grams:
            prod *= sum(k[i, j] for j in range(m))
        term3 += prod
    term3 *= 2.0 / float(m) ** (d + 1)
    return term1 + term2 - term3


def test_statistic_matches_oracle_d2_hand_sized():
    a = np.array([0.3, -1.2, 0.7])
    b = np.array([2.0, 0.1, -0.4])
    assert dhsic_statistic([a, b]) == pytest.approx(oracle_statistic([a, b]), abs=1e-12)


def test_statistic_matches_oracle_random_d3():
    rng = np.random.default_rng(2)
    for _ in range(5):
        variables = [rng.standard_normal(rng.integers(5, 21)) for _ in range(3)]
        m = min(v.size for v in variables)
        variables = [v[:m] for v in variables]
        assert dhsic_statistic(variables) == pytest.approx(oracle_statistic(variables), abs=1e-12)


def test_constant_variable_collapses_to_zero():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(12)
    const = np.full(12, 3.7)
    assert abs(dhsic_statistic([x, const])) <= 1e-12


def test_degenerate_variable_flagged():
    rng = np.random.default_rng(4)
    # every replicate ties the observed statistic, so the critical-value index is clamped
    with pytest.warns(RuntimeWarning, match="exceeds B=100; clamping"):
        report = dhsic_test([rng.standard_normal(16), np.zeros(16)], b=100, seed=0)
    assert report.degenerate_variables == (1,)


def test_joint_permutation_invariance():
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal(30), rng.standard_normal(30)
    perm = rng.permutation(30)
    assert dhsic_statistic([x, y]) == pytest.approx(dhsic_statistic([x[perm], y[perm]]), abs=1e-12)


def test_statistic_nonnegative_on_random_inputs():
    rng = np.random.default_rng(6)
    for _ in range(20):
        variables = [rng.standard_normal(25) for _ in range(2)]
        assert dhsic_statistic(variables) >= -1e-10


def test_gram_median_heuristic_bandwidth():
    x = np.array([0.0, 1.0, 3.0])
    k, sigma, degen = gaussian_gram_1d(x)
    assert not degen
    # off-diagonal squared distances are {1, 9, 4}; median 4, sigma = sqrt(2)
    assert sigma == pytest.approx(math.sqrt(2.0))
    assert k[0, 1] == pytest.approx(math.exp(-1.0 / 2.0))


def test_median_bandwidth_falls_back_to_the_positive_distances():
    # 6 of the 10 pairs of [0, 0, 0, 0, 2] coincide: the median is 0, so the
    # rule takes the median of the positive squared distances, all 4
    x = np.array([0.0, 0.0, 0.0, 0.0, 2.0])
    assert median_bandwidth(np.subtract.outer(x, x) ** 2) == math.sqrt(2.0)
    k, sigma, degen = gaussian_gram_1d(x)
    assert sigma == math.sqrt(2.0) and not degen
    assert k[0, 4] == pytest.approx(math.exp(-2.0), rel=1e-15)


def _triu_median_bandwidth(sq_dists):
    """The median rule over the strict upper triangle gathered by index."""
    off = sq_dists[np.triu_indices(sq_dists.shape[0], k=1)]
    med = float(np.median(off))
    if med == 0.0:
        pos = off[off > 0]
        if pos.size == 0:
            return math.nan
        med = float(np.median(pos))
    return math.sqrt(med / 2.0)


@pytest.mark.parametrize("case", ["random", "ties", "mostly zero", "all zero"])
def test_median_bandwidth_equals_the_triu_indices_rule(case):
    rng = np.random.default_rng(11)
    x = {
        "random": rng.standard_normal(40),
        "ties": rng.integers(0, 4, 41).astype(np.float64),
        "mostly zero": np.r_[np.zeros(30), rng.standard_normal(5)],
        "all zero": np.zeros(12),
    }[case]
    d2 = np.subtract.outer(x, x) ** 2
    d2[np.tril_indices(x.size, k=-1)] = -1.0  # the lower triangle must not be read
    before = d2.copy()
    np.testing.assert_equal(median_bandwidth(d2), _triu_median_bandwidth(d2))  # NaN equals NaN here
    assert np.array_equal(d2, before)


def test_median_bandwidth_is_nan_when_all_points_are_equal():
    assert math.isnan(median_bandwidth(np.zeros((5, 5))))
    k, sigma, degen = gaussian_gram_1d(np.full(5, 1.5))
    assert math.isnan(sigma) and degen and np.array_equal(k, np.ones((5, 5)))


def test_gram_rejects_non_finite_observations():
    with pytest.raises(ValueError, match="non-finite"):
        gaussian_gram_1d(np.array([0.0, np.nan, 1.0]))


def test_gram_convention_is_sigma_squared_at_the_median_bandwidth():
    # the dependence convention; kpca.gaussian_gram divides by 2 sigma^2 on purpose
    x = np.random.default_rng(4).standard_normal(11)
    d2 = np.subtract.outer(x, x) ** 2
    sigma = math.sqrt(np.median(d2[np.triu_indices(11, k=1)]) / 2.0)
    k, got_sigma, degen = gaussian_gram_1d(x)
    assert not degen and got_sigma == pytest.approx(sigma, rel=1e-12)
    assert np.allclose(k, np.exp(-d2 / sigma**2), rtol=0.0, atol=1e-12)


def test_cv_index_arithmetic():
    assert _cv_index(999, 0.5, 0) == 500
    assert _cv_index(1000, 0.05, 0) == 951
    with pytest.warns(RuntimeWarning):
        assert _cv_index(100, 0.001, 5) == 100  # clamped


def test_critical_value_is_indexed_order_statistic():
    rng = np.random.default_rng(7)
    variables = [rng.standard_normal(40), rng.standard_normal(40)]
    stats = permutation_statistics(variables, b=199, seed=123)
    report = dhsic_test(variables, alpha=0.5, b=199, seed=123)
    ties = int(np.sum(stats == report.statistic))
    expected = np.sort(stats)[math.ceil(200 * 0.5) + ties - 1]
    assert report.critical_value == expected


def test_critical_value_deterministic_under_seed():
    rng = np.random.default_rng(8)
    variables = [rng.standard_normal(30), rng.standard_normal(30)]
    a = dhsic_test(variables, alpha=0.05, b=150, seed=9)
    b = dhsic_test(variables, alpha=0.05, b=150, seed=9)
    assert a == b


def test_critical_value_input_validation():
    rng = np.random.default_rng(10)
    variables = [rng.standard_normal(20), rng.standard_normal(20)]
    with pytest.raises(ValueError):
        dhsic_test(variables, alpha=0.05, b=50, seed=0)
    with pytest.raises(ValueError):
        dhsic_test(variables, alpha=1.5, b=200, seed=0)


def test_delta_bar_gating():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(40)
    independent = dhsic_test([x, rng.standard_normal(40)], b=100, seed=0)
    dependent = dhsic_test([x, x + 0.1 * rng.standard_normal(40)], b=100, seed=0)
    assert not independent.reject and independent.delta_bar == 0.0
    assert dependent.reject and dependent.delta_bar == dependent.raw_ratio > 1.0


def test_first_variable_fixed_identity():
    # permuting x by p and y by q gives the statistic of x fixed and y by q o p^-1
    rng = np.random.default_rng(17)
    x, y = rng.standard_normal(40), rng.standard_normal(40)
    p, q = rng.permutation(40), rng.permutation(40)
    assert dhsic_statistic([x[p], y[q]]) == pytest.approx(
        dhsic_statistic([x, y[q[np.argsort(p)]]]), abs=1e-12
    )


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_statistics_replay_documented_draw_order(d):
    rng = np.random.default_rng(18)
    variables = [rng.standard_normal(40) for _ in range(d)]
    stats = permutation_statistics(variables, b=25, seed=5)
    replay = np.random.default_rng(5)
    for value in stats:
        permuted = [variables[0]] + [v[replay.permutation(40)] for v in variables[1:]]
        assert value == pytest.approx(dhsic_statistic(permuted), abs=1e-12)


def test_p_value_counts_the_null_at_or_above_the_statistic():
    rng = np.random.default_rng(19)
    variables = [rng.standard_normal(40), rng.standard_normal(40)]
    stats = permutation_statistics(variables, b=150, seed=6)
    report = dhsic_test(variables, b=150, seed=6)
    assert report.p_value == (1 + sum(s >= report.statistic for s in stats)) / 151
    x = rng.standard_normal(100)
    assert dhsic_test([x, x.copy()], b=200, seed=1).p_value == 1 / 201


def test_delta_bar_scale_invariance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(60)
    y = x + 0.2 * rng.standard_normal(60)
    r1 = dhsic_test([x, y], b=150, seed=3)
    r2 = dhsic_test([13.0 * x, 13.0 * y], b=150, seed=3)
    assert r2.delta_bar == pytest.approx(r1.delta_bar, rel=1e-9)
    assert r2.statistic == pytest.approx(r1.statistic, rel=1e-12)


def test_power_duplicated_sequences():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(100)
    report = dhsic_test([x, x.copy()], alpha=0.05, b=200, seed=1)
    assert report.reject
    assert report.delta_bar > 1.0


def test_level_quick_calibration():
    # 200-trial sanity version of the full acceptance-level check
    rejections = 0
    root = np.random.SeedSequence(99)
    for child in root.spawn(200):
        rng = np.random.default_rng(child)
        report = dhsic_test([rng.standard_normal(60), rng.standard_normal(60)], alpha=0.05, b=200, seed=child.spawn(1)[0])
        rejections += report.reject
    assert 0.005 <= rejections / 200 <= 0.10


def test_pearson_basic():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    assert pearson_cc(a, a) == pytest.approx(1.0)
    assert pearson_cc(a, -a) == pytest.approx(-1.0)
    rng = np.random.default_rng(14)
    assert abs(pearson_cc(rng.standard_normal(10_000), rng.standard_normal(10_000))) < 0.03
    with pytest.raises(ValueError, match="variance"):
        pearson_cc(np.ones(4), a)


def test_pearson_matches_the_moment_form():
    rng = np.random.default_rng(16)
    for _ in range(200):
        m = int(rng.integers(2, 600))
        a = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5)
        b = 0.7 * a / a.std() + rng.standard_normal(m)
        moment = np.mean((a - a.mean()) * (b - b.mean())) / (a.std() * b.std())
        assert abs(pearson_cc(a, b) - moment) <= 1e-15
        # the form with np.mean, equal bit for bit
        ca, cb = a - a.mean(), b - b.mean()
        norms = math.sqrt(np.dot(ca, ca)) * math.sqrt(np.dot(cb, cb))
        assert pearson_cc(a, b) == float(np.dot(ca, cb)) / norms
    with pytest.raises(ValueError, match="variance"):
        pearson_cc(a, np.full(m, 2.5))
    with pytest.raises(ValueError, match="equal-length"):
        pearson_cc(a, a[:-1])


def test_avg_neighbor_cc_and_pair_selection():
    geom = NodeGeometry(positions=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), k=1)
    rng = np.random.default_rng(15)
    base = rng.standard_normal(50)
    view = np.column_stack([base, base, -base, -base])
    # nearest neighbors 1, 0, 1 (tie with 3 -> 1) and 2: CCs +1, +1, -1, +1, a signed mean of 0.5
    assert avg_neighbor_cc(view, geom, k=1) == pytest.approx(0.5, abs=1e-15)
    assert neighbor_cc(view, geom, 1) == pytest.approx(0.5, abs=1e-15)
    pairs = select_delta_pairs(geom, pairs=2)
    assert pairs == [(0, 1), (3, 2)]


def _grid(rows, cols, k=8):
    xs, ys = np.meshgrid(np.arange(float(cols)), np.arange(float(rows)))
    return NodeGeometry(np.column_stack([xs.ravel(), ys.ravel()]), k=k)


@pytest.mark.parametrize("method", sorted(pipeline.DECOMPOSERS))
def test_neighbor_cc_matches_the_per_pair_loop_on_every_method(method):
    cfg = pipeline.PipelineConfig(sim=SimConfig(grid_shape=(4, 4), m=32), method=method, ae_epochs=2)
    ul, dl, geom = pipeline.load_dataset(cfg)
    view = pipeline.apply_method(cfg, ul, dl, geom).unpred_ul
    assert neighbor_cc(view, geom, cfg.k_neighbors) == avg_neighbor_cc(view, geom, cfg.k_neighbors)


def test_neighbor_cc_matches_the_per_pair_loop_at_the_pca_default():
    cfg = pipeline.PipelineConfig(method="pca")  # 20x20 nodes, m=256
    ul, dl, geom = pipeline.load_dataset(cfg)
    view = pipeline.apply_method(cfg, ul, dl, geom).unpred_ul
    assert neighbor_cc(view, geom, cfg.k_neighbors) == avg_neighbor_cc(view, geom, cfg.k_neighbors)


@pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
def test_neighbor_cc_centres_before_it_sums(offset):
    geom, k = _grid(6, 6), 4
    view = np.random.default_rng(0).standard_normal((32, 36)) + offset
    want = avg_neighbor_cc(view, geom, k)
    assert neighbor_cc(view, geom, k) == want
    # the raw moments of the uncentred columns lose the offset's digits
    cols, table = view.T, geom.neighbors(k)
    dots = np.einsum("il,ikl->ik", cols, cols[table])
    raw = cc_from_moments(dots[None], (cols * cols).sum(axis=1)[None], cols.sum(axis=1)[None], table, 32)[0]
    if offset >= 1e3:
        assert abs(raw - want) > 1e-12


def test_neighbor_cc_errors_are_the_loops():
    geom = _grid(2, 3)
    view = np.random.default_rng(3).standard_normal((10, 6))
    view[:, 4] = 2.5
    for cc in (avg_neighbor_cc, neighbor_cc):
        with pytest.raises(ValueError, match="^zero-variance sequence$"):
            cc(view, geom, 2)
        with pytest.raises(ValueError, match="insufficient nodes: k=6 with only 6 nodes"):
            cc(view, geom, 6)
    with pytest.raises(ValueError, match="view has 5 node columns, geometry 6 nodes"):
        neighbor_cc(view[:, :5], geom, 2)


def test_neighbor_cc_gathers_one_rank_at_a_time():
    geom = _grid(40, 40)
    geom.neighbors(8)  # the cached table is not the CC's memory
    view = np.random.default_rng(4).standard_normal((128, 1600))  # m=64
    tracemalloc.start()
    try:
        neighbor_cc(view, geom, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the node-major copy and one gather buffer; all eight gathers at once would be 8x
    assert peak < 3 * view.nbytes


# ---------------------------------------------------------------------------
# the circular time-shift null
# ---------------------------------------------------------------------------


def ar1_view(rng, rho, m):
    """The [Re; Im] real-view column of a stationary complex AR(1) sequence
    of m snapshots with unit variance and lag-one correlation rho."""
    e = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    c = math.sqrt(1.0 - rho * rho)
    e[0] /= c  # z_0 = e_0: the sequence starts in its stationary law
    z = lfilter([c], [1.0, -rho], e)
    return np.concatenate([z.real, z.imag])


@pytest.mark.parametrize("size, rho", [(200, 0.88), (149, 0.0)])
def test_shift_statistics_equal_the_statistic_of_each_rolled_sequence(size, rho):
    rng = np.random.default_rng(20)
    x, y = (ar1_view(rng, rho, (size + 1) // 2)[:size] for _ in range(2))
    stats = shift_statistics(_prepare_grams([x, y])[0])
    assert stats.shape == (size,)
    loop = np.array([dhsic_statistic([x, np.roll(y, -s)]) for s in range(size)])
    assert np.all(np.abs(stats - loop) <= 1e-12 * np.abs(loop))
    assert abs(stats[0] - dhsic_statistic([x, y])) <= 1e-12 * dhsic_statistic([x, y])


def test_shift_null_critical_value_is_the_indexed_order_statistic_of_shifts_a_to_m_minus_a():
    rng = np.random.default_rng(21)
    x, y = ar1_view(rng, 0.5, 256), ar1_view(rng, 0.5, 256)
    report = dhsic_test([x, y], alpha=0.1)
    stats = shift_statistics(_prepare_grams([x, y])[0])
    null = stats[64 : 512 - 64 + 1]
    assert (report.null, report.b) == ("shift", null.size) and null.size == 385
    assert report.statistic == stats[0]
    ties = int(np.sum(null == stats[0]))
    assert report.critical_value == np.sort(null)[math.ceil(386 * 0.9) + ties - 1]
    assert report.p_value == (1 + int(np.sum(null >= stats[0]))) / 386


def test_shift_null_size_on_correlated_sequences():
    # independent pairs at the simulator's snapshot correlation, where the
    # permutation null rejects most of them; the nominal 10 of 200 plus 3.1
    # binomial standard deviations (3.08) allows at most 20
    rejections = 0
    for child in np.random.SeedSequence(2206).spawn(200):
        rng = np.random.default_rng(child)
        rejections += dhsic_test([ar1_view(rng, 0.88, 256), ar1_view(rng, 0.88, 256)]).reject
    assert rejections <= 20


def test_shift_null_power_on_duplicated_and_dependent_sequences():
    rng = np.random.default_rng(22)
    x = ar1_view(rng, 0.88, 256)
    report = dhsic_test([x, x.copy()])
    assert report.reject and report.delta_bar > 1.0
    assert report.p_value == 1 / 386
    assert dhsic_test([x, x + 0.5 * ar1_view(rng, 0.88, 256)]).reject


def test_shift_null_constant_variable_gives_zero_delta_bar():
    # M=132 = 4 * 3 * 11: the FFT's radix-11 pass leaves ~1e-34 in the shifts
    # of an all-ones Gram (at M=256 or 300 they are exactly 0), and that
    # rounding must not break the ties
    x = ar1_view(np.random.default_rng(23), 0.88, 66)
    # every shift ties the observed statistic, so the critical-value index is clamped
    with pytest.warns(RuntimeWarning, match="exceeds B=101; clamping"):
        report = dhsic_test([x, np.full(132, 0.25)])
    assert report.null == "shift" and report.degenerate_variables == (1,)
    assert report.delta_bar == 0.0 and not report.reject and report.p_value == 1.0


def _permutation_replicates_give(report, variables, b, seed):
    """Whether ``report``'s critical value and p-value are those of the
    replicates ``permutation_statistics(variables, b, seed)``."""
    stats = permutation_statistics(variables, b=b, seed=seed)
    ties = int(np.sum(stats == report.statistic))
    cv = np.sort(stats)[math.ceil((b + 1) * (1 - report.alpha)) + ties - 1]
    return report.critical_value == cv and report.p_value == (1 + int(np.sum(stats >= report.statistic))) / (b + 1)


def test_d2_takes_the_shift_null_from_100_shifts():
    rng = np.random.default_rng(24)
    # M=130: A=16 and 99 shifts, too few; M=131: exactly 100; M=132: 101
    short = [rng.standard_normal(130), rng.standard_normal(130)]
    report = dhsic_test(short, b=150, seed=3)
    assert (report.null, report.b) == ("permutation", 150)
    assert _permutation_replicates_give(report, short, 150, 3)
    for m, shifts in [(131, 100), (132, 101)]:
        variables = [rng.standard_normal(m), rng.standard_normal(m)]
        report = dhsic_test(variables, b=150, seed=3)
        assert (report.null, report.b) == ("shift", shifts)
        stats = shift_statistics(_prepare_grams(variables)[0])
        assert report.statistic == stats[0]
        assert report.p_value == (1 + int(np.sum(stats[16 : m - 16 + 1] >= stats[0]))) / (shifts + 1)


def test_d3_takes_the_permutation_null_at_any_length():
    rng = np.random.default_rng(27)
    variables = [rng.standard_normal(256) for _ in range(3)]
    report = dhsic_test(variables, b=100, seed=4)
    assert (report.null, report.b) == ("permutation", 100)
    assert _permutation_replicates_give(report, variables, 100, 4)


def test_shift_null_ignores_the_permutation_settings():
    rng = np.random.default_rng(25)
    variables = [ar1_view(rng, 0.5, 128), ar1_view(rng, 0.5, 128)]
    assert dhsic_test(variables, b=50, seed=1) == dhsic_test(variables, seed=2)


# pipeline avg_delta_bar under the shift null on a 4x4 grid, m=128 (M=256), 4 pairs
GOLDEN_SHIFT = {"none": 1.5222465659175526, "pca": 0.0, "kpca": 0.7297638401264958}


@pytest.mark.parametrize("method", sorted(GOLDEN_SHIFT))
def test_pipeline_shift_null_delta_bar_matches_golden(method):
    cfg = pipeline.PipelineConfig(
        sim=SimConfig(grid_shape=(4, 4), m=128), method=method, metrics=("delta_bar",), delta_pairs=4
    )
    report = pipeline.run_pipeline(cfg)
    assert abs(report["metrics"]["avg_delta_bar"] - GOLDEN_SHIFT[method]) <= 1e-9
    assert [(d["null"], d["b"]) for d in report["diagnostics"]["delta_bar"]] == [("shift", 193)] * 4


@pytest.mark.parametrize("m, null", [(130, "permutation"), (131, "shift")])
def test_avg_neighbor_delta_bar_takes_the_shift_null_from_100_shifts(m, null):
    # M=130 gives 99 shifts, M=131 exactly 100
    rng = np.random.default_rng(26)
    geom = NodeGeometry(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), k=1)
    view = rng.standard_normal((m, 3))
    delta, tested = avg_neighbor_delta_bar(view, geom, pairs=2, b=100, seed=7)
    assert [r.null for _, r in tested] == [null, null]
    pairs, children = [(0, 1), (2, 1)], np.random.SeedSequence(7).spawn(2)
    want = [dhsic_test([view[:, i], view[:, j]], b=100, seed=c) for (i, j), c in zip(pairs, children)]
    assert tested == list(zip(pairs, want))
    assert delta == np.mean([r.delta_bar for r in want])
