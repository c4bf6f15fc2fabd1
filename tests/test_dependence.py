import math

import numpy as np
import pytest

from csisplit.core import NodeGeometry
from csisplit.dependence import (
    _cv_index,
    avg_neighbor_cc,
    dhsic_statistic,
    dhsic_test,
    gaussian_gram_1d,
    pearson_cc,
    permutation_statistics,
    select_delta_pairs,
)


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
    pairs = select_delta_pairs(geom, pairs=2)
    assert pairs == [(0, 1), (3, 2)]
