import numpy as np
import pytest
from scipy import stats

from csisplit.distfit import (
    ALL_FAMILIES,
    AMPLITUDE_FAMILIES,
    PHASE_FAMILIES,
    fit_families,
    fit_mle,
    ks_test,
)
from csisplit.simulate import SimConfig, simulate


def _serial(samples, families):
    return sorted((fit_mle(samples, f) for f in families), key=lambda r: r.aic)


@pytest.fixture(scope="module")
def csi():
    return simulate(SimConfig(grid_shape=(5, 5), m=32)).uplink.data


@pytest.mark.parametrize("families", [ALL_FAMILIES, AMPLITUDE_FAMILIES])
def test_fit_families_equals_the_serial_fits_on_amplitudes(csi, families):
    samples = np.abs(csi).ravel()
    assert fit_families(samples, families) == _serial(samples, families)


def test_fit_families_equals_the_serial_fits_on_phases(csi):
    samples = np.angle(csi).ravel()
    assert fit_families(samples, PHASE_FAMILIES) == _serial(samples, PHASE_FAMILIES)


def test_rician_parameters_are_recovered():
    nu, sigma = 2.0, 0.8
    x = stats.rice.rvs(nu / sigma, scale=sigma, size=3000, random_state=np.random.default_rng(5))
    fit = fit_mle(x, "rician")
    # about 4 standard errors at 3000 samples
    assert fit.params == pytest.approx((nu, sigma), rel=0.05)
    assert fit.p_value > 0.01


def test_weibull_parameters_are_recovered():
    scale, shape = 1.5, 2.5
    x = stats.weibull_min.rvs(shape, scale=scale, size=3000, random_state=np.random.default_rng(6))
    fit = fit_mle(x, "weibull")
    assert fit.params == pytest.approx((scale, shape), rel=0.05)
    assert fit.p_value > 0.01


def test_too_few_samples_rejected():
    with pytest.raises(ValueError, match="need at least 20 samples"):
        fit_mle(np.ones(19), "normal")
    with pytest.raises(ValueError, match="need at least 20 samples"):
        fit_families(np.arange(1.0, 20.0), AMPLITUDE_FAMILIES)


def test_non_finite_samples_rejected():
    x = np.linspace(1.0, 2.0, 30)
    x[7] = np.nan
    for family in ALL_FAMILIES:
        with pytest.raises(ValueError, match="non-finite"):
            fit_mle(x, family)


@pytest.mark.parametrize("family", ["rician", "rayleigh", "nakagami", "weibull"])
def test_non_positive_amplitudes_rejected(family):
    x = np.linspace(0.0, 2.0, 30)
    with pytest.raises(ValueError, match="strictly positive"):
        fit_mle(x, family)
    with pytest.raises(ValueError, match="strictly positive"):
        fit_families(x, (family, "normal"))


def test_normal_and_uniform_accept_signed_samples():
    x = np.random.default_rng(7).standard_normal(50)
    assert {r.family for r in fit_families(x, ("normal", "uniform"))} == {"normal", "uniform"}


@pytest.mark.parametrize(
    "m, q, d, p",
    [
        (20, 1.0, 0.04761904761904767, 0.9999999999740203),
        (50, 1.3, 0.10485561072029514, 0.6415891478663681),
        (1000, 1.05, 0.018327799710419757, 0.8901163997593288),
    ],
)
def test_ks_test_statistic_and_asymptotic_p_value(m, q, d, p):
    """D exactly, and p within 1e-10 of the truncated Kolmogorov series
    2 sum_k (-1)^(k-1) exp(-2 k^2 M D^2) that scipy's function replaced."""
    x = (np.arange(1, m + 1) / (m + 1)) ** q
    got_d, got_p = ks_test(x, lambda t: np.clip(t, 0.0, 1.0))
    assert got_d == d
    assert got_p == pytest.approx(p, abs=1e-10)
