"""Maximum-likelihood fitting of amplitude/phase distributions, AIC ranking
and Kolmogorov-Smirnov goodness of fit.

Parameter conventions (the (alpha, beta) pair reported per family):
Rician (nu, sigma); Rayleigh (sigma,); Nakagami (m, omega); Weibull
(scale, shape); Normal (mu, sigma); Uniform (a, b).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

AMPLITUDE_FAMILIES = ("rician", "rayleigh", "nakagami", "weibull", "normal")
PHASE_FAMILIES = ("uniform", "normal")
ALL_FAMILIES = ("rician", "rayleigh", "nakagami", "weibull", "normal", "uniform")

_MAX_ITER = 500
_XATOL = 1e-8


class FitError(RuntimeError):
    """Numerical MLE did not converge; carries the last iterate."""

    def __init__(self, family: str, last_iterate: tuple[float, ...]):
        super().__init__(f"{family} MLE did not converge within {_MAX_ITER} iterations; last iterate {last_iterate}")
        self.family = family
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class FitResult:
    family: str
    params: tuple[float, ...]
    log_likelihood: float
    aic: float
    ks_stat: float
    p_value: float


def aic(log_likelihood: float, k: int) -> float:
    """-2 ln(L) + 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return -2.0 * log_likelihood + 2.0 * k


def ks_test(samples, cdf) -> tuple[float, float]:
    """One-sample KS statistic and asymptotic p-value.

    p is Kolmogorov's limiting survival function at sqrt(M) D
    (``scipy.special.kolmogorov``). No correction for estimated parameters.
    """
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    m = x.size
    if m < 1:
        raise ValueError("need at least one sample")
    f = np.clip(np.asarray(cdf(x), dtype=np.float64), 0.0, 1.0)
    grid = np.arange(1, m + 1) / m
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / m))))
    return d, float(special.kolmogorov(math.sqrt(m) * d))


def _check_samples(samples, family: str) -> np.ndarray:
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 20:
        raise ValueError("need at least 20 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples contain non-finite values")
    if family in ("rician", "rayleigh", "nakagami", "weibull") and np.any(x <= 0):
        raise ValueError(f"{family} requires strictly positive samples")
    return x


def _numeric_mle(family: str, x: np.ndarray, nll, theta0) -> np.ndarray:
    """Nelder-Mead on a smooth reparameterization; 1e-8 step tolerance."""
    res = optimize.minimize(
        nll,
        np.asarray(theta0, dtype=np.float64),
        method="Nelder-Mead",
        options={"xatol": _XATOL, "fatol": 1e-7, "maxiter": _MAX_ITER, "maxfev": 10 * _MAX_ITER},
    )
    if not res.success:
        raise FitError(family, tuple(res.x))
    return res.x


def _fit_rician(x: np.ndarray) -> tuple[tuple[float, float], float]:
    power = float(np.mean(x * x))

    # theta = (t, u) with nu = t^2, sigma = e^u: keeps the nu -> 0 boundary smooth
    def nll(theta):
        nu = theta[0] ** 2
        sigma = math.exp(theta[1])
        return -float(np.sum(stats.rice.logpdf(x, nu / sigma, scale=sigma)))

    # coarse init over plausible LOS-to-scatter ratios
    best = None
    for k0 in (0.01, 0.5, 2.0, 8.0):
        nu0 = math.sqrt(power * k0 / (k0 + 1.0))
        sig0 = math.sqrt(power / (2.0 * (k0 + 1.0)))
        theta = (math.sqrt(nu0), math.log(sig0))
        val = nll(theta)
        if best is None or val < best[0]:
            best = (val, theta)
    theta = _numeric_mle("rician", x, nll, best[1])
    nu, sigma = theta[0] ** 2, math.exp(theta[1])
    return (nu, sigma), -nll(theta)


def _fit_rayleigh(x: np.ndarray) -> tuple[tuple[float], float]:
    sigma = math.sqrt(float(np.mean(x * x)) / 2.0)
    ll = float(np.sum(stats.rayleigh.logpdf(x, scale=sigma)))
    return (sigma,), ll


def _fit_nakagami(x: np.ndarray) -> tuple[tuple[float, float], float]:
    x2 = x * x
    power = float(np.mean(x2))
    var2 = float(np.var(x2))
    m0 = max(power * power / var2, 0.55) if var2 > 0 else 1.0

    # theta = (t, u) with m = 0.5 + e^t, omega = e^u (Nakagami requires m >= 1/2)
    def nll(theta):
        m = 0.5 + math.exp(theta[0])
        omega = math.exp(theta[1])
        return -float(np.sum(stats.nakagami.logpdf(x, m, scale=math.sqrt(omega))))

    theta = _numeric_mle("nakagami", x, nll, (math.log(max(m0 - 0.5, 1e-3)), math.log(power)))
    return (0.5 + math.exp(theta[0]), math.exp(theta[1])), -nll(theta)


def _fit_weibull(x: np.ndarray) -> tuple[tuple[float, float], float]:
    logx = np.log(x)
    k0 = max(1.2 / max(float(np.std(logx)), 1e-6), 0.05)
    lam0 = math.exp(float(np.mean(logx)) + 0.5772 / k0)

    def nll(theta):
        lam, k = math.exp(theta[0]), math.exp(theta[1])
        return -float(np.sum(stats.weibull_min.logpdf(x, k, scale=lam)))

    theta = _numeric_mle("weibull", x, nll, (math.log(lam0), math.log(k0)))
    return (math.exp(theta[0]), math.exp(theta[1])), -nll(theta)


def _fit_normal(x: np.ndarray) -> tuple[tuple[float, float], float]:
    mu = float(np.mean(x))
    sigma = float(np.sqrt(np.var(x)))  # biased MLE variance
    if sigma == 0.0:
        raise ValueError("degenerate (constant) samples")
    ll = float(np.sum(stats.norm.logpdf(x, loc=mu, scale=sigma)))
    return (mu, sigma), ll


def _fit_uniform(x: np.ndarray) -> tuple[tuple[float, float], float]:
    a, b = float(np.min(x)), float(np.max(x))
    if b <= a:
        raise ValueError("degenerate (constant) samples")
    return (a, b), -x.size * math.log(b - a)


#: family -> (fit(samples) -> (params, log-likelihood), cdf(x, *params));
#: the AIC counts the params
_FAMILIES = {
    "rician": (_fit_rician, lambda x, nu, sigma: stats.rice.cdf(x, nu / sigma, scale=sigma)),
    "rayleigh": (_fit_rayleigh, lambda x, sigma: stats.rayleigh.cdf(x, scale=sigma)),
    "nakagami": (_fit_nakagami, lambda x, m, omega: stats.nakagami.cdf(x, m, scale=math.sqrt(omega))),
    "weibull": (_fit_weibull, lambda x, lam, k: stats.weibull_min.cdf(x, k, scale=lam)),
    "normal": (_fit_normal, lambda x, mu, sigma: stats.norm.cdf(x, loc=mu, scale=sigma)),
    "uniform": (_fit_uniform, lambda x, a, b: stats.uniform.cdf(x, loc=a, scale=b - a)),
}


def fit_mle(samples, family: str) -> FitResult:
    """MLE fit of one family plus AIC and KS goodness of fit."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    x = _check_samples(samples, family)
    fit, cdf = _FAMILIES[family]
    params, ll = fit(x)
    ks_stat, p_value = ks_test(x, lambda v: cdf(v, *params))
    return FitResult(
        family=family,
        params=tuple(float(p) for p in params),
        log_likelihood=ll,
        aic=aic(ll, len(params)),
        ks_stat=ks_stat,
        p_value=p_value,
    )


def fit_families(samples, families=ALL_FAMILIES) -> list[FitResult]:
    """Fit several families; results sorted by ascending AIC (best first).
    One thread per family: scipy's ``logpdf`` releases the GIL."""
    with ThreadPoolExecutor(max_workers=len(families)) as pool:
        results = list(pool.map(lambda f: fit_mle(samples, f), families))
    return sorted(results, key=lambda r: r.aic)
