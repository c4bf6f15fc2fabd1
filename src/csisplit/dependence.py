"""Kernel independence testing between node observation sequences.

The d-variable Hilbert-Schmidt independence criterion is estimated from
per-variable Gaussian Gram matrices K^l (median-heuristic bandwidths):

    stat = (1/M^2)  sum_ij prod_l K^l_ij
         + (1/M^2d) prod_l sum_ij K^l_ij
         - (2/M^(d+1)) sum_i prod_l (sum_j K^l_ij)

The critical value at level alpha comes from B Monte-Carlo re-samplings
without replacement, sorted ascending, indexed at ceil((B+1)(1-alpha)) plus
the count of replicates tied with the observed statistic, clamped to B.
Each replicate keeps variable 0 in place and permutes variables 1..d-1
independently. This is the null of permuting every variable: the
statistic is unchanged when all variables share one permutation, so
permuting variable l by p_l equals permuting it by p_l o p_0^-1 with
variable 0 fixed, and that permutation is again uniform.

The normalized dependence level divides the statistic by the critical
value and gates with the rejection indicator: zero whenever the test does
not reject, stat/CV otherwise. The permutation p-value is
(1 + #{replicates >= statistic}) / (B + 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NodeGeometry, nearest_neighbors


@dataclass(frozen=True)
class DependenceReport:
    statistic: float
    critical_value: float
    delta_bar: float
    alpha: float
    b: int
    reject: bool
    raw_ratio: float  # statistic / CV without the indicator gate
    p_value: float  # (1 + #{null >= statistic}) / (B + 1)
    degenerate_variables: tuple[int, ...] = ()


def gaussian_gram_1d(x: np.ndarray, sigma: float | None = None) -> tuple[np.ndarray, float, bool]:
    """Gram matrix K_ij = exp(-(x_i - x_j)^2 / sigma^2) for a scalar sequence.

    Median-heuristic bandwidth sigma = sqrt(med(offdiag squared dists) / 2)
    when not supplied. A constant sequence has no usable bandwidth; its Gram
    is the all-ones limit and the degenerate flag is set.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    d2 = (x[:, None] - x[None, :]) ** 2
    if sigma is None:
        off = d2[np.triu_indices(x.size, k=1)]
        med = float(np.median(off))
        if med == 0.0:
            pos = off[off > 0]
            if pos.size == 0:  # constant sequence
                return np.ones_like(d2), math.nan, True
            med = float(np.median(pos))  # >50% duplicates: fall back to positive dists
        sigma = math.sqrt(med / 2.0)
    if sigma <= 0:
        raise ValueError("bandwidth must be positive")
    return np.exp(-d2 / (sigma * sigma)), float(sigma), False


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _prepare_grams(variables, sigmas=None):
    if len(variables) < 2:
        raise ValueError("need d >= 2 variables")
    arrs = [np.asarray(v, dtype=np.float64).ravel() for v in variables]
    m = arrs[0].size
    if m < 2 or any(a.size != m for a in arrs):
        raise ValueError("all variables need the same length M >= 2")
    if sigmas is None:
        sigmas = [None] * len(arrs)
    grams, degenerate = [], []
    for idx, (a, s) in enumerate(zip(arrs, sigmas)):
        k, _, degen = gaussian_gram_1d(a, s)
        grams.append(k)
        if degen:
            degenerate.append(idx)
    return grams, tuple(degenerate)


class _PermutedStatistic:
    """The statistic with variables 1..d-1 permuted relative to variable 0.

    The term2 product of Gram sums and the row-sum vectors do not depend on
    the permutation and are computed once. A call gathers each permuted Gram
    K^l[p][:, p] into preallocated M x M buffers, so a replicate allocates no
    M x M array; the row sums of that Gram are the permuted row sums.
    """

    def __init__(self, grams: list[np.ndarray]):
        m, d = grams[0].shape[0], len(grams)
        self.grams = grams
        self.term2 = math.prod(float(g.sum()) for g in grams) / float(m) ** (2 * d)
        self.rowsums = [g.sum(axis=1) for g in grams]
        self.scale1 = 1.0 / float(m) ** 2
        self.scale3 = 2.0 / float(m) ** (d + 1)
        self.rows = np.empty((m, m))
        self.prod = np.empty((m, m))
        self.cols = np.empty((m, m)) if d > 2 else None

    def __call__(self, perms: list[np.ndarray]) -> float:
        # mode="clip": with out=, the default mode="raise" copies through a
        # hidden buffer; the permutations are always in range
        rowprod = self.rowsums[0].copy()
        for i, (g, rs, p) in enumerate(zip(self.grams[1:], self.rowsums[1:], perms)):
            np.take(g, p, axis=0, out=self.rows, mode="clip")
            np.take(self.rows, p, axis=1, out=self.cols if i else self.prod, mode="clip")
            if i:
                self.prod *= self.cols
            rowprod *= rs[p]
        term1 = float(np.vdot(self.grams[0], self.prod)) * self.scale1
        return term1 + self.term2 - float(rowprod.sum()) * self.scale3


def _identity(grams: list[np.ndarray]) -> list[np.ndarray]:
    return [np.arange(grams[0].shape[0])] * (len(grams) - 1)


def dhsic_statistic(variables, sigmas=None) -> float:
    """Estimator of the d-variable HSIC from scalar observation sequences."""
    grams, _ = _prepare_grams(variables, sigmas)
    return _PermutedStatistic(grams)(_identity(grams))


def permutation_statistics(variables, b: int, seed, sigmas=None) -> np.ndarray:
    """B statistics of the permutation null.

    Variable 0 stays in place. One ``np.random.default_rng(seed)`` draws,
    for replicate 0, 1, ..., B-1 in turn, one ``rng.permutation(M)`` for each
    of variables 1..d-1 in variable order. With those permutations p_1..p_{d-1},
    replicate r is ``dhsic_statistic([x_0, x_1[p_1], ..., x_{d-1}[p_{d-1}]])``.
    """
    grams, _ = _prepare_grams(variables, sigmas)
    m = grams[0].shape[0]
    statistic = _PermutedStatistic(grams)
    rng = np.random.default_rng(seed)
    out = np.empty(b)
    for r in range(b):
        out[r] = statistic([rng.permutation(m) for _ in grams[1:]])
    return out


def _cv_index(b: int, alpha: float, ties: int) -> int:
    """1-based order-statistic index, clamped to B."""
    idx = math.ceil((b + 1) * (1.0 - alpha)) + ties
    if idx > b:
        warnings.warn(f"critical-value index {idx} exceeds B={b}; clamping", RuntimeWarning)
        idx = b
    return idx


def dhsic_test(variables, alpha: float = 0.05, b: int = 1000, seed=0, sigmas=None) -> DependenceReport:
    """Full test: statistic, critical value, rejection, normalized level and
    permutation p-value."""
    if b < 100:
        raise ValueError("need at least 100 permutations")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grams, degenerate = _prepare_grams(variables, sigmas)
    # the same arithmetic as the replicates, so that exact ties are ties
    observed = _PermutedStatistic(grams)(_identity(grams))
    stats = permutation_statistics(variables, b, seed, sigmas)
    ties = int(np.sum(stats == observed))
    cv = float(np.sort(stats)[_cv_index(b, alpha, ties) - 1])
    reject = observed > cv
    ratio = observed / cv if cv > 0 else math.inf
    return DependenceReport(
        statistic=observed,
        critical_value=cv,
        delta_bar=ratio if reject else 0.0,
        alpha=alpha,
        b=b,
        reject=reject,
        raw_ratio=ratio,
        p_value=(1 + int(np.sum(stats >= observed))) / (b + 1),
        degenerate_variables=degenerate,
    )


def pearson_cc(a, b) -> float:
    """Sample Pearson correlation of two equal-length sequences."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("need two equal-length sequences with >= 2 samples")
    sa, sb = a.std(), b.std()
    if sa == 0.0 or sb == 0.0:
        raise ValueError("zero-variance sequence")
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def avg_neighbor_cc(view: np.ndarray, geom: NodeGeometry, k: int | None = None) -> float:
    """Mean |column|-wise Pearson CC over all (node, k-nearest-neighbor) pairs."""
    view = np.asarray(view, dtype=np.float64)
    kk = geom.k if k is None else k
    vals = [
        pearson_cc(view[:, i], view[:, j])
        for i in range(geom.n)
        for j in nearest_neighbors(geom, i, kk)
    ]
    return float(np.mean(vals))


def select_delta_pairs(geom: NodeGeometry, pairs: int) -> list[tuple[int, int]]:
    """Deterministic evenly-spaced (node, nearest-neighbor) pairs for the
    averaged dependence metric."""
    pairs = min(pairs, geom.n)
    nodes = np.unique(np.linspace(0, geom.n - 1, pairs).round().astype(int))
    return [(int(i), int(nearest_neighbors(geom, int(i), 1)[0])) for i in nodes]


def avg_neighbor_delta_bar(
    view: np.ndarray,
    geom: NodeGeometry,
    pairs: int = 16,
    alpha: float = 0.05,
    b: int = 1000,
    seed=0,
) -> tuple[float, list[DependenceReport]]:
    """Average normalized dependence over (node, nearest-neighbor) pairs.

    Each pair is tested as a d=2 group of real-view column sequences with
    its own RNG stream.
    """
    view = np.asarray(view, dtype=np.float64)
    groups = select_delta_pairs(geom, pairs)
    children = _as_seed_sequence(seed).spawn(len(groups))
    reports = [
        dhsic_test([view[:, i], view[:, j]], alpha=alpha, b=b, seed=child)
        for (i, j), child in zip(groups, children)
    ]
    return float(np.mean([r.delta_bar for r in reports])), reports
