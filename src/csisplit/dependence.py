"""Kernel independence testing between node observation sequences.

The d-variable Hilbert-Schmidt independence criterion is estimated from
per-variable Gaussian Gram matrices K^l:

    stat = (1/M^2)  sum_ij prod_l K^l_ij
         + (1/M^2d) prod_l sum_ij K^l_ij
         - (2/M^(d+1)) sum_i prod_l (sum_j K^l_ij)

K^l_ij = exp(-(x_i - x_j)^2 / sigma^2) with sigma = median_bandwidth, the
package's one median heuristic; kpca's 2 sigma^2 differs on purpose: one
convention would move outputs. A node's sequence is its real-view column,
the real parts of its m snapshots above their imaginary parts: M = 2m
observations.

The critical value at level alpha is an order statistic of B null
replicates, sorted ascending, indexed at ceil((B+1)(1-alpha)) plus the count
of replicates tied with the observed statistic, clamped to B. The p-value is
(1 + #{replicates >= statistic}) / (B + 1). The normalized dependence level
divides the statistic by the critical value and gates with the rejection
indicator: zero whenever the test does not reject, stat/CV otherwise.

``dhsic_test`` picks the null from its input, and no caller chooses it:
d = 2 variables with at least MIN_REPLICATES shifts (M >= 131) take the
shift null, everything else the permutation null with ``b`` draws. The
report records the choice.

``permutation``: B Monte-Carlo re-samplings without replacement. Each
replicate keeps variable 0 in place and permutes variables 1..d-1
independently. This is the null of permuting every variable: the
statistic is unchanged when all variables share one permutation, so
permuting variable l by p_l equals permuting it by p_l o p_0^-1 with
variable 0 fixed, and that permutation is again uniform. A permutation
also destroys each sequence's own temporal correlation, so on correlated
sequences this null is too narrow: at the simulator's snapshot correlation
it rejected 49 of 60 independent pairs at the 5% level.

``shift`` (Chwialkowski & Gretton, "A Kernel Independence Test for Random
Processes", ICML 2014): replicate s pairs x with y circularly shifted by s,
y'_i = y_((i+s) mod M), for s in [A, M-A] with A = M // 8, so
B = M - 2A + 1 (385 at M = 512); the observed statistic is s = 0. A shift
moves y as a whole: each sequence keeps its own temporal correlation, and
only the alignment between the two is broken, which is what independence
is about. Shifts within A of 0 or M leave y nearly aligned with x. On
independent complex AR(1) pairs in the [Re; Im] layout at M = 512 it
rejected 10/200 at correlation 0.88 and 7/200 at 0, 57/800 at 0.97, and
50/50 of y = x + 0.5 e at 0.88.

Every shift comes from one 2-D FFT of the uncentred Grams K and L. The
shifted term1 sum is a circular cross-correlation at lag (s, s):

    sum_ij K_ij L_(i+s)(j+s) = irfft2(conj(rfft2(K)) * rfft2(L))[s, s].

In that product spectrum the row u = 0 and the column v = 0 are exactly
term2 and term3: bin (0, 0) is sum(K) sum(L), and the rest of row and
column 0 is the product of the row-sum spectra. Zeroing them leaves

    stat(s) = irfft2(product, row 0 and column 0 zeroed)[s, s] / M^2,

the double-centred (1/M^2) tr(H K H L_s). Not summing three O(1) terms to
an O(1e-3) statistic keeps every shift within 1e-15 relative of a
long-double evaluation (M = 256 and 512); the three-term form was off by
up to 9e-14 there and ``dhsic_statistic`` by up to 4e-13. The observed
statistic is the s = 0 value of the same transform, so exact ties still
count as ties.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import NodeGeometry, squared_distances

MIN_REPLICATES = 100  # the fewest null replicates a test may use


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
    null: str  # "shift" or "permutation", as the input decides
    degenerate_variables: tuple[int, ...] = ()


def median_bandwidth(sq_dists: np.ndarray) -> float:
    """sqrt(med / 2), med the median of the strict upper triangle of a
    symmetric matrix of squared distances, or of its positive entries when
    more than half are zero; NaN when none is positive (no bandwidth)."""
    n = sq_dists.shape[0]
    off = sq_dists[np.less.outer(np.arange(n), np.arange(n))]  # a boolean mask: no (n^2 / 2) index arrays
    med = float(np.median(off, overwrite_input=True))  # reorders off, not its values
    if med == 0.0:
        pos = off[off > 0]
        if pos.size == 0:
            return math.nan
        med = float(np.median(pos))
    return math.sqrt(med / 2.0)


def gaussian_gram_1d(x: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """(Gram matrix K_ij = exp(-(x_i - x_j)^2 / sigma^2), sigma, degenerate)
    for a scalar sequence at sigma = :func:`median_bandwidth`. A constant
    sequence has none: its Gram is the all-ones limit, flagged degenerate."""
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError("need at least 2 observations")
    if not np.all(np.isfinite(x)):
        raise ValueError("observations contain non-finite values")
    d2 = squared_distances(x[:, None], x[:, None])
    sigma = median_bandwidth(d2)
    if math.isnan(sigma):  # constant sequence
        return np.ones_like(d2), sigma, True
    return np.exp(-d2 / (sigma * sigma)), sigma, False


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)


def _prepare_grams(variables):
    if len(variables) < 2:
        raise ValueError("need d >= 2 variables")
    arrs = [np.asarray(v, dtype=np.float64).ravel() for v in variables]
    m = arrs[0].size
    if m < 2 or any(a.size != m for a in arrs):
        raise ValueError("all variables need the same length M >= 2")
    grams, degenerate = [], []
    for idx, a in enumerate(arrs):
        k, _, degen = gaussian_gram_1d(a)
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


def dhsic_statistic(variables) -> float:
    """Estimator of the d-variable HSIC from scalar observation sequences."""
    grams, _ = _prepare_grams(variables)
    return _PermutedStatistic(grams)(_identity(grams))


def permutation_statistics(variables, b: int, seed, statistic=None) -> np.ndarray:
    """B statistics of the permutation null.

    Variable 0 stays in place. One ``np.random.default_rng(seed)`` draws,
    for replicate 0, 1, ..., B-1 in turn, one ``rng.permutation(M)`` for each
    of variables 1..d-1 in variable order. With those permutations p_1..p_{d-1},
    replicate r is ``dhsic_statistic([x_0, x_1[p_1], ..., x_{d-1}[p_{d-1}]])``.
    ``statistic`` is the statistic of the variables' Grams when the caller has
    built it already (``dhsic_test`` does), so the Grams are built once.
    """
    if statistic is None:
        statistic = _PermutedStatistic(_prepare_grams(variables)[0])
    m, d = statistic.grams[0].shape[0], len(statistic.grams)
    rng = np.random.default_rng(seed)
    out = np.empty(b)
    for r in range(b):
        out[r] = statistic([rng.permutation(m) for _ in range(d - 1)])
    return out


def shift_count(m: int) -> int:
    """B of the shift null for M observations: the shifts A..M-A, A = M // 8."""
    return m - 2 * (m // 8) + 1


def shift_statistics(grams: list[np.ndarray]) -> np.ndarray:
    """The d=2 statistic of x against y circularly shifted by s, for every
    s = 0..M-1, from the Grams [K, L] of x and y (see the module docstring)."""
    k, l = grams
    m = k.shape[0]
    spectrum = np.conj(np.fft.rfft2(k))
    spectrum *= np.fft.rfft2(l)
    spectrum[0, :] = 0.0
    spectrum[:, 0] = 0.0
    return np.diagonal(np.fft.irfft2(spectrum, s=k.shape)) / float(m) ** 2


def _cv_index(b: int, alpha: float, ties: int) -> int:
    """1-based order-statistic index, clamped to B."""
    idx = math.ceil((b + 1) * (1.0 - alpha)) + ties
    if idx > b:
        warnings.warn(f"critical-value index {idx} exceeds B={b}; clamping", RuntimeWarning)
        idx = b
    return idx


def dhsic_test(variables, alpha: float = 0.05, b: int = 1000, seed=0) -> DependenceReport:
    """Full test: statistic, critical value, rejection, normalized level and
    p-value, under the null the input picks (see the module docstring).
    ``b`` and ``seed`` are the permutation null's; the shift null has
    B = M - 2 (M // 8) + 1 replicates and draws nothing."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grams, degenerate = _prepare_grams(variables)
    m = grams[0].shape[0]
    # each null computes the observed statistic with the same arithmetic as
    # its replicates, so that exact ties are ties
    if len(grams) == 2 and shift_count(m) >= MIN_REPLICATES:
        null = "shift"
        stats = shift_statistics(grams)
        observed, stats = float(stats[0]), stats[m // 8 : m - m // 8 + 1]
        if degenerate:
            # an all-ones Gram gives every shift the same statistic; the FFT's
            # rounding can leave ~1e-34 in some shifts (at M=132, say)
            stats = np.full(stats.size, observed)
        b = stats.size
    else:
        null = "permutation"
        if b < MIN_REPLICATES:
            raise ValueError(f"need at least {MIN_REPLICATES} permutations")
        statistic = _PermutedStatistic(grams)
        observed = statistic(_identity(grams))
        stats = permutation_statistics(variables, b, seed, statistic=statistic)
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
        null=null,
        degenerate_variables=degenerate,
    )


def pearson_cc(a, b) -> float:
    """Sample Pearson correlation of two equal-length sequences: the dot
    product of the centred sequences over the product of their norms.

    Each mean is ``a.sum() / a.size``: for float64 that is what ``a.mean()``
    computes, bit for bit, without ``np.mean``'s Python wrapper, which
    was most of the cost of a call on the neighbor pairs."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size or a.size < 2:
        raise ValueError("need two equal-length sequences with >= 2 samples")
    a = a - a.sum() / a.size
    b = b - b.sum() / b.size
    norm_a, norm_b = math.sqrt(np.dot(a, a)), math.sqrt(np.dot(b, b))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("zero-variance sequence")
    return float(np.dot(a, b)) / (norm_a * norm_b)


def avg_neighbor_cc(view: np.ndarray, geom: NodeGeometry, k: int | None = None) -> float:
    """Signed mean of the Pearson CC between node columns of ``view`` over
    all (node, k-nearest-neighbor) pairs."""
    columns = np.ascontiguousarray(np.asarray(view, dtype=np.float64).T)
    table = geom.neighbors(geom.k if k is None else k)
    vals = [pearson_cc(columns[i], columns[j]) for i, row in enumerate(table.tolist()) for j in row]
    return float(np.mean(vals))


def cc_from_moments(dots, squares, sums, table: np.ndarray, length: int) -> np.ndarray:
    """Mean Pearson CC over the (node, neighbor) pairs of ``table``, one per
    band, from each band's column inner products with the neighbors'
    (bands, n, k) and its column squared norms and sums (bands, n)."""
    var = squares - sums * sums / length
    if np.any(var <= 0.0):
        raise ValueError("zero-variance sequence")
    cov = dots - sums[:, :, None] * sums[:, table] / length
    norm = np.sqrt(var)
    return (cov / (norm[:, :, None] * norm[:, table])).reshape(len(cov), -1).mean(axis=1)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] . b[i] for each row i: numpy's matmul takes each 1 x L by L x 1
    product with the dot that ``np.dot`` of two vectors calls."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def neighbor_cc(view: np.ndarray, geom: NodeGeometry, k: int) -> float:
    """Signed mean of the Pearson CC between node columns of ``view`` over
    all (node, k-nearest-neighbor) pairs, in one pass over the nodes.

    :func:`avg_neighbor_cc`, one :func:`pearson_cc` call per pair, is its
    per-pair reference. The view is copied once node-major, rows x_i of
    L = 2m coordinates, and each row is centred as the loop centres it,
    x_i - sum(x_i) / L. For each rank r < k the rows x_j of the r-th
    neighbors, j = neighbors(k)[i, r], are gathered into one (n, L) buffer,
    and the row-wise dot products fill dots[i, r] = x_i . x_j. The (n, k, L)
    array of every neighbor's row is never built: it would be 13 MB at the
    20x20, m=256 defaults. Then

        CC_ij = x_i . x_j / (|x_i| |x_j|),

    which is :func:`cc_from_moments` with zero sums, averaged over the n k
    pairs. Each dot is the BLAS dot that ``pearson_cc``'s ``np.dot`` calls,
    so the mean equals the loop's bit for bit, and the tests hold it to
    that. A row-wise ``einsum`` adds in another order: it moved the 4x4,
    m=32 none split's ``avg_cc`` by one ulp.

    It centres first because the raw-moment form that ``pca.sweep`` feeds
    :func:`cc_from_moments`, x_i . x_j - s_i s_j / L over uncentred rows,
    cancels when the columns share an offset: on a standard-normal 32 x 36
    view (``default_rng(0)``, a 6 x 6 grid, k=4), a common offset of 1e3
    put it 1.3e-11 from the loop and an offset of 1e6 4.2e-5 away, while
    the centred form read the loop's value at every offset.
    """
    table = geom.neighbors(k)
    rows = np.array(np.asarray(view, dtype=np.float64).T, order="C")
    n, length = rows.shape
    if n != geom.n:
        raise ValueError(f"view has {n} node columns, geometry {geom.n} nodes")
    rows -= (rows.sum(axis=1) / length)[:, None]
    gathered = np.empty_like(rows)
    dots = np.empty((n, k))
    for r in range(k):
        # mode="clip": with out=, the default mode="raise" copies through a
        # hidden (n, L) buffer; the table's indices are always in range
        np.take(rows, table[:, r], axis=0, out=gathered, mode="clip")
        dots[:, r] = _row_dots(rows, gathered)
    squares = _row_dots(rows, rows)
    return float(cc_from_moments(dots[None], squares[None], np.zeros((1, n)), table, length)[0])


def select_delta_pairs(geom: NodeGeometry, pairs: int) -> list[tuple[int, int]]:
    """Deterministic evenly-spaced (node, nearest-neighbor) pairs for the
    averaged dependence metric."""
    pairs = min(pairs, geom.n)
    nodes = np.unique(np.linspace(0, geom.n - 1, pairs).round().astype(int))
    nearest = geom.neighbors(1)[:, 0]
    return [(int(i), int(nearest[i])) for i in nodes]


def avg_neighbor_delta_bar(
    view: np.ndarray,
    geom: NodeGeometry,
    pairs: int = 16,
    alpha: float = 0.05,
    b: int = 1000,
    seed=0,
) -> tuple[float, list[tuple[tuple[int, int], DependenceReport]]]:
    """Average normalized dependence over (node, nearest-neighbor) pairs:
    (average, each pair with its report).

    Each pair is tested as a d=2 group of real-view column sequences with
    its own RNG stream; ``b`` is the permutation count where the test takes
    the permutation null.
    """
    view = np.asarray(view, dtype=np.float64)
    groups = select_delta_pairs(geom, pairs)
    children = _as_seed_sequence(seed).spawn(len(groups))
    tested = [
        ((i, j), dhsic_test([view[:, i], view[:, j]], alpha=alpha, b=b, seed=child))
        for (i, j), child in zip(groups, children)
    ]
    return float(np.mean([r.delta_bar for _, r in tested])), tested
