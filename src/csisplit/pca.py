"""PCA split of a real-view CSI matrix into a predictable component (top
principal components) and an unpredictable band, dropping the noise-
dominated tail beyond the band.

Works on the (2m, n) real view with nodes as samples and the 2m real
coordinates as features. The basis is fitted once (on Bob's uplink
aggregate) and applied to both link directions.

A caller that reads only the leading ``top`` components passes ``top`` to
:func:`fit_pca`. When n <= 2m and top <= n - 1 the fit takes the dual path:
the centred view has rank at most n - 1, so the n x n node Gram C^T C/(n-1)
has the covariance's nonzero eigenvalues, and its top eigenvectors map back
to the covariance's. Every other fit eigendecomposes the 2m x 2m covariance
(the primal path). A component beyond the view's numerical rank cannot be
mapped back, so the dual path rejects it with a ValueError that names the
rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Decomposition, NodeGeometry
# avg_neighbor_cc is not called here any more, but the module keeps its
# binding: bench/tests/test_bench.py's
# test_tracer_replaces_every_binding_and_restores_them checks that the
# tracer re-binds every module's copy of the name, this one included
from .dependence import avg_neighbor_cc, avg_neighbor_delta_bar, cc_from_moments  # noqa: F401
from .skg import avg_mp


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal eigenvector rows sorted by descending eigenvalue, plus the
    per-feature mean used for centering. A dual fit keeps only its leading
    rows, so the row count may be below the feature count ``dim``."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        for name in ("eigenvectors", "eigenvalues", "mean"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        """The feature count of the views the basis splits."""
        return self.mean.shape[0]


@dataclass(frozen=True)
class DecompConfig:
    """A pca split's ranks, checked when built; :meth:`validate` checks the
    bounds that need the basis."""

    d_hat: int  # predictable rank (0 = none)
    d1: int  # unpredictable band start, 1-based
    d2: int  # unpredictable band end, inclusive

    def __post_init__(self):
        if self.d_hat < 0:
            raise ValueError(f"d_hat must be at least 0, got {self.d_hat}")
        if not 1 <= self.d1 <= self.d2:
            raise ValueError(f"band (d1, d2) = ({self.d1}, {self.d2}) invalid: need 1 <= d1 <= d2")

    def validate(self, dim: int) -> None:
        if self.d_hat > dim:
            raise ValueError(f"d_hat={self.d_hat} out of range [0, {dim}]")
        if self.d2 > dim:
            raise ValueError(f"band ({self.d1}, {self.d2}) invalid for dimension {dim}")


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first entry of each eigenvector row with |x| > 1e-12
    positive, in place; returns ``vectors``. A row with no such entry is
    left as it is."""
    significant = np.abs(vectors) > 1e-12
    first = np.argmax(significant, axis=1)
    rows = np.arange(len(vectors))
    vectors[significant[rows, first] & (vectors[rows, first] < 0)] *= -1.0
    return vectors


def fit_pca(view: np.ndarray, top: int | None = None) -> PcaBasis:
    """Principal components of the node-sample covariance of a (features, n)
    real view.

    ``top`` is the number of leading components the caller reads; None reads
    all of them. The dual path runs when n <= features and 1 <= top <= n - 1:
    it eigendecomposes the n x n node Gram C^T C / (n - 1) of the centred view
    C, keeps its top eigenpairs (v, lam) and maps each back to the covariance
    eigenvector u = C v / sqrt((n - 1) lam). The basis then holds ``top``
    rows, and ``eigenvalues`` holds their ``top`` eigenvalues. A requested
    component with lam <= lam_1 * n * eps (float64 eps) lies beyond the view's
    numerical rank, and the dual path raises a ValueError that names the rank.

    Every other call takes the primal path: a full eigendecomposition of the
    features x features covariance, one row and one eigenvalue (clipped at 0)
    per feature. Both paths make the first entry with |x| > 1e-12 of each
    row positive.
    """
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2 or view.shape[1] < 2:
        raise ValueError("insufficient samples: need a (features, nodes) view with >= 2 nodes")
    features, n = view.shape
    mean = view.mean(axis=1)
    centered = view - mean[:, None]
    if top is not None and 1 <= top < n <= features:
        evals, evecs = np.linalg.eigh(centered.T @ centered / (n - 1))
        order = np.argsort(evals)[::-1]
        rank = np.count_nonzero(evals > evals[order[0]] * n * np.finfo(np.float64).eps)
        if top > rank:
            raise ValueError(f"{top} components requested, but the view's numerical rank is {rank}")
        evals = evals[order[:top]]
        vectors = (evecs[:, order[:top]] / np.sqrt((n - 1) * evals)).T @ centered.T
        return PcaBasis(eigenvectors=_fix_signs(vectors), eigenvalues=evals, mean=mean)
    cov = centered @ centered.T / (n - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    vectors = _fix_signs(evecs[:, order].T.copy())
    return PcaBasis(eigenvectors=vectors, eigenvalues=evals, mean=mean)


def decompose(view: np.ndarray, basis: PcaBasis, cfg: DecompConfig) -> Decomposition:
    """Project the centered view onto the predictable and unpredictable bands.

    predictable = top-d_hat reconstruction, unpredictable = components
    d1..d2 (1-based, inclusive); everything beyond d2 is discarded, so
    only the first max(d_hat, d2) components are projected.
    """
    view = np.asarray(view, dtype=np.float64)
    if view.shape[0] != basis.dim:
        raise ValueError(f"view has {view.shape[0]} features, basis expects {basis.dim}")
    cfg.validate(len(basis.eigenvectors))
    centered = view - basis.mean[:, None]
    u = basis.eigenvectors[: max(cfg.d_hat, cfg.d2)]
    scores = u @ centered
    if cfg.d_hat > 0:
        predictable = u[: cfg.d_hat].T @ scores[: cfg.d_hat]
    else:
        predictable = np.zeros_like(view)
    unpredictable = u[cfg.d1 - 1 : cfg.d2].T @ scores[cfg.d1 - 1 : cfg.d2]
    return Decomposition(predictable=predictable, unpredictable=unpredictable)


@dataclass(frozen=True)
class SweepCell:
    d1: int
    d2: int
    avg_cc: float
    avg_mp: float
    delta_bar: float | None = None


def sweep(
    ul_view: np.ndarray,
    dl_view: np.ndarray,
    basis: PcaBasis,
    d1_grid,
    d2_grid,
    geom: NodeGeometry,
    k: int,
    delta_pairs: int = 0,
    delta_b: int = 1000,
    delta_alpha: float = 0.05,
    seed=0,
) -> list[SweepCell]:
    """Metric grid over unpredictable bands (d1, d2), d1 <= d2 only.

    Per cell: average Pearson CC of the uplink band over each node's ``k``
    nearest neighbors (as :func:`dependence.neighbor_cc` defines it),
    average uplink/downlink mismatch probability, and (when delta_pairs > 0)
    the averaged normalized dependence. Cells are ordered by (d1, d2). Every
    band must lie within the basis's components [1, len(basis.eigenvectors)],
    or a ValueError names the widest one.

    The CC comes in closed form from the PCA scores w = U (view - mean),
    without building the band. The eigenvector rows u_c are orthonormal, so
    node i's band column x_i = sum_c u_c w_ci (c from d1 to d2) has

        x_i . x_j = sum_c w_ci w_cj,    s_i = sum(x_i) = sum_c (u_c . 1) w_ci,

    and with L = 2m coordinates its Pearson CC with x_j is
    (x_i . x_j - s_i s_j / L) / sqrt(var_i var_j), var_i = |x_i|^2 - s_i^2 / L,
    which :func:`dependence.cc_from_moments` computes and averages. For each
    d1 the per-component terms are summed cumulatively from component d1 on,
    and cell (d1, d2) reads row d2 - d1. Differencing prefix sums taken from
    component 1 would subtract the large leading-eigenvalue terms from each
    other and lose the band's digits to cancellation. Only the mismatch
    probability and the dependence level build the band.
    """
    d1s = sorted(set(int(v) for v in d1_grid))
    d2s = sorted(set(int(v) for v in d2_grid))
    if not d1s or not d2s or d1s[0] > d2s[-1]:
        raise ValueError("empty sweep grid: no band with d1 <= d2")
    top = d2s[-1]
    DecompConfig(d_hat=0, d1=d1s[0], d2=top).validate(len(basis.eigenvectors))
    u = basis.eigenvectors[:top]
    w_ul = u @ (np.asarray(ul_view, dtype=np.float64) - basis.mean[:, None])
    w_dl = u @ (np.asarray(dl_view, dtype=np.float64) - basis.mean[:, None])
    table = geom.neighbors(k)
    # per component c: the terms of the band columns' neighbor inner
    # products, squared norms and sums
    terms = (w_ul[:, :, None] * w_ul[:, table], w_ul * w_ul, u.sum(axis=1)[:, None] * w_ul)
    cells = []
    for a in (a for a in d1s if a <= top):
        ends = [b for b in d2s if b >= a]
        rows = [b - a for b in ends]
        ccs = cc_from_moments(*(np.cumsum(t[a - 1 :], axis=0)[rows] for t in terms), table, u.shape[1])
        for b, cc in zip(ends, ccs):
            # built node-major, so avg_mp's per-node rows are contiguous
            band_ul = (w_ul[a - 1 : b].T @ u[a - 1 : b]).T
            band_dl = (w_dl[a - 1 : b].T @ u[a - 1 : b]).T
            mp = avg_mp(band_ul, band_dl).avg_mp
            delta = None
            if delta_pairs > 0:
                delta, _ = avg_neighbor_delta_bar(
                    band_ul, geom, pairs=delta_pairs, alpha=delta_alpha, b=delta_b, seed=seed
                )
            cells.append(SweepCell(d1=a, d2=b, avg_cc=float(cc), avg_mp=mp, delta_bar=delta))
    return cells
