"""PCA split of a real-view CSI matrix into a predictable component (top
principal components) and an unpredictable band, dropping the noise-
dominated tail beyond the band.

Works on the (2m, n) real view with nodes as samples and the 2m real
coordinates as features. The basis is fitted once (on Bob's uplink
aggregate) and applied to both link directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import NodeGeometry
# avg_neighbor_cc is not called here any more, but the module keeps its
# binding: the bench harness's self-test checks that its tracer re-binds
# every module's copy of the name, this one included
from .dependence import avg_neighbor_cc, avg_neighbor_delta_bar  # noqa: F401
from .skg import avg_mp


@dataclass(frozen=True)
class PcaBasis:
    """Orthonormal eigenvector rows sorted by descending eigenvalue, plus the
    per-feature mean used for centering."""

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
        return self.eigenvectors.shape[0]


@dataclass(frozen=True)
class DecompConfig:
    d_hat: int  # predictable rank (0 = none)
    d1: int  # unpredictable band start, 1-based
    d2: int  # unpredictable band end, inclusive

    def validate(self, dim: int) -> None:
        if not 0 <= self.d_hat <= dim:
            raise ValueError(f"d_hat={self.d_hat} out of range [0, {dim}]")
        if not 1 <= self.d1 <= self.d2 <= dim:
            raise ValueError(f"band ({self.d1}, {self.d2}) invalid for dimension {dim}")


@dataclass(frozen=True)
class Decomposition:
    predictable: np.ndarray
    unpredictable: np.ndarray
    config: DecompConfig
    basis: PcaBasis


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first nonzero entry of each eigenvector row positive, in
    place; returns ``vectors``."""
    for row in vectors:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return vectors


def fit_pca(view: np.ndarray) -> PcaBasis:
    """Full eigendecomposition of the node-sample covariance of a real view."""
    view = np.asarray(view, dtype=np.float64)
    if view.ndim != 2 or view.shape[1] < 2:
        raise ValueError("insufficient samples: need a (features, nodes) view with >= 2 nodes")
    mean = view.mean(axis=1)
    centered = view - mean[:, None]
    cov = centered @ centered.T / (view.shape[1] - 1)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    vectors = _fix_signs(evecs[:, order].T.copy())
    return PcaBasis(eigenvectors=vectors, eigenvalues=evals, mean=mean)


def decompose(view: np.ndarray, basis: PcaBasis, cfg: DecompConfig) -> Decomposition:
    """Project the centered view onto the predictable and unpredictable bands.

    predictable = top-d_hat reconstruction, unpredictable = components
    d1..d2 (1-based, inclusive); everything beyond d2 is discarded.
    """
    view = np.asarray(view, dtype=np.float64)
    dim = basis.dim
    if view.shape[0] != dim:
        raise ValueError(f"view has {view.shape[0]} features, basis expects {dim}")
    cfg.validate(dim)
    centered = view - basis.mean[:, None]
    u = basis.eigenvectors
    scores = u @ centered
    if cfg.d_hat > 0:
        predictable = u[: cfg.d_hat].T @ scores[: cfg.d_hat]
    else:
        predictable = np.zeros_like(view)
    unpredictable = u[cfg.d1 - 1 : cfg.d2].T @ scores[cfg.d1 - 1 : cfg.d2]
    return Decomposition(predictable=predictable, unpredictable=unpredictable, config=cfg, basis=basis)


@dataclass(frozen=True)
class SweepCell:
    d1: int
    d2: int
    avg_cc: float
    avg_mp: float
    delta_bar: float | None = None


def _neighbor_cc(dots, squares, sums, table: np.ndarray, length: int) -> np.ndarray:
    """Mean Pearson CC over the (node, neighbor) pairs of ``table``, one per
    band, from each band's column inner products with the neighbors'
    (bands, n, k) and its column squared norms and sums (bands, n)."""
    var = squares - sums * sums / length
    if np.any(var <= 0.0):
        raise ValueError("zero-variance sequence")
    cov = dots - sums[:, :, None] * sums[:, table] / length
    norm = np.sqrt(var)
    return (cov / (norm[:, :, None] * norm[:, table])).reshape(len(cov), -1).mean(axis=1)


def sweep(
    ul_view: np.ndarray,
    dl_view: np.ndarray,
    basis: PcaBasis,
    d1_grid,
    d2_grid,
    geom: NodeGeometry,
    k: int | None = None,
    delta_pairs: int = 0,
    delta_b: int = 1000,
    delta_alpha: float = 0.05,
    seed=0,
) -> list[SweepCell]:
    """Metric grid over unpredictable bands (d1, d2), d1 <= d2 only.

    Per cell: average neighbor Pearson CC of the uplink band (as
    ``avg_neighbor_cc`` defines it), average uplink/downlink mismatch
    probability, and (when delta_pairs > 0) the averaged normalized
    dependence. Cells are ordered by (d1, d2). Every band must lie in
    [1, basis.dim], or a ValueError names the widest one.

    The CC comes in closed form from the PCA scores w = U (view - mean),
    without building the band. The eigenvector rows u_c are orthonormal, so
    node i's band column x_i = sum_c u_c w_ci (c from d1 to d2) has

        x_i . x_j = sum_c w_ci w_cj,    s_i = sum(x_i) = sum_c (u_c . 1) w_ci,

    and with L = 2m coordinates its Pearson CC with x_j is
    (x_i . x_j - s_i s_j / L) / sqrt(var_i var_j), var_i = |x_i|^2 - s_i^2 / L.
    For each d1 the per-component terms are summed cumulatively from
    component d1 on, and cell (d1, d2) reads row d2 - d1. Differencing prefix
    sums taken from component 1 would subtract the large leading-eigenvalue
    terms from each other and lose the band's digits to cancellation. Only
    the mismatch probability and the dependence level build the band.
    """
    d1s = sorted(set(int(v) for v in d1_grid))
    d2s = sorted(set(int(v) for v in d2_grid))
    if not d1s or not d2s or d1s[0] > d2s[-1]:
        raise ValueError("empty sweep grid: no band with d1 <= d2")
    top = d2s[-1]
    DecompConfig(d_hat=0, d1=d1s[0], d2=top).validate(basis.dim)
    u = basis.eigenvectors[:top]
    w_ul = u @ (np.asarray(ul_view, dtype=np.float64) - basis.mean[:, None])
    w_dl = u @ (np.asarray(dl_view, dtype=np.float64) - basis.mean[:, None])
    table = geom.neighbors(geom.k if k is None else k)
    # per component c: the terms of the band columns' neighbor inner
    # products, squared norms and sums
    terms = (w_ul[:, :, None] * w_ul[:, table], w_ul * w_ul, u.sum(axis=1)[:, None] * w_ul)
    cells = []
    for a in (a for a in d1s if a <= top):
        ends = [b for b in d2s if b >= a]
        rows = [b - a for b in ends]
        ccs = _neighbor_cc(*(np.cumsum(t[a - 1 :], axis=0)[rows] for t in terms), table, u.shape[1])
        for b, cc in zip(ends, ccs):
            band_ul = u[a - 1 : b].T @ w_ul[a - 1 : b]
            band_dl = u[a - 1 : b].T @ w_dl[a - 1 : b]
            mp = avg_mp(band_ul, band_dl).avg_mp
            delta = None
            if delta_pairs > 0:
                delta, _ = avg_neighbor_delta_bar(
                    band_ul, geom, pairs=delta_pairs, alpha=delta_alpha, b=delta_b, seed=seed
                )
            cells.append(SweepCell(d1=a, d2=b, avg_cc=float(cc), avg_mp=mp, delta_bar=delta))
    return cells
