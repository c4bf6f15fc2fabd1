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
from .dependence import avg_neighbor_cc, avg_neighbor_delta_bar
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

    Per cell: average neighbor Pearson CC of the uplink band, average
    uplink/downlink mismatch probability, and (when delta_pairs > 0) the
    averaged normalized dependence. Cells are ordered by (d1, d2).
    """
    d1s = sorted(set(int(v) for v in d1_grid))
    d2s = sorted(set(int(v) for v in d2_grid))
    if not d1s or not d2s:
        raise ValueError("empty sweep grid")
    ul = np.asarray(ul_view, dtype=np.float64)
    dl = np.asarray(dl_view, dtype=np.float64)
    u = basis.eigenvectors
    w_ul = u @ (ul - basis.mean[:, None])
    w_dl = u @ (dl - basis.mean[:, None])
    cells = []
    for a, b in ((a, b) for a in d1s for b in d2s if a <= b):
        band_ul = u[a - 1 : b].T @ w_ul[a - 1 : b]
        band_dl = u[a - 1 : b].T @ w_dl[a - 1 : b]
        cc = avg_neighbor_cc(band_ul, geom, k)
        mp = avg_mp(band_ul, band_dl).avg_mp
        delta = None
        if delta_pairs > 0:
            delta, _ = avg_neighbor_delta_bar(
                band_ul, geom, pairs=delta_pairs, alpha=delta_alpha, b=delta_b, seed=seed
            )
        cells.append(SweepCell(d1=a, d2=b, avg_cc=cc, avg_mp=mp, delta_bar=delta))
    return cells
