"""Kernel-PCA decomposition of complex CSI columns.

The Gram matrix uses a Gaussian kernel on complex M-vectors that
conjugates its second argument,

    K_ij = exp(-||h_i - conj(h_j)||^2 / (2 sigma^2)),

which is symmetric for any complex input because norms are invariant
under conjugation (||h_j - conj(h_i)|| = ||h_i - conj(h_j)||). The matrix
is nevertheless symmetrized explicitly and the asymmetry norm reported,
so any future kernel variant stays eigensolver-safe. A --kernel-variant
switch selects the plain ||h_i - h_j|| kernel for comparison.

sigma is dependence.median_bandwidth of the ||.||^2 and enters as 2 sigma^2;
dependence's sigma^2 differs on purpose: one would move outputs. Columns
that all coincide have no bandwidth, and the fit raises.

Predictable components are rebuilt by kernel ridge regression from the
projection scores (no iterative pre-image): the fit solves once for the
n x n ridge map (K_Y + gamma I)^-1 K_Y, with the ridge gamma a fit
parameter, and a decomposition is one product with that map; the
unpredictable part is the exact residual. No tail-truncation denoising
happens on this path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import CsiMatrix
from .dependence import median_bandwidth
from .pca import _fix_signs

KERNEL_VARIANTS = ("conjugate", "standard")

#: eigenvalues of the scaled Gram below this are treated as numerically zero
EIGENVALUE_FLOOR = 1e-12


@dataclass(frozen=True)
class GramMatrix:
    k: np.ndarray
    bandwidth_sigma: float
    asymmetry_norm: float

    def __post_init__(self):
        arr = np.asarray(self.k, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)


@dataclass(frozen=True)
class KpcaDiagnostics:
    asymmetry_norm: float
    bandwidth_sigma: float
    score_bandwidth: float
    gamma: float
    condition_estimate: float


@dataclass(frozen=True)
class KpcaModel:
    alphas: np.ndarray  # (n, d_hat), column i = V_i / sqrt(lambda_i)
    eigenvalues: np.ndarray  # descending, of the (1/N)-scaled problem
    ridge_map: np.ndarray  # (n, n) = (K_Y + gamma I)^-1 K_Y
    shape: tuple[int, int]  # (m, n) of the columns the model was fitted on
    diagnostics: KpcaDiagnostics


def _pairwise_sq_dists(columns: np.ndarray, variant: str) -> np.ndarray:
    h = np.asarray(columns, dtype=np.complex128)
    norms = np.sum(np.abs(h) ** 2, axis=0).real
    if variant == "conjugate":
        cross = (h.T @ h).real  # Re(h_i . h_j) = <h_i, conj(h_j)>
    elif variant == "standard":
        cross = (h.conj().T @ h).real
    else:
        raise ValueError(f"kernel variant must be one of {KERNEL_VARIANTS}")
    d2 = norms[:, None] + norms[None, :] - 2.0 * cross
    return np.maximum(d2, 0.0)


def gaussian_gram(columns: np.ndarray, sigma: float | None = None, variant: str = "conjugate") -> GramMatrix:
    """Gram matrix of the complex Gaussian kernel over CSI columns."""
    h = np.asarray(columns, dtype=np.complex128)
    if h.ndim != 2 or h.shape[1] < 2:
        raise ValueError("need a (m, n) column matrix with n >= 2")
    d2 = _pairwise_sq_dists(h, variant)
    if sigma is None:
        sigma = median_bandwidth(d2)
        if math.isnan(sigma):
            raise ValueError("degenerate bandwidth: every column coincides")
    if sigma <= 0:
        raise ValueError("bandwidth must be positive")
    k = np.exp(-d2 / (2.0 * sigma * sigma))
    asym = float(np.linalg.norm(k - k.T))
    k = 0.5 * (k + k.T)
    return GramMatrix(k=k, bandwidth_sigma=float(sigma), asymmetry_norm=asym)


def center_gram(k: np.ndarray) -> np.ndarray:
    """K - (1/N) 1K - (1/N) K1 + (1/N^2) 1K1; zero row/column sums after."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("Gram matrix must be square")
    row = k.mean(axis=0, keepdims=True)
    col = k.mean(axis=1, keepdims=True)
    return k - row - col + k.mean()


def fit_kpca(
    csi: CsiMatrix, d_hat: int, sigma: float | None = None, variant: str = "conjugate", gamma: float | None = None
) -> KpcaModel:
    """Solve the centered-Gram eigenproblem K~ a = N lambda a, retain the
    top d_hat components as scaled eigenvectors, and fit the ridge map of
    :func:`decompose_kpca` on the training columns' projection scores."""
    h = csi.data
    n = h.shape[1]
    if not 1 <= d_hat <= n - 1:
        raise ValueError(f"d_hat must lie in [1, {n - 1}]")
    if gamma is not None and gamma <= 0:
        raise ValueError("ridge gamma must be positive")
    gram = gaussian_gram(h, sigma=sigma, variant=variant)
    centered = center_gram(gram.k)
    bandwidth, asymmetry = gram.bandwidth_sigma, gram.asymmetry_norm
    del gram
    evals, evecs = np.linalg.eigh(centered)
    order = np.argsort(evals)[::-1]
    lambdas = np.clip(evals[order] / n, 0.0, None)
    rank = int(np.sum(lambdas > EIGENVALUE_FLOOR))
    if d_hat > rank:
        warnings.warn(f"d_hat={d_hat} exceeds numerical rank {rank}; truncating", RuntimeWarning)
        d_hat = rank
    top = _fix_signs(evecs[:, order[:d_hat]].T).T
    del evecs
    alphas = top / np.sqrt(lambdas[:d_hat])[None, :]
    scores = alphas.T @ centered
    del centered  # the n x n eigenproblem arrays go before the ridge allocates its own
    ridge_map, score_sigma, gamma, condition = _ridge_map(scores, gamma)
    return KpcaModel(
        alphas=alphas,
        eigenvalues=lambdas,
        ridge_map=ridge_map,
        shape=h.shape,
        diagnostics=KpcaDiagnostics(
            asymmetry_norm=asymmetry,
            bandwidth_sigma=bandwidth,
            score_bandwidth=score_sigma,
            gamma=gamma,
            condition_estimate=condition,
        ),
    )


def default_gamma(k_scores: np.ndarray) -> float:
    """Scale-aware ridge default: 1e-3 * trace(K_Y) / N."""
    return 1e-3 * float(np.trace(k_scores)) / k_scores.shape[0]


def _ridge_map(y: np.ndarray, gamma: float | None) -> tuple[np.ndarray, float, float, float]:
    """(K_Y + gamma I)^-1 K_Y, where K_Y is the real Gaussian Gram over the
    score columns y (its own median bandwidth), solved as an SPD system and
    never by explicit inverse; also the score bandwidth, gamma and the
    condition estimate of K_Y + gamma I."""
    # imported here: only the kpca fit needs scipy.linalg, and every other
    # command would pay its import time
    from scipy import linalg

    sq = np.sum(y * y, axis=0)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y.T @ y), 0.0)
    score_sigma = median_bandwidth(d2)
    if math.isnan(score_sigma):
        raise ValueError("degenerate bandwidth: every projection score coincides")
    k_scores = np.exp(-d2 / (2.0 * score_sigma * score_sigma))
    del d2
    if gamma is None:
        gamma = default_gamma(k_scores)
    regularized = k_scores.copy()
    regularized.flat[:: k_scores.shape[0] + 1] += gamma
    eigs = np.linalg.eigvalsh(regularized)
    condition = float(eigs[-1] / eigs[0]) if eigs[0] > 0 else math.inf
    if condition > 1e12:
        warnings.warn(f"ill-conditioned ridge system (condition ~ {condition:.3g})", RuntimeWarning)
    ridge_map = linalg.solve(regularized, k_scores, assume_a="pos", overwrite_a=True)
    return ridge_map, score_sigma, float(gamma), condition


def decompose_kpca(model: KpcaModel, csi: CsiMatrix) -> tuple[CsiMatrix, CsiMatrix]:
    """Predictable part H_hat = H (K_Y + gamma I)^-1 K_Y with the fitted
    ridge map, plus the exact residual H - H_hat."""
    h = csi.data
    if h.shape != model.shape:
        raise ValueError("matrix shape differs from the fitted columns")
    predictable = h @ model.ridge_map
    return (
        CsiMatrix(predictable, direction=csi.direction, snr_db=csi.snr_db),
        CsiMatrix(h - predictable, direction=csi.direction, snr_db=csi.snr_db),
    )
