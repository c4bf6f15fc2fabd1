"""Kernel-PCA decomposition of complex CSI columns.

The Gram matrix uses a Gaussian kernel on complex M-vectors that
conjugates its second argument,

    K_ij = exp(-||h_i - conj(h_j)||^2 / (2 sigma^2)),

which is symmetric for any complex input because norms are invariant
under conjugation (||h_j - conj(h_i)|| = ||h_i - conj(h_j)||). Its cross
term comes from one BLAS ?syrk on Re h and one on Im h, whose upper
triangle is mirrored: the Gram is exactly symmetric by construction.
A --kernel-variant switch selects the plain ||h_i - h_j|| kernel for
comparison. For complex columns the conjugate kernel is not positive
semi-definite: its centered Gram has negative eigenvalues (on a 4x4, m=16
uplink the trace/N is 0.0479, below the top two eigenvalues' 0.0716), and
the fit clips them to zero.

sigma is dependence.median_bandwidth of the ||.||^2 and enters as 2 sigma^2;
dependence's sigma^2 differs on purpose: one would move outputs. Columns
that all coincide have no bandwidth, and the fit raises.

The fit solves only for the top d_hat eigenpairs, by implicitly restarted
Lanczos (ARPACK's eigsh; Lehoucq, Sorensen & Yang, 1998) at machine
precision; its start vector (uniform on [-1, 1]; not ones, which the
centered Gram maps to 0) and its restarts draw from one fixed generator,
so a fit repeats bit for bit. The centered Gram is exactly symmetric, so
Lanczos, reading both triangles, sees the matrix a dense solver reads from
one. It keeps the centered Gram's trace.
Predictable components are rebuilt by kernel ridge regression from the
projection scores (no iterative pre-image): the kept Cholesky factor
of K_Y + gamma I, gamma a fit parameter, gives the ?pocon 1-norm condition
estimate, truncated toward zero to 6 significant digits as its last bits
vary between runs on one LAPACK build. As (K_Y + gamma I)^-1 K_Y =
I - gamma (K_Y + gamma I)^-1, a decomposition is H - gamma X^T, X the
factor's solve on the 2m real columns of H^T; the unpredictable part is
the exact residual (no tail-truncation denoising).
"""

from __future__ import annotations

import decimal
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

#: the condition estimate keeps 6 significant digits, truncated toward zero
_CONDITION_DIGITS = decimal.Context(prec=6, rounding=decimal.ROUND_DOWN)


@dataclass(frozen=True)
class GramMatrix:
    k: np.ndarray
    bandwidth_sigma: float

    def __post_init__(self):
        arr = np.asarray(self.k, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "k", arr)


@dataclass(frozen=True)
class KpcaDiagnostics:
    bandwidth_sigma: float
    score_bandwidth: float
    gamma: float
    condition_estimate: float


@dataclass(frozen=True)
class KpcaModel:
    alphas: np.ndarray  # (n, d_hat), column i = V_i / sqrt(lambda_i)
    eigenvalues: np.ndarray  # the d_hat retained, descending, of the (1/N)-scaled problem
    eigenvalue_sum: float  # trace of the (1/N)-scaled centered Gram: all n eigenvalues, negative ones too
    factor: tuple[np.ndarray, bool]  # cho_factor's (c, lower) of K_Y + gamma I
    shape: tuple[int, int]  # (m, n) of the columns the model was fitted on
    diagnostics: KpcaDiagnostics


def _pairwise_sq_dists(columns: np.ndarray, variant: str) -> np.ndarray:
    """Exactly symmetric squared distances between columns by the norm expansion, clipped at 0."""
    if variant not in KERNEL_VARIANTS:
        raise ValueError(f"kernel variant must be one of {KERNEL_VARIANTS}")
    from scipy.linalg.blas import dsyrk
    h = np.asarray(columns)
    norms = np.sum(np.abs(h) ** 2, axis=0).real
    cross = dsyrk(1.0, h.real.T)  # upper triangle of Re^T Re, zeros below
    if np.iscomplexobj(h):  # Re(h_i . h_j) = <h_i, conj(h_j)> for conjugate, Re<h_i, h_j> for standard
        cross = dsyrk(-1.0 if variant == "conjugate" else 1.0, h.imag.T, beta=1.0, c=cross, overwrite_c=True)
    cross += np.triu(cross, 1).T
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
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    return GramMatrix(k=np.exp(-d2 / (2.0 * sigma * sigma)), bandwidth_sigma=float(sigma))


def center_gram(k: np.ndarray) -> np.ndarray:
    """K - (1/N) 1K - (1/N) K1 + (1/N^2) 1K1 of a symmetric K, its one vector
    of means in one symmetric sum: exactly symmetric, zero row/column sums."""
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ValueError("Gram matrix must be square")
    means = k.mean(axis=0)
    return k - (means[:, None] + means[None, :]) + k.mean()


def fit_kpca(
    csi: CsiMatrix, d_hat: int, sigma: float | None = None, variant: str = "conjugate", gamma: float | None = None
) -> KpcaModel:
    """Solve the centered-Gram eigenproblem K~ a = N lambda a, retain the
    top d_hat components as scaled eigenvectors, and factor the ridge system
    of :func:`decompose_kpca` on the training columns' projection scores."""
    h = csi.data
    n = h.shape[1]
    if not 1 <= d_hat <= n - 1:
        raise ValueError(f"d_hat must lie in [1, {n - 1}]")
    if gamma is not None and not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"ridge gamma must be finite and positive, got {gamma}")
    from scipy.sparse.linalg import eigsh  # imported here: no other command should pay its import time
    gram = gaussian_gram(h, sigma=sigma, variant=variant)
    centered = center_gram(gram.k)
    bandwidth = gram.bandwidth_sigma
    del gram
    rng = np.random.default_rng(0)  # the start vector and every restart: a fit repeats bit for bit
    evals, evecs = eigsh(centered, k=d_hat, which="LA", tol=0, v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    lambdas = np.clip(evals[::-1] / n, 0.0, None)
    rank = int(np.sum(lambdas > EIGENVALUE_FLOOR))  # min(d_hat, rank): the rest are below the floor
    if d_hat > rank:
        warnings.warn(f"d_hat={d_hat} exceeds numerical rank {rank}; truncating", RuntimeWarning)
        d_hat = rank
    alphas = _fix_signs(evecs[:, ::-1][:, :d_hat].T).T / np.sqrt(lambdas[:d_hat])[None, :]
    scores = alphas.T @ centered
    eigenvalue_sum = float(np.trace(centered)) / n
    del centered  # the n x n centered Gram goes before the ridge allocates its own
    factor, score_sigma, gamma, condition = _ridge_factor(scores, gamma)
    return KpcaModel(
        alphas=alphas,
        eigenvalues=lambdas[:d_hat],
        eigenvalue_sum=eigenvalue_sum,
        factor=factor,
        shape=h.shape,
        diagnostics=KpcaDiagnostics(
            bandwidth_sigma=bandwidth,
            score_bandwidth=score_sigma,
            gamma=gamma,
            condition_estimate=condition,
        ),
    )


def default_gamma(k_scores: np.ndarray) -> float:
    """Scale-aware ridge default: 1e-3 * trace(K_Y) / N."""
    return 1e-3 * float(np.trace(k_scores)) / k_scores.shape[0]


def _ridge_factor(y: np.ndarray, gamma: float | None) -> tuple[tuple[np.ndarray, bool], float, float, float]:
    """``cho_factor``'s (c, lower) of K_Y + gamma I, where K_Y is the real
    Gaussian Gram over the score columns y (its own median bandwidth); also
    the score bandwidth, gamma and the ?pocon 1-norm condition estimate of
    K_Y + gamma I from that factor."""
    from scipy import linalg
    d2 = _pairwise_sq_dists(y, "standard")
    score_sigma = median_bandwidth(d2)
    if math.isnan(score_sigma):
        raise ValueError("degenerate bandwidth: every projection score coincides")
    regularized = np.exp(-d2 / (2.0 * score_sigma * score_sigma))
    del d2
    if gamma is None:
        gamma = default_gamma(regularized)
    regularized.flat[:: regularized.shape[0] + 1] += gamma
    norm = np.linalg.norm(regularized, 1)
    try:
        factor = linalg.cho_factor(regularized.T, overwrite_a=True)  # .T is F-ordered: factored in place
    except linalg.LinAlgError:
        raise ValueError(f"ridge gamma={gamma:.3g} is too small: the score Gram is singular") from None
    rcond, _ = linalg.lapack.dpocon(factor[0], norm, uplo="L" if factor[1] else "U")
    condition = float(_CONDITION_DIGITS.create_decimal(1.0 / rcond)) if rcond > 0 else math.inf
    if condition > 1e12:
        warnings.warn(f"ill-conditioned ridge system (condition ~ {condition:.3g})", RuntimeWarning)
    return factor, score_sigma, float(gamma), condition


def decompose_kpca(model: KpcaModel, csi: CsiMatrix) -> tuple[CsiMatrix, CsiMatrix]:
    """Predictable part H_hat = H (K_Y + gamma I)^-1 K_Y = H - gamma X^T, X the
    fitted factor's solve on [Re H^T | Im H^T], plus the exact residual H - H_hat."""
    from scipy import linalg
    h = csi.data
    if h.shape != model.shape:
        raise ValueError("matrix shape differs from the fitted columns")
    m = h.shape[0]
    x = linalg.cho_solve(model.factor, np.hstack([h.real.T, h.imag.T]))
    predictable = h - model.diagnostics.gamma * (x[:, :m] + 1j * x[:, m:]).T
    return (
        CsiMatrix(predictable, direction=csi.direction, snr_db=csi.snr_db),
        CsiMatrix(h - predictable, direction=csi.direction, snr_db=csi.snr_db),
    )
