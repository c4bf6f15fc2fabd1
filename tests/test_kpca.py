import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

from csisplit import kpca
from csisplit.core import CsiMatrix, to_real_view
from csisplit.dependence import median_bandwidth
from csisplit.kpca import center_gram, decompose_kpca, fit_kpca, gaussian_gram
from csisplit.pca import _fix_signs, fit_pca


def oracle_gram(cols, sigma, variant="conjugate"):
    n = cols.shape[1]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            other = np.conj(cols[:, j]) if variant == "conjugate" else cols[:, j]
            k[i, j] = math.exp(-float(np.sum(np.abs(cols[:, i] - other) ** 2)) / (2.0 * sigma**2))
    return k


def _random_columns(rng, m=6, n=5):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def test_gram_identical_real_columns():
    col = np.array([1.0, -2.0, 0.5])
    cols = np.column_stack([col, col, col + 1.0])
    k, _ = gaussian_gram(cols.astype(complex))
    assert k[0, 1] == pytest.approx(1.0)


def test_gram_e_minus_one_at_one_bandwidth():
    a = np.array([0.0, 0.0], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex)
    # ||a - b*||^2 = 2; choose sigma so that 2 sigma^2 = 2
    k, _ = gaussian_gram(np.column_stack([a, b, 2 * b]), sigma=1.0)
    assert k[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_gram_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    cols = _random_columns(rng)
    for variant in ("conjugate", "standard"):
        k, _ = gaussian_gram(cols, sigma=1.3, variant=variant)
        expected = oracle_gram(cols, 1.3, variant)
        assert np.max(np.abs(k - expected)) <= 1e-12


@pytest.mark.parametrize("variant", kpca.KERNEL_VARIANTS)
def test_gram_is_exactly_symmetric(variant):
    rng = np.random.default_rng(1)
    k, _ = gaussian_gram(_random_columns(rng, m=7, n=40), variant=variant)
    assert np.array_equal(k, k.T)
    centered = center_gram(k)
    assert np.array_equal(centered, centered.T)


def test_gram_median_bandwidth_matches_oracle():
    rng = np.random.default_rng(2)
    cols = _random_columns(rng, m=4, n=6)
    _, sigma = gaussian_gram(cols)
    d2 = []
    for i in range(6):
        for j in range(i + 1, 6):
            d2.append(float(np.sum(np.abs(cols[:, i] - np.conj(cols[:, j])) ** 2)))
    assert sigma == pytest.approx(math.sqrt(np.median(d2) / 2.0), rel=1e-12)


def test_gram_convention_is_two_sigma_squared_at_the_median_bandwidth():
    # kpca's convention; dependence.gaussian_gram_1d divides by sigma^2 on purpose
    rng = np.random.default_rng(3)
    cols = _random_columns(rng, m=5, n=9)
    d2 = np.array([[float(np.sum(np.abs(a - np.conj(b)) ** 2)) for b in cols.T] for a in cols.T])
    sigma = math.sqrt(np.median(d2[np.triu_indices(9, k=1)]) / 2.0)
    k, bandwidth = gaussian_gram(cols)
    assert bandwidth == pytest.approx(sigma, rel=1e-12)
    assert np.allclose(k, np.exp(-d2 / (2.0 * sigma**2)), rtol=0.0, atol=1e-12)


def test_gram_degenerate_bandwidth_error():
    col = np.array([1.0, 2.0], dtype=complex)  # real-valued: conj is identity
    cols = np.column_stack([col, col, col])
    with pytest.raises(ValueError, match="degenerate bandwidth"):
        gaussian_gram(cols)


def test_gram_bandwidth_with_more_than_half_coincident_columns():
    # 6 of the 10 column pairs coincide, so the median squared distance is 0;
    # the bandwidth comes from the positive ones, which are all 8
    col = np.array([1.0, 2.0], dtype=complex)  # real-valued: conj is identity
    cols = np.column_stack([col, col, col, col, col + 2.0])
    k, sigma = gaussian_gram(cols)
    d2 = np.array([[float(np.sum(np.abs(a - b) ** 2)) for b in cols.T] for a in cols.T])
    assert np.median(d2[np.triu_indices(5, k=1)]) == 0.0
    assert sigma == 2.0
    assert np.array_equal(k, np.exp(-d2 / 8.0))


def test_gram_psd_on_real_inputs():
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((5, 12)).astype(complex)
    k, _ = gaussian_gram(cols)
    assert np.linalg.eigvalsh(k).min() >= -1e-8


def test_center_gram_all_ones_to_zero():
    assert np.max(np.abs(center_gram(np.ones((4, 4))))) == 0.0


def test_center_gram_zero_row_col_sums_and_hkh():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4))
    k = a + a.T
    centered = center_gram(k)
    assert np.max(np.abs(centered.sum(axis=0))) <= 1e-8
    assert np.max(np.abs(centered.sum(axis=1))) <= 1e-8
    h = np.eye(4) - np.ones((4, 4)) / 4.0
    assert np.max(np.abs(centered - h @ k @ h)) <= 1e-12


def _full_spectrum(cols, sigma=None):
    """Every eigenvalue of the (1/N)-scaled centered Gram, descending."""
    return np.linalg.eigvalsh(center_gram(gaussian_gram(cols, sigma=sigma)[0]))[::-1] / cols.shape[1]


def test_fit_two_columns_single_component():
    cols = np.column_stack([np.array([0.0, 1.0]), np.array([2.0, -1.0])]).astype(complex)
    model = fit_kpca(CsiMatrix(cols), d_hat=1)
    lam = _full_spectrum(cols)
    assert model.eigenvalues == pytest.approx(lam[:1], rel=1e-12)
    assert lam[0] > 1e-8
    assert np.all(lam[1:] <= 1e-10)


@pytest.mark.parametrize("d_hat", [1, 3])
def test_fit_top_pairs_match_the_full_eigendecomposition(d_hat):
    rng = np.random.default_rng(16)
    cols = _random_columns(rng, m=6, n=30)
    model = fit_kpca(CsiMatrix(cols), d_hat=d_hat)
    evals, evecs = np.linalg.eigh(center_gram(gaussian_gram(cols)[0]))
    lam = evals[::-1] / 30
    vectors = _fix_signs(evecs[:, ::-1][:, :d_hat].T).T
    tol = 1e-12 * lam[0]
    assert model.eigenvalues.shape == (d_hat,)
    assert np.max(np.abs(model.eigenvalues - lam[:d_hat])) <= tol
    assert np.max(np.abs(model.alphas * np.sqrt(model.eigenvalues) - vectors)) <= tol
    # the trace: every eigenvalue, negative ones of the indefinite conjugate kernel too
    assert model.eigenvalue_sum == pytest.approx(lam.sum(), rel=1e-12)


@pytest.mark.parametrize("variant", kpca.KERNEL_VARIANTS)
def test_fit_of_every_top_pair_matches_the_full_eigendecomposition(variant):
    # d_hat = n - 1, the widest the Lanczos solver takes; the conjugate
    # kernel's negative eigenvalues are clipped, so its fit truncates
    cols = _random_columns(np.random.default_rng(20), m=6, n=16)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "d_hat=15 exceeds numerical rank", RuntimeWarning)
        model = fit_kpca(CsiMatrix(cols), d_hat=15, variant=variant)
    evals, evecs = np.linalg.eigh(center_gram(gaussian_gram(cols, variant=variant)[0]))
    lam = evals[::-1] / 16
    d_hat = len(model.eigenvalues)
    assert d_hat == (15 if variant == "standard" else int(np.sum(lam > kpca.EIGENVALUE_FLOOR)))
    vectors = _fix_signs(evecs[:, ::-1][:, :d_hat].T).T
    tol = 1e-12 * lam[0]
    assert np.max(np.abs(model.eigenvalues - lam[:d_hat])) <= tol
    assert np.max(np.abs(model.alphas * np.sqrt(model.eigenvalues) - vectors)) <= tol


def test_fit_of_a_repeated_top_eigenvalue_matches_the_full_eigendecomposition():
    # 12 points evenly spaced on a circle: a circulant Gram, whose top
    # eigenvalue after centring is double; its eigenvectors are fixed only
    # up to a rotation, so the retained span is compared as a projector
    n = 12
    cols = np.exp(2j * np.pi * np.arange(n) / n)[None, :]
    model = fit_kpca(CsiMatrix(cols), d_hat=2, variant="standard")
    evals, evecs = np.linalg.eigh(center_gram(gaussian_gram(cols, variant="standard")[0]))
    lam = evals[::-1] / n
    tol = 1e-12 * lam[0]
    assert lam[0] - lam[1] <= tol < lam[1] - lam[2]
    assert np.max(np.abs(model.eigenvalues - lam[:2])) <= tol
    vectors = model.alphas * np.sqrt(model.eigenvalues)
    assert np.max(np.abs(vectors @ vectors.T - evecs[:, -2:] @ evecs[:, -2:].T)) <= tol


def test_two_fits_in_one_process_are_identical():
    csi = CsiMatrix(_random_columns(np.random.default_rng(21), m=6, n=300))
    first, second = fit_kpca(csi, d_hat=3), fit_kpca(csi, d_hat=3)
    for name in ("alphas", "eigenvalues"):
        assert np.array_equal(getattr(first, name), getattr(second, name)), name
    assert np.array_equal(first.factor[0], second.factor[0]) and first.factor[1] == second.factor[1]
    assert first.diagnostics == second.diagnostics
    assert np.array_equal(decompose_kpca(first, csi).predictable, decompose_kpca(second, csi).predictable)


def test_fit_eigen_identity_holds():
    rng = np.random.default_rng(5)
    csi = CsiMatrix(_random_columns(rng, m=5, n=10))
    model = fit_kpca(csi, d_hat=3)
    centered = center_gram(gaussian_gram(csi.data)[0])
    n = 10
    for i in range(3):
        lhs = centered @ model.alphas[:, i]
        rhs = n * model.eigenvalues[i] * model.alphas[:, i]
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * n * model.eigenvalues[i]


def test_fit_low_rank_line_concentrates_mass():
    rng = np.random.default_rng(6)
    direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cols = np.outer(direction, np.linspace(0.0, 0.02, 15))
    cols = cols + direction[:, None]  # keep columns distinct but clustered
    with pytest.warns(RuntimeWarning, match="d_hat=2 exceeds numerical rank 1; truncating"):
        model = fit_kpca(CsiMatrix(cols), d_hat=2, sigma=50.0)
    lam = np.clip(_full_spectrum(cols, sigma=50.0), 0.0, None)
    assert model.eigenvalues == pytest.approx(lam[:1], rel=1e-12)
    assert lam[0] / lam.sum() >= 0.99


def _low_rank_line(n):
    rng = np.random.default_rng(6)
    direction = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return np.outer(direction, np.linspace(0.0, 0.02, n)) + direction[:, None]


def _repeated_columns(n):
    return np.repeat(_random_columns(np.random.default_rng(22), m=2, n=3), n // 3, axis=1)


@pytest.mark.parametrize(
    "columns, sigma, variant, rank",
    [(_low_rank_line(200), 50.0, "conjugate", 1), (_repeated_columns(300), None, "standard", 2)],
    ids=["line-200", "repeated-300"],
)
def test_fit_past_the_numerical_rank_truncates_at_an_iterating_size(columns, sigma, variant, rank):
    # n >= 200 against eigsh's 20 Lanczos vectors for d_hat=5: the Krylov
    # space is not the whole space, and the pairs past the rank have Ritz
    # values near zero, where tol=0 asks for the most of the iteration; the
    # standard kernel's Gram of 3 distinct columns has an exact null space
    n = columns.shape[1]
    with pytest.warns(RuntimeWarning, match=f"d_hat=5 exceeds numerical rank {rank}; truncating"):
        model = fit_kpca(CsiMatrix(columns), d_hat=5, sigma=sigma, variant=variant)
    evals, evecs = np.linalg.eigh(center_gram(gaussian_gram(columns, sigma=sigma, variant=variant)[0]))
    lam = evals[::-1] / n
    vectors = _fix_signs(evecs[:, ::-1][:, :rank].T).T
    assert model.eigenvalues.shape == (rank,)
    assert np.max(np.abs(model.eigenvalues - lam[:rank])) <= 1e-12 * lam[0]
    # the line's lambda_0 is 7e-8: the unit eigenvectors take 1e-12 itself
    assert np.max(np.abs(model.alphas * np.sqrt(model.eigenvalues) - vectors)) <= 1e-12


def test_fit_truncates_beyond_numerical_rank():
    col_a = np.array([1.0, 2.0], dtype=complex)
    col_b = np.array([-1.0, 0.5], dtype=complex)
    col_c = np.array([3.0, -2.0], dtype=complex)
    cols = np.column_stack([col_a, col_a, col_b, col_b, col_c])
    with pytest.warns(RuntimeWarning, match="numerical rank"):
        model = fit_kpca(CsiMatrix(cols), d_hat=4)
    assert model.alphas.shape[1] < 4
    assert np.all(np.isfinite(model.alphas))


def test_fit_scores_have_zero_mean():
    rng = np.random.default_rng(7)
    csi = CsiMatrix(_random_columns(rng, m=6, n=12))
    model = fit_kpca(csi, d_hat=4)
    scores = model.alphas.T @ center_gram(gaussian_gram(csi.data)[0])
    assert np.max(np.abs(scores.mean(axis=1))) <= 1e-8


def test_reconstruct_ridge_shrinkage_limit():
    rng = np.random.default_rng(8)
    csi = CsiMatrix(_random_columns(rng, m=5, n=10))
    pred6, _ = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e6), csi)
    pred8, _ = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e8), csi)
    assert np.linalg.norm(pred6) < 1e-3 * np.linalg.norm(to_real_view(csi))
    ratio = np.linalg.norm(pred8) / np.linalg.norm(pred6)
    assert ratio == pytest.approx(1e-2, rel=1e-2)


def test_reconstruct_near_interpolation():
    rng = np.random.default_rng(9)
    csi = CsiMatrix(_random_columns(rng, m=6, n=12))
    with pytest.warns(RuntimeWarning, match="numerical rank"):
        model = fit_kpca(csi, d_hat=11, gamma=1e-8)  # truncates to the kernel rank
    pred, _ = decompose_kpca(model, csi)
    view = to_real_view(csi)
    rel = np.linalg.norm(view - pred) / np.linalg.norm(view)
    assert rel <= 0.05
    assert model.diagnostics.gamma == 1e-8


def test_reconstruct_gamma_validation():
    rng = np.random.default_rng(10)
    csi = CsiMatrix(_random_columns(rng, m=4, n=8))
    with pytest.raises(ValueError, match="gamma"):
        fit_kpca(csi, d_hat=2, gamma=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_sigma_and_gamma_must_be_finite_and_positive(value):
    csi = CsiMatrix(_random_columns(np.random.default_rng(10), m=4, n=8))
    with pytest.raises(ValueError, match="sigma"):
        gaussian_gram(csi.data, sigma=value)
    with pytest.raises(ValueError, match="sigma"):
        fit_kpca(csi, d_hat=2, sigma=value)
    with pytest.raises(ValueError, match="gamma"):
        fit_kpca(csi, d_hat=2, gamma=value)


def test_residual_is_exact_subtraction():
    rng = np.random.default_rng(11)
    csi = CsiMatrix(_random_columns(rng, m=5, n=9))
    pred, resid = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e-2), csi)
    assert np.array_equal(resid, to_real_view(csi) - pred)


def test_reconstruction_error_non_increasing_in_rank():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 1.0, 30)
    base = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    cols = np.outer(base[:, 0], t**2) + 0.3 * np.outer(base[:, 1], np.sin(3 * t))
    csi = CsiMatrix(cols)
    errors = []
    for d_hat in range(1, 11):
        pred, _ = decompose_kpca(fit_kpca(csi, d_hat, gamma=1e-4), csi)
        errors.append(float(np.linalg.norm(to_real_view(csi) - pred)))
    assert np.all(np.diff(errors) <= 1e-9)


def test_wide_bandwidth_matches_pca_ordering():
    rng = np.random.default_rng(13)
    t = np.linspace(-1.0, 1.0, 25)
    cols = (np.outer(np.array([1.0, 2.0, -0.5]), t) + 0.01 * rng.standard_normal((3, 25))).astype(complex)
    csi = CsiMatrix(cols)
    model = fit_kpca(csi, d_hat=1, sigma=500.0)
    pca_scores = (fit_pca(to_real_view(csi)).eigenvectors[0] @ to_real_view(csi))
    scores = model.alphas.T @ center_gram(gaussian_gram(csi.data, sigma=500.0)[0])
    rho = spearmanr(scores[0], pca_scores).statistic
    assert abs(rho) >= 0.99


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(14)
    csi = CsiMatrix(_random_columns(rng, m=4, n=8))
    other = CsiMatrix(_random_columns(rng, m=4, n=9))
    model = fit_kpca(csi, d_hat=2)
    with pytest.raises(ValueError):
        decompose_kpca(model, other)


def test_decompose_solves_with_the_fitted_factor(monkeypatch):
    rng = np.random.default_rng(15)
    csi = CsiMatrix(_random_columns(rng, m=5, n=9))
    other = CsiMatrix(_random_columns(rng, m=5, n=9))
    model = fit_kpca(csi, d_hat=2)
    # the complex form of the split, H - gamma X^T on the columns of X's two halves
    h = other.data
    x = scipy.linalg.cho_solve(model.factor, np.hstack([h.real.T, h.imag.T]))
    want = h - model.diagnostics.gamma * (x[:, :5] + 1j * x[:, 5:]).T

    def forbidden(*args, **kwargs):
        raise AssertionError("decompose_kpca must not factorize")

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for name in ("eigh", "solve", "cho_factor"):
        monkeypatch.setattr(scipy.linalg, name, forbidden)
    pred, resid = decompose_kpca(model, other)
    assert np.array_equal(pred, to_real_view(CsiMatrix(want)))
    assert np.array_equal(resid, to_real_view(other) - pred)


def _ridge_system(y, gamma):
    """K_Y + gamma I and K_Y as :func:`kpca._ridge_factor` builds them."""
    sq = np.sum(y * y, axis=0)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (y.T @ y), 0.0)
    sigma = median_bandwidth(d2)
    k_scores = np.exp(-d2 / (2.0 * sigma * sigma))
    return k_scores + gamma * np.eye(len(k_scores)), k_scores


@pytest.mark.parametrize("n, d_hat", [(16, 1), (200, 3)])
def test_split_matches_the_spd_solve_map_and_bounds_the_condition(n, d_hat):
    rng = np.random.default_rng(17)
    csi = CsiMatrix(_random_columns(rng, m=6, n=n))
    model = fit_kpca(csi, d_hat=d_hat)
    scores = model.alphas.T @ center_gram(gaussian_gram(csi.data)[0])
    regularized, k_scores = _ridge_system(scores, model.diagnostics.gamma)
    # the map the split replaced: H (K_Y + gamma I)^-1 K_Y; 1e-9 relative
    # is a tolerance fixed in advance
    former = to_real_view(csi) @ scipy.linalg.solve(regularized, k_scores, assume_a="pos")
    pred, _ = decompose_kpca(model, csi)
    assert np.max(np.abs(pred - former)) <= 1e-9 * np.max(np.abs(former))
    # ?pocon underestimates ||A^-1||_1, never over; 0.1 is a bound fixed in advance
    exact = np.linalg.cond(regularized, 1)
    assert 0.1 * exact <= model.diagnostics.condition_estimate <= exact * (1.0 + 1e-9)


def test_condition_estimate_ignores_the_last_bits_of_rcond(monkeypatch):
    # ?pocon's last bits vary between runs on one LAPACK build; the report
    # keeps 6 significant digits, truncated toward zero
    y = np.random.default_rng(19).standard_normal((2, 40))
    real = scipy.linalg.lapack.dpocon
    estimates = []
    for ulps in (0, 1, -1):
        def shifted(factor, norm, ulps=ulps, **triangle):
            rcond, info = real(factor, norm, **triangle)
            return rcond if ulps == 0 else np.nextafter(rcond, ulps * np.inf), info

        monkeypatch.setattr(scipy.linalg.lapack, "dpocon", shifted)
        estimates.append(kpca._ridge_factor(y, None)[3])
    assert estimates[0] == estimates[1] == estimates[2]
    assert float(f"{estimates[0]:.5e}") == estimates[0]


def test_score_gram_of_coincident_scores_has_no_bandwidth():
    # the ridge's score Gram is gaussian_gram's, degenerate bandwidth included
    with pytest.raises(ValueError, match="degenerate bandwidth: every column coincides"):
        kpca._ridge_factor(np.ones((2, 5)), None)


def test_near_singular_ridge_warns_and_a_singular_one_raises():
    base = _random_columns(np.random.default_rng(18), m=6, n=20)
    csi = CsiMatrix(np.concatenate([base, base[:, :4]], axis=1))  # 4 duplicated columns: duplicated scores
    with pytest.warns(RuntimeWarning, match="ill-conditioned ridge system"):
        fit_kpca(csi, d_hat=2, gamma=1e-14)
    with pytest.raises(ValueError, match="gamma=1e-300 .*score Gram is singular"):
        fit_kpca(csi, d_hat=2, gamma=1e-300)
