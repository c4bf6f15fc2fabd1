import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import spearmanr

from csisplit.core import CsiMatrix, to_real_view
from csisplit.kpca import center_gram, decompose_kpca, fit_kpca, gaussian_gram
from csisplit.pca import fit_pca


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
    gram = gaussian_gram(cols.astype(complex))
    assert gram.k[0, 1] == pytest.approx(1.0)


def test_gram_e_minus_one_at_one_bandwidth():
    a = np.array([0.0, 0.0], dtype=complex)
    b = np.array([1.0, 1.0], dtype=complex)
    # ||a - b*||^2 = 2; choose sigma so that 2 sigma^2 = 2
    gram = gaussian_gram(np.column_stack([a, b, 2 * b]), sigma=1.0)
    assert gram.k[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_gram_matches_brute_force_oracle():
    rng = np.random.default_rng(0)
    cols = _random_columns(rng)
    for variant in ("conjugate", "standard"):
        gram = gaussian_gram(cols, sigma=1.3, variant=variant)
        expected = oracle_gram(cols, 1.3, variant)
        assert np.max(np.abs(gram.k - expected)) <= 1e-12


def test_gram_is_symmetric_with_zero_asymmetry():
    rng = np.random.default_rng(1)
    gram = gaussian_gram(_random_columns(rng))
    assert gram.asymmetry_norm <= 1e-14
    assert np.array_equal(gram.k, gram.k.T)


def test_gram_median_bandwidth_matches_oracle():
    rng = np.random.default_rng(2)
    cols = _random_columns(rng, m=4, n=6)
    gram = gaussian_gram(cols)
    d2 = []
    for i in range(6):
        for j in range(i + 1, 6):
            d2.append(float(np.sum(np.abs(cols[:, i] - np.conj(cols[:, j])) ** 2)))
    assert gram.bandwidth_sigma == pytest.approx(math.sqrt(np.median(d2) / 2.0), rel=1e-12)


def test_gram_convention_is_two_sigma_squared_at_the_median_bandwidth():
    # kpca's convention; dependence.gaussian_gram_1d divides by sigma^2 on purpose
    rng = np.random.default_rng(3)
    cols = _random_columns(rng, m=5, n=9)
    d2 = np.array([[float(np.sum(np.abs(a - np.conj(b)) ** 2)) for b in cols.T] for a in cols.T])
    sigma = math.sqrt(np.median(d2[np.triu_indices(9, k=1)]) / 2.0)
    gram = gaussian_gram(cols)
    assert gram.bandwidth_sigma == pytest.approx(sigma, rel=1e-12)
    assert np.allclose(gram.k, np.exp(-d2 / (2.0 * sigma**2)), rtol=0.0, atol=1e-12)


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
    gram = gaussian_gram(cols)
    d2 = np.array([[float(np.sum(np.abs(a - b) ** 2)) for b in cols.T] for a in cols.T])
    assert np.median(d2[np.triu_indices(5, k=1)]) == 0.0
    assert gram.bandwidth_sigma == 2.0
    assert np.array_equal(gram.k, np.exp(-d2 / 8.0))


def test_gram_psd_on_real_inputs():
    rng = np.random.default_rng(3)
    cols = rng.standard_normal((5, 12)).astype(complex)
    gram = gaussian_gram(cols)
    assert np.linalg.eigvalsh(gram.k).min() >= -1e-8


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


def test_fit_two_columns_single_component():
    cols = np.column_stack([np.array([0.0, 1.0]), np.array([2.0, -1.0])]).astype(complex)
    model = fit_kpca(CsiMatrix(cols), d_hat=1)
    lam = model.eigenvalues
    assert lam[0] > 1e-8
    assert np.all(lam[1:] <= 1e-10)


def test_fit_eigen_identity_holds():
    rng = np.random.default_rng(5)
    csi = CsiMatrix(_random_columns(rng, m=5, n=10))
    model = fit_kpca(csi, d_hat=3)
    centered = center_gram(gaussian_gram(csi.data).k)
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
    lam = model.eigenvalues
    assert lam[0] / lam.sum() >= 0.99


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
    scores = model.alphas.T @ center_gram(gaussian_gram(csi.data).k)
    assert np.max(np.abs(scores.mean(axis=1))) <= 1e-8


def test_reconstruct_ridge_shrinkage_limit():
    rng = np.random.default_rng(8)
    csi = CsiMatrix(_random_columns(rng, m=5, n=10))
    pred6, _ = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e6), csi)
    pred8, _ = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e8), csi)
    assert np.linalg.norm(pred6.data) < 1e-3 * np.linalg.norm(csi.data)
    ratio = np.linalg.norm(pred8.data) / np.linalg.norm(pred6.data)
    assert ratio == pytest.approx(1e-2, rel=1e-2)


def test_reconstruct_near_interpolation():
    rng = np.random.default_rng(9)
    csi = CsiMatrix(_random_columns(rng, m=6, n=12))
    with pytest.warns(RuntimeWarning, match="numerical rank"):
        model = fit_kpca(csi, d_hat=11, gamma=1e-8)  # truncates to the kernel rank
    pred, _ = decompose_kpca(model, csi)
    rel = np.linalg.norm(csi.data - pred.data) / np.linalg.norm(csi.data)
    assert rel <= 0.05
    assert model.diagnostics.gamma == 1e-8


def test_reconstruct_gamma_validation():
    rng = np.random.default_rng(10)
    csi = CsiMatrix(_random_columns(rng, m=4, n=8))
    with pytest.raises(ValueError, match="gamma"):
        fit_kpca(csi, d_hat=2, gamma=0.0)


def test_residual_is_exact_subtraction():
    rng = np.random.default_rng(11)
    csi = CsiMatrix(_random_columns(rng, m=5, n=9))
    pred, resid = decompose_kpca(fit_kpca(csi, d_hat=3, gamma=1e-2), csi)
    assert np.array_equal(resid.data, csi.data - pred.data)


def test_reconstruction_error_non_increasing_in_rank():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 1.0, 30)
    base = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    cols = np.outer(base[:, 0], t**2) + 0.3 * np.outer(base[:, 1], np.sin(3 * t))
    csi = CsiMatrix(cols)
    errors = []
    for d_hat in range(1, 11):
        pred, _ = decompose_kpca(fit_kpca(csi, d_hat, gamma=1e-4), csi)
        errors.append(float(np.linalg.norm(csi.data - pred.data)))
    assert np.all(np.diff(errors) <= 1e-9)


def test_wide_bandwidth_matches_pca_ordering():
    rng = np.random.default_rng(13)
    t = np.linspace(-1.0, 1.0, 25)
    cols = (np.outer(np.array([1.0, 2.0, -0.5]), t) + 0.01 * rng.standard_normal((3, 25))).astype(complex)
    csi = CsiMatrix(cols)
    model = fit_kpca(csi, d_hat=1, sigma=500.0)
    pca_scores = (fit_pca(to_real_view(csi)).eigenvectors[0] @ to_real_view(csi))
    scores = model.alphas.T @ center_gram(gaussian_gram(csi.data, sigma=500.0).k)
    rho = spearmanr(scores[0], pca_scores).statistic
    assert abs(rho) >= 0.99


def test_shape_mismatch_rejected():
    rng = np.random.default_rng(14)
    csi = CsiMatrix(_random_columns(rng, m=4, n=8))
    other = CsiMatrix(_random_columns(rng, m=4, n=9))
    model = fit_kpca(csi, d_hat=2)
    with pytest.raises(ValueError):
        decompose_kpca(model, other)


def test_decompose_reuses_the_fitted_ridge_map(monkeypatch):
    rng = np.random.default_rng(15)
    csi = CsiMatrix(_random_columns(rng, m=5, n=9))
    other = CsiMatrix(_random_columns(rng, m=5, n=9))
    model = fit_kpca(csi, d_hat=2)

    def forbidden(*args, **kwargs):
        raise AssertionError("decompose_kpca must not factorize")

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    monkeypatch.setattr(scipy.linalg, "solve", forbidden)
    pred, resid = decompose_kpca(model, other)
    assert np.array_equal(pred.data, other.data @ model.ridge_map)
    assert np.array_equal(resid.data, other.data - pred.data)
