import numpy as np
import pytest

from csisplit.core import NodeGeometry, to_real_view
from csisplit.dependence import avg_neighbor_cc
from csisplit.pca import DecompConfig, Decomposition, PcaBasis, _fix_signs, decompose, fit_pca, sweep
from csisplit.simulate import SimConfig, simulate
from csisplit.skg import avg_mp


def _centered(view):
    return view - view.mean(axis=1, keepdims=True)


def test_rank_one_data_has_single_eigenvalue():
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(6)
    weights = rng.standard_normal(40)
    view = np.outer(direction, weights)
    basis = fit_pca(view)
    lam = basis.eigenvalues
    assert np.sum(lam > 1e-8 * lam[0]) == 1


def test_isotropic_white_eigenvalues_near_unit():
    rng = np.random.default_rng(1)
    view = rng.standard_normal((8, 10_000))
    basis = fit_pca(view)
    assert np.all(basis.eigenvalues >= 0.9)
    assert np.all(basis.eigenvalues <= 1.1)


def test_two_by_two_closed_form():
    # construct data whose sample covariance is exactly diag(2, 1)
    n = 400
    a = np.sqrt(2.0) * np.repeat([1.0, -1.0], n // 2)
    b = np.tile([1.0, -1.0], n // 2)
    view = np.vstack([a, b]) * np.sqrt((n - 1.0) / n)
    basis = fit_pca(view)
    assert basis.eigenvalues == pytest.approx([2.0, 1.0], rel=1e-9)
    assert np.abs(basis.eigenvectors[0]) == pytest.approx([1.0, 0.0], abs=1e-9)


def test_orthonormality_and_trace_identity():
    rng = np.random.default_rng(2)
    view = rng.standard_normal((12, 60)) * np.linspace(1, 4, 12)[:, None]
    basis = fit_pca(view)
    u = basis.eigenvectors
    assert np.linalg.norm(u @ u.T - np.eye(12)) < 1e-8
    centered = _centered(view)
    cov = centered @ centered.T / 59
    assert basis.eigenvalues.sum() == pytest.approx(np.trace(cov), rel=1e-8)
    recon = u.T @ np.diag(basis.eigenvalues) @ u
    assert np.linalg.norm(recon - cov) / np.linalg.norm(cov) < 1e-6


def test_sign_convention_first_nonzero_positive():
    rng = np.random.default_rng(3)
    basis = fit_pca(rng.standard_normal((5, 30)))
    for row in basis.eigenvectors:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        assert row[nz[0]] > 0


def _fix_signs_per_row(vectors):
    """The row loop the vectorized sign pass replaced."""
    for row in vectors:
        nz = np.nonzero(np.abs(row) > 1e-12)[0]
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return vectors


def test_fix_signs_equals_the_row_loop_in_place():
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((9, 6))
    vectors[0] = 0.0  # zero row: untouched
    vectors[1, :2] = (-1e-13, 5e-13)  # tiny entries of either sign before the first significant one
    vectors[1, 2] = 0.7
    vectors[2, :3] = (3e-13, -2e-13, -0.4)  # the first significant entry is negative
    vectors[3] = rng.choice([-1.0, 1.0], 6) * 1e-13  # all tiny, the first negative: untouched
    vectors[3, 0] = -1e-13
    vectors[4, 0] = -1e-12  # exactly at the threshold: not significant
    vectors[4, 1] = -2.0
    vectors[5] = np.abs(vectors[5])
    vectors[6] = -np.abs(vectors[6])
    expected = _fix_signs_per_row(vectors.copy())
    out = _fix_signs(vectors)
    assert out is vectors
    assert np.array_equal(out, expected)
    assert np.array_equal(np.signbit(out), np.signbit(expected))  # zeros keep the loop's signs too
    assert out[1, 2] == 0.7 and out[2, 2] == 0.4 and out[4, 1] == 2.0 and out[3, 0] == -1e-13
    assert np.all(out[5] >= 0) and np.all(out[6] >= 0)


def test_fix_signs_works_on_a_strided_view():
    # kpca hands it the transpose of a column selection
    rng = np.random.default_rng(6)
    evecs = rng.standard_normal((40, 40))
    block = evecs[:, [3, 1, 0]]
    expected = _fix_signs_per_row(block.T.copy())
    assert np.array_equal(_fix_signs(block.T), expected)
    assert np.array_equal(block.T, expected)


def test_fit_requires_two_samples():
    with pytest.raises(ValueError, match="insufficient samples"):
        fit_pca(np.ones((4, 1)))


def test_full_basis_reproduces_centered_input():
    rng = np.random.default_rng(4)
    view = rng.standard_normal((6, 25))
    basis = fit_pca(view)
    dec = decompose(view, basis, DecompConfig(d_hat=6, d1=1, d2=6))
    assert np.linalg.norm(dec.predictable - _centered(view)) < 1e-8


def test_zero_rank_predictable_is_zero():
    rng = np.random.default_rng(5)
    view = rng.standard_normal((6, 25))
    dec = decompose(view, fit_pca(view), DecompConfig(d_hat=0, d1=1, d2=6))
    assert np.all(dec.predictable == 0.0)


def test_complement_bands_tile_centered_input():
    rng = np.random.default_rng(6)
    view = rng.standard_normal((10, 40))
    basis = fit_pca(view)
    for d_hat in (1, 3, 7):
        dec = decompose(view, basis, DecompConfig(d_hat=d_hat, d1=d_hat + 1, d2=10))
        assert np.linalg.norm(dec.predictable + dec.unpredictable - _centered(view)) < 1e-8


@pytest.mark.parametrize("d_hat, d1, d2", [(0, 1, 3), (5, 1, 3), (1, 3, 20), (1, 1, None)])
def test_decompose_equals_the_full_projection(d_hat, d1, d2):
    # decompose projects onto the first max(d_hat, d2) components only
    out = simulate(SimConfig(grid_shape=(8, 8), m=32, seed=7))
    ul, dl = to_real_view(out.uplink), to_real_view(out.downlink)
    basis = fit_pca(ul)
    d2 = basis.dim if d2 is None else d2
    u = basis.eigenvectors
    scores = u @ (dl - basis.mean[:, None])
    dec = decompose(dl, basis, DecompConfig(d_hat=d_hat, d1=d1, d2=d2))
    assert np.max(np.abs(dec.predictable - u[:d_hat].T @ scores[:d_hat])) <= 1e-13
    assert np.max(np.abs(dec.unpredictable - u[d1 - 1 : d2].T @ scores[d1 - 1 : d2])) <= 1e-13


def test_projection_idempotence():
    rng = np.random.default_rng(7)
    view = rng.standard_normal((8, 30))
    basis = fit_pca(view)
    cfg = DecompConfig(d_hat=3, d1=4, d2=8)
    dec = decompose(view, basis, cfg)
    # re-decomposing the predictable part (plus the removed mean) returns it
    again = decompose(dec.predictable + basis.mean[:, None], basis, cfg)
    assert np.max(np.abs(again.predictable - dec.predictable)) <= 1e-10


def test_band_orthogonality_and_energy():
    rng = np.random.default_rng(8)
    view = rng.standard_normal((9, 35))
    basis = fit_pca(view)
    dec = decompose(view, basis, DecompConfig(d_hat=2, d1=3, d2=7))
    for col in range(view.shape[1]):
        assert abs(dec.predictable[:, col] @ dec.unpredictable[:, col]) < 1e-8
    total = np.linalg.norm(_centered(view)) ** 2
    assert np.linalg.norm(dec.predictable) ** 2 + np.linalg.norm(dec.unpredictable) ** 2 <= total + 1e-8


def test_decompose_config_validation():
    rng = np.random.default_rng(9)
    view = rng.standard_normal((4, 10))
    basis = fit_pca(view)
    with pytest.raises(ValueError):
        decompose(view, basis, DecompConfig(d_hat=5, d1=1, d2=4))
    with pytest.raises(ValueError):
        decompose(view, basis, DecompConfig(d_hat=1, d1=3, d2=2))
    with pytest.raises(ValueError):
        decompose(view, basis, DecompConfig(d_hat=1, d1=0, d2=4))


def _toy_geometry(n):
    return NodeGeometry(positions=np.column_stack([np.arange(n, dtype=float), np.zeros(n)]), k=1)


def test_sweep_single_cell_and_full_band():
    rng = np.random.default_rng(10)
    shared = rng.standard_normal(12)
    view_ul = np.column_stack([shared + 0.1 * rng.standard_normal(12) for _ in range(6)])
    view_dl = view_ul + 0.05 * rng.standard_normal(view_ul.shape)
    basis = fit_pca(view_ul)
    cells = sweep(view_ul, view_dl, basis, [1], [12], _toy_geometry(6), k=1)
    assert len(cells) == 1
    cell = cells[0]
    assert (cell.d1, cell.d2) == (1, 12)
    # no truncation: the (1, 2M) band is the full centered signal
    centered_ul = _centered(view_ul)
    centered_dl = view_dl - basis.mean[:, None]
    assert cell.avg_cc == pytest.approx(avg_neighbor_cc(centered_ul, _toy_geometry(6), 1), abs=1e-9)
    assert cell.avg_mp == pytest.approx(avg_mp(centered_ul, centered_dl).avg_mp, abs=1e-12)


def test_sweep_grid_shape_and_ordering():
    rng = np.random.default_rng(11)
    view = rng.standard_normal((8, 12))
    basis = fit_pca(view)
    cells = sweep(view, view, basis, [1, 3, 5], [2, 4], _toy_geometry(12), k=1)
    assert [(c.d1, c.d2) for c in cells] == [(1, 2), (1, 4), (3, 4)]


def test_sweep_empty_grid_error():
    rng = np.random.default_rng(12)
    view = rng.standard_normal((4, 6))
    with pytest.raises(ValueError):
        sweep(view, view, fit_pca(view), [], [2], _toy_geometry(6), k=1)
    with pytest.raises(ValueError, match="no band with d1 <= d2"):
        sweep(view, view, fit_pca(view), [3], [2], _toy_geometry(6), k=1)


@pytest.mark.parametrize(
    "grid, step",
    # every default cell at 8x8; every other d1 and d2 at 20x20, which keeps
    # the oracle's 3,200 pearson_cc calls per cell to 33 cells
    [((8, 8), 2), ((20, 20), 4)],
)
def test_sweep_cells_equal_the_per_pair_loop_on_the_band(grid, step):
    out = simulate(SimConfig(grid_shape=grid, seed=1))
    ul, dl = to_real_view(out.uplink), to_real_view(out.downlink)
    basis = fit_pca(ul)
    cells = sweep(ul, dl, basis, range(1, 22, step), range(2, 31, step), out.geometry, k=8)
    assert len(cells) == {2: 110, 4: 33}[step]
    for cell in cells:
        band = DecompConfig(d_hat=0, d1=cell.d1, d2=cell.d2)
        band_ul = decompose(ul, basis, band).unpredictable
        band_dl = decompose(dl, basis, band).unpredictable
        assert abs(cell.avg_cc - avg_neighbor_cc(band_ul, out.geometry, 8)) <= 1e-12, (cell.d1, cell.d2)
        assert cell.avg_mp == avg_mp(band_ul, band_dl).avg_mp, (cell.d1, cell.d2)


def test_sweep_scores_the_k_it_is_given():
    out = simulate(SimConfig(grid_shape=(4, 4), m=8))
    ul = to_real_view(out.uplink)
    basis = fit_pca(ul)
    band_ul = decompose(ul, basis, DecompConfig(d_hat=0, d1=2, d2=9)).unpredictable
    cell = sweep(ul, ul, basis, [2], [9], out.geometry, k=3)[0]
    assert cell.avg_cc == pytest.approx(avg_neighbor_cc(band_ul, out.geometry, 3), abs=1e-12)


def test_sweep_rejects_bands_outside_the_basis():
    out = simulate(SimConfig(grid_shape=(4, 4), m=4))
    ul, dl = to_real_view(out.uplink), to_real_view(out.downlink)
    basis = fit_pca(ul)
    assert basis.dim == 8
    with pytest.raises(ValueError, match=r"band \(1, 30\) invalid for dimension 8"):
        sweep(ul, dl, basis, [1], [8, 30], out.geometry, k=8)
    with pytest.raises(ValueError, match=r"band \(d1, d2\) = \(0, 8\) invalid: need 1 <= d1 <= d2"):
        sweep(ul, dl, basis, [0, 1], [8], out.geometry, k=8)
    assert [(c.d1, c.d2) for c in sweep(ul, dl, basis, [1, 9], [8], out.geometry, k=8)] == [(1, 8)]


def test_sweep_zero_variance_band_column_raises_like_pearson_cc():
    # with the identity basis the scores are the view itself, so node 0's
    # band (3, 4) is exactly zero
    view = np.random.default_rng(13).standard_normal((4, 5))
    view[2:, 0] = 0.0
    basis = PcaBasis(eigenvectors=np.eye(4), eigenvalues=np.ones(4), mean=np.zeros(4))
    geom = _toy_geometry(5)
    band_ul = decompose(view, basis, DecompConfig(d_hat=0, d1=3, d2=4)).unpredictable
    with pytest.raises(ValueError, match="zero-variance sequence"):
        avg_neighbor_cc(band_ul, geom, 1)
    with pytest.raises(ValueError, match="zero-variance sequence"):
        sweep(view, view, basis, [3], [4], geom, k=1)
    assert len(sweep(view, view, basis, [1], [4], geom, k=1)) == 1


def test_sweep_keeps_its_digits_under_a_dominant_leading_component():
    # eigenvalue 1 is ~1e16 times the rest: sums differenced from component 1
    # would cancel every band that starts after it
    rng = np.random.default_rng(14)
    view = np.outer(rng.standard_normal(16), 1e8 * rng.standard_normal(30)) + rng.standard_normal((16, 30))
    geom = NodeGeometry(positions=np.column_stack([np.arange(30.0), np.zeros(30)]), k=2)
    basis = fit_pca(view)
    assert basis.eigenvalues[0] > 1e15 * basis.eigenvalues[1]
    for cell in sweep(view, view, basis, [1, 2, 3, 5], [4, 9, 16], geom, k=2):
        band = decompose(view, basis, DecompConfig(d_hat=0, d1=cell.d1, d2=cell.d2)).unpredictable
        assert abs(cell.avg_cc - avg_neighbor_cc(band, geom, 2)) <= 1e-12, (cell.d1, cell.d2)


@pytest.mark.parametrize("grid", [(8, 8), (20, 20)])
def test_dual_fit_matches_the_primal_fit(grid):
    # n=64 and n=400 nodes against 512 features (m=256): both take the dual path
    out = simulate(SimConfig(grid_shape=grid, seed=2))
    ul, dl = to_real_view(out.uplink), to_real_view(out.downlink)
    full, dual = fit_pca(ul), fit_pca(ul, top=30)
    assert dual.eigenvectors.shape == (30, 512) and dual.dim == 512
    assert np.array_equal(dual.mean, full.mean)
    assert np.max(np.abs(dual.eigenvectors - full.eigenvectors[:30])) <= 1e-12
    assert np.max(np.abs(dual.eigenvalues - full.eigenvalues[:30])) <= 1e-12 * full.eigenvalues[0]
    band = DecompConfig(d_hat=1, d1=3, d2=20)
    for view in (ul, dl):
        got, want = decompose(view, dual, band), decompose(view, full, band)
        assert np.max(np.abs(got.predictable - want.predictable)) <= 1e-12
        assert np.max(np.abs(got.unpredictable - want.unpredictable)) <= 1e-12
    with pytest.raises(ValueError, match=r"band \(3, 31\) invalid for dimension 30"):
        decompose(ul, dual, DecompConfig(d_hat=1, d1=3, d2=31))


def test_dual_and_primal_sweeps_give_the_same_mismatch():
    for seed in range(4):
        out = simulate(SimConfig(grid_shape=(8, 8), seed=seed))
        ul, dl = to_real_view(out.uplink), to_real_view(out.downlink)
        grid = (range(1, 22, 2), range(2, 31, 2), out.geometry, 8)
        dual, full = sweep(ul, dl, fit_pca(ul, top=30), *grid), sweep(ul, dl, fit_pca(ul), *grid)
        assert [c.avg_mp for c in dual] == [c.avg_mp for c in full], seed
        assert max(abs(a.avg_cc - b.avg_cc) for a, b in zip(dual, full)) <= 1e-12, seed


@pytest.mark.parametrize("shape, top", [((32, 16), 16), ((32, 16), 40), ((8, 40), 3), ((8, 40), 8)])
def test_primal_path_beyond_n_minus_1_or_with_more_nodes_than_features(shape, top):
    view = np.random.default_rng(15).standard_normal(shape)
    full, fitted = fit_pca(view), fit_pca(view, top=top)
    for name in ("eigenvectors", "eigenvalues", "mean"):
        assert np.array_equal(getattr(fitted, name), getattr(full, name)), name
    assert len(fitted.eigenvectors) == shape[0]


def test_dual_path_up_to_n_minus_1_components():
    view = np.random.default_rng(16).standard_normal((32, 16))
    full, dual = fit_pca(view), fit_pca(view, top=15)
    assert dual.eigenvectors.shape == (15, 32)
    assert np.max(np.abs(dual.eigenvectors - full.eigenvectors[:15])) <= 1e-12
    assert np.linalg.norm(dual.eigenvectors @ dual.eigenvectors.T - np.eye(15)) <= 1e-12


def test_dual_fit_rejects_components_beyond_the_numerical_rank():
    # 5 distinct node columns, each twice: the centred view has rank 4
    distinct = np.random.default_rng(17).standard_normal((20, 5))
    view = np.hstack([distinct, distinct])
    basis = fit_pca(view, top=4)
    assert len(basis.eigenvectors) == 4 and np.all(basis.eigenvalues > 0)
    with pytest.raises(ValueError, match="numerical rank is 4"):
        fit_pca(view, top=5)
    # a constant view has rank 0
    with pytest.raises(ValueError, match="numerical rank is 0"):
        fit_pca(np.ones((20, 10)), top=1)
