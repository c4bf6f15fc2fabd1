"""Synthetic reciprocal-channel generator.

Composite fading model per node n at grid position x_n:

    h_n[t] = A_n * ( sqrt(K/(K+1)) * exp(j(phi_n + w*t))        [specular]
                   + sqrt(1/(K+1)) * v_n[t] )                   [diffuse]

* A_n combines distance path loss (power exponent, normalized at a
  reference distance) with log-normal shadowing drawn from a spatial
  Gaussian field with exponential correlation over shadowing_corr_m.
* phi_n is a smooth per-location phase offset (its own correlated field),
  and w is a slow common phase drift: the specular ray's Doppler at a
  fraction of the full Doppler rate.
* v_n[t] is unit-variance circular complex noise with AR(1) temporal
  correlation rho = J0(2 pi f_d tau) (Gauss-Markov fit of the Jakes
  spectrum, f_d = speed * carrier / c) and short-range spatial
  correlation exp(-d / diffuse_corr_m) across nodes.

Both directions observe the same h_n[t] (reciprocity) through independent
circular Gaussian noise scaled per node to the configured SNR; the BPSK
pilot divides out in the zero-forcing estimate, flipping the noise sign
only. All draws come from per-purpose RNG streams spawned from the seed,
so output is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .core import CsiMatrix, Direction, NodeGeometry

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class SimConfig:
    grid_shape: tuple[int, int] = (20, 20)
    grid_spacing_m: float = 1.0
    grid_origin: tuple[float, float] = (100.0, -10.0)
    bs_position: tuple[float, float, float] = (0.0, 0.0, 10.0)
    m: int = 256
    carrier_hz: float = 2.68e9
    speed_mps: float = 0.5
    snapshot_interval_s: float = 0.025
    rician_k: float = 4.0
    path_loss_exponent: float = 3.5
    reference_distance_m: float = 100.0
    shadowing_sigma_db: float = 6.0
    shadowing_corr_m: float = 5.0
    phase_sigma_rad: float = 0.5
    phase_corr_m: float = 5.0
    los_doppler_frac: float = 0.1
    diffuse_corr_m: float = 1.0
    snr_db: float = 20.0
    seed: int = 0
    temporal_rho: float | None = None  # overrides the Jakes-derived AR(1) coefficient

    def validate(self) -> None:
        if self.m < 2:
            raise ValueError("need at least 2 snapshots")
        if self.grid_shape[0] * self.grid_shape[1] < 2 or self.grid_spacing_m <= 0:
            raise ValueError("grid must contain >= 2 nodes with positive spacing")
        if not (self.rician_k >= 0):
            raise ValueError("rician_k must be >= 0")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.shadowing_sigma_db < 0 or self.shadowing_corr_m <= 0:
            raise ValueError("invalid shadowing parameters")
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number (or +inf to disable noise)")
        if self.temporal_rho is not None and not -1.0 <= self.temporal_rho <= 1.0:
            raise ValueError("temporal_rho must lie in [-1, 1]")


@dataclass(frozen=True)
class SimOutput:
    uplink: CsiMatrix
    downlink: CsiMatrix
    truth: CsiMatrix  # noise-free channel, shared by both directions
    large_scale: CsiMatrix  # deterministic specular part only
    geometry: NodeGeometry


def grid_positions(cfg: SimConfig) -> np.ndarray:
    rows, cols = cfg.grid_shape
    xs = cfg.grid_origin[0] + cfg.grid_spacing_m * np.arange(cols)
    ys = cfg.grid_origin[1] + cfg.grid_spacing_m * np.arange(rows)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def _spatial_chol(dist: np.ndarray, corr_m: float) -> np.ndarray:
    """Cholesky factor of the exponential correlation exp(-d / corr_m), with
    1e-10 added to the diagonal."""
    corr = np.exp(-dist / corr_m)
    corr.flat[:: dist.shape[0] + 1] += 1e-10
    return np.linalg.cholesky(corr)


def _correlated_fields(positions: np.ndarray, fields: list[tuple[float, np.ndarray]]) -> list[np.ndarray]:
    """L @ x for each (corr_m, x) in ``fields``, with L the Cholesky factor of
    the nodes' exponential correlation over corr_m. The distance matrix is
    built once and each distinct corr_m is factorized once; all of it is
    released on return."""
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    del diff
    chols = {corr_m: _spatial_chol(dist, corr_m) for corr_m in dict.fromkeys(c for c, _ in fields)}
    return [chols[corr_m] @ x for corr_m, x in fields]


def temporal_correlation(cfg: SimConfig) -> float:
    """AR(1) coefficient matching the Jakes autocorrelation at one snapshot lag."""
    if cfg.temporal_rho is not None:
        return float(cfg.temporal_rho)
    f_d = cfg.speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
    return float(j0(2.0 * math.pi * f_d * cfg.snapshot_interval_s))


def simulate(cfg: SimConfig) -> SimOutput:
    """Generate reciprocal uplink/downlink CSI observations at the node grid."""
    cfg.validate()
    positions = grid_positions(cfg)
    n = positions.shape[0]
    m = cfg.m
    geometry = NodeGeometry(positions=positions, k=min(8, n - 1))

    ss = np.random.SeedSequence(cfg.seed)
    rng_shadow, rng_phase, rng_diffuse, rng_pilot, rng_nul, rng_ndl = (
        np.random.default_rng(c) for c in ss.spawn(6)
    )
    if math.isinf(cfg.rician_k):
        k_spec, k_diff = 1.0, 0.0
    else:
        k_spec = math.sqrt(cfg.rician_k / (cfg.rician_k + 1.0))
        k_diff = math.sqrt(1.0 / (cfg.rician_k + 1.0))

    # diffuse sequences: temporal AR(1) per node
    rho = temporal_correlation(cfg)
    innov = (rng_diffuse.standard_normal((n, m)) + 1j * rng_diffuse.standard_normal((n, m))) / math.sqrt(2.0)
    v = np.empty((n, m), dtype=np.complex128)
    v[:, 0] = innov[:, 0]
    scale = math.sqrt(max(0.0, 1.0 - rho * rho))
    for t in range(1, m):
        v[:, t] = rho * v[:, t - 1] + scale * innov[:, t]

    # the spatially correlated fields: shadowing, the specular phase offsets
    # and the diffuse sequences' short-range mixing across nodes (shadowing
    # and phase share one factorization at the default lengths)
    fields = [(cfg.shadowing_corr_m, rng_shadow.standard_normal(n)), (cfg.phase_corr_m, rng_phase.standard_normal(n))]
    if k_diff > 0:
        fields.append((cfg.diffuse_corr_m, v))
    shadow_field, phase_field, *mixed = _correlated_fields(positions, fields)

    # large-scale amplitude: path loss normalized at the reference distance,
    # times spatially correlated log-normal shadowing
    bs = np.asarray(cfg.bs_position, dtype=np.float64)
    nodes3 = np.column_stack([positions, np.zeros(n)])
    dist_bs = np.linalg.norm(nodes3 - bs, axis=1)
    pl_amp = (cfg.reference_distance_m / dist_bs) ** (cfg.path_loss_exponent / 2.0)
    shadow_db = cfg.shadowing_sigma_db * shadow_field
    amp = pl_amp * 10.0 ** (shadow_db / 20.0)

    # specular component with smooth phase field and slow common drift
    phase = cfg.phase_sigma_rad * phase_field
    f_d = cfg.speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
    drift = 2.0 * math.pi * cfg.los_doppler_frac * f_d * cfg.snapshot_interval_s * np.arange(m)
    specular = k_spec * np.exp(1j * (phase[:, None] + drift[None, :]))
    diffuse = mixed[0] if k_diff > 0 else np.zeros((n, m), dtype=np.complex128)

    h = amp[:, None] * (specular + k_diff * diffuse)
    large = amp[:, None] * specular

    # observation: y = h*s + noise per direction; zero-forcing divides the
    # BPSK pilot out, so the pilot only flips the noise sign
    pilot = rng_pilot.choice(np.array([-1.0, 1.0]), size=m)
    if math.isinf(cfg.snr_db):
        ul = h.copy()
        dl = h.copy()
    else:
        noise_std = amp * 10.0 ** (-cfg.snr_db / 20.0) / math.sqrt(2.0)
        n_ul = noise_std[:, None] * (rng_nul.standard_normal((n, m)) + 1j * rng_nul.standard_normal((n, m)))
        n_dl = noise_std[:, None] * (rng_ndl.standard_normal((n, m)) + 1j * rng_ndl.standard_normal((n, m)))
        ul = h + n_ul / pilot[None, :]
        dl = h + n_dl / pilot[None, :]

    return SimOutput(
        uplink=CsiMatrix(ul.T, direction=Direction.UPLINK, snr_db=cfg.snr_db),
        downlink=CsiMatrix(dl.T, direction=Direction.DOWNLINK, snr_db=cfg.snr_db),
        truth=CsiMatrix(h.T, direction=Direction.UPLINK, snr_db=None),
        large_scale=CsiMatrix(large.T, direction=Direction.UPLINK, snr_db=None),
        geometry=geometry,
    )
