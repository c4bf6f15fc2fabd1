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

Three module constants fix the geometry, and no SimConfig field sets
them: the grid starts at GRID_ORIGIN = (100, -10) m in the plane z = 0,
the base station stands at BS_POSITION = (0, 0, 10) m, and the path loss
is normalized at REFERENCE_DISTANCE_M = 100 m from it.

Both directions observe the same h_n[t] (reciprocity) through independent
circular Gaussian noise scaled per node to the configured SNR; the BPSK
pilot divides out in the zero-forcing estimate, flipping the noise sign
only. All draws come from per-purpose RNG streams spawned from the seed,
so output is bit-reproducible. A SimConfig checks itself when built.

The module loads no SciPy. J0 is :func:`j0`, a port of Cephes ``j0.c``
(S. L. Moshier), the routine behind ``scipy.special.j0``, in the same
operations; ``tests/test_simulate.py`` checks that it gives SciPy's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CsiMatrix, Direction, NodeGeometry, squared_distances

SPEED_OF_LIGHT = 299792458.0
GRID_ORIGIN = (100.0, -10.0)
BS_POSITION = (0.0, 0.0, 10.0)
REFERENCE_DISTANCE_M = 100.0


@dataclass(frozen=True)
class SimConfig:
    grid_shape: tuple[int, int] = (20, 20)
    grid_spacing_m: float = 1.0
    m: int = 256
    carrier_hz: float = 2.68e9
    speed_mps: float = 0.5
    snapshot_interval_s: float = 0.025
    rician_k: float = 4.0
    path_loss_exponent: float = 3.5
    shadowing_sigma_db: float = 6.0
    shadowing_corr_m: float = 5.0
    phase_sigma_rad: float = 0.5
    phase_corr_m: float = 5.0
    los_doppler_frac: float = 0.1
    diffuse_corr_m: float = 1.0
    snr_db: float = 20.0
    seed: int = 0

    def __post_init__(self):
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
        for name in ("phase_corr_m", "diffuse_corr_m"):
            if not getattr(self, name) > 0:  # NaN too
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        # the Doppler inputs: an infinite or NaN one would run the whole
        # simulation and fail late on non-finite CSI
        if not (math.isfinite(self.speed_mps) and self.speed_mps >= 0):
            raise ValueError(f"speed_mps must be finite and >= 0, got {self.speed_mps}")
        for name in ("carrier_hz", "snapshot_interval_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.los_doppler_frac):
            raise ValueError(f"los_doppler_frac must be finite, got {self.los_doppler_frac}")
        # and their products, in simulate's order: J0's argument 2 pi f_d tau
        # and the specular drift's last phase, los_doppler_frac (m - 1) times it
        f_d = self.speed_mps * self.carrier_hz / SPEED_OF_LIGHT
        last = 2.0 * math.pi * self.los_doppler_frac * f_d * self.snapshot_interval_s * (self.m - 1)
        if not (math.isfinite(2.0 * math.pi * f_d * self.snapshot_interval_s) and math.isfinite(last)):
            raise ValueError(
                f"the Doppler phase overflows: speed_mps={self.speed_mps}, carrier_hz={self.carrier_hz}, "
                f"snapshot_interval_s={self.snapshot_interval_s}, los_doppler_frac={self.los_doppler_frac}, m={self.m}"
            )
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must be a number (or +inf to disable noise)")


@dataclass(frozen=True)
class SimOutput:
    uplink: CsiMatrix
    downlink: CsiMatrix
    truth: CsiMatrix  # noise-free channel, shared by both directions
    large_scale: CsiMatrix  # deterministic specular part only
    geometry: NodeGeometry


def grid_positions(cfg: SimConfig) -> np.ndarray:
    rows, cols = cfg.grid_shape
    xs = GRID_ORIGIN[0] + cfg.grid_spacing_m * np.arange(cols)
    ys = GRID_ORIGIN[1] + cfg.grid_spacing_m * np.arange(rows)
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
    built once and each distinct corr_m is factorized once; each factor is
    applied to its fields and released before the next one is made."""
    dist = np.sqrt(squared_distances(positions, positions))
    out = [None] * len(fields)
    for corr_m in dict.fromkeys(c for c, _ in fields):
        chol = _spatial_chol(dist, corr_m)
        for i, (c, x) in enumerate(fields):
            if c == corr_m:
                out[i] = chol @ x
        del chol  # else the next factorization runs with this factor still alive
    return out


# Cephes j0.c (S. L. Moshier), the routine behind scipy.special.j0
_J0_DR1 = 5.78318596294678452118e0
_J0_DR2 = 3.04712623436620863991e1
_J0_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12, -2.49248344360967716204e14, 9.70862251047306323952e15)
_J0_RQ = (
    4.99563147152651017219e2, 1.73785401676374683123e5, 4.84409658339962045305e7, 1.11855537045356834862e10,
    2.11277520115489217587e12, 3.10518229857422583814e14, 3.18121955943204943306e16, 1.71086294081043136091e18,
)
_J0_PP = (
    7.96936729297347051624e-4, 8.28352392107440799803e-2, 1.23953371646414299388e0, 5.44725003058768775090e0,
    8.74716500199817011941e0, 5.30324038235394892183e0, 9.99999999999999997821e-1,
)
_J0_PQ = (
    9.24408810558863637013e-4, 8.56288474354474431428e-2, 1.25352743901058953537e0, 5.47097740330417105182e0,
    8.76190883237069594232e0, 5.30605288235394617618e0, 1.00000000000000000218e0,
)
_J0_QP = (
    -1.13663838898469149931e-2, -1.28252718670509318512e0, -1.95539544257735972385e1, -9.32060152123768231369e1,
    -1.77681167980488050595e2, -1.47077505154951170175e2, -5.14105326766599330220e1, -6.05014350600728481186e0,
)
_J0_QQ = (
    6.43178256118178023184e1, 8.56430025976980587198e2, 3.88240183605401609683e3, 7.24046774195652478189e3,
    5.93072701187316984827e3, 2.06209331660327847417e3, 2.42005740240291393179e2,
)
_J0_SQ2OPI = 7.9788456080286535587989e-1
_J0_PIO4 = 7.85398163397448309616e-1


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """coef[0] x^N + ... + coef[N], by Horner's rule."""
    a = coef[0]
    for c in coef[1:]:
        a = a * x + c
    return a


def _p1evl(x: float, coef: tuple[float, ...]) -> float:
    """x^N + coef[0] x^(N-1) + ... + coef[N-1]: leading coefficient 1."""
    return _polevl(x, (1.0, *coef))


def j0(x: float) -> float:
    """Bessel function of the first kind of order zero: Cephes ``j0`` in the
    same operations, so it gives scipy.special.j0's bits without loading
    SciPy. A rational approximation on |x| <= 5, Hankel's asymptotic form
    beyond."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _J0_DR1) * (z - _J0_DR2)
        return p * _polevl(z, _J0_RP) / _p1evl(z, _J0_RQ)
    if x == math.inf:
        return math.nan  # as SciPy; math.cos(inf) would raise
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _J0_PP) / _polevl(q, _J0_PQ)
    q = _polevl(q, _J0_QP) / _p1evl(q, _J0_QQ)
    xn = x - _J0_PIO4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _J0_SQ2OPI / math.sqrt(x)


def temporal_correlation(cfg: SimConfig) -> float:
    """AR(1) coefficient matching the Jakes autocorrelation at one snapshot lag."""
    f_d = cfg.speed_mps * cfg.carrier_hz / SPEED_OF_LIGHT
    return j0(2.0 * math.pi * f_d * cfg.snapshot_interval_s)


def simulate(cfg: SimConfig) -> SimOutput:
    """Generate reciprocal uplink/downlink CSI observations at the node grid."""
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
    bs = np.asarray(BS_POSITION, dtype=np.float64)
    nodes3 = np.column_stack([positions, np.zeros(n)])
    dist_bs = np.sqrt(squared_distances(nodes3, bs[None, :]))[:, 0]
    pl_amp = (REFERENCE_DISTANCE_M / dist_bs) ** (cfg.path_loss_exponent / 2.0)
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
