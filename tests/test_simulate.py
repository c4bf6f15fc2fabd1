"""The simulator against what it claims: fixed bytes for a fixed seed, the
configured temporal correlation of the diffuse part and Rician K, SciPy's J0
and the configured SNR."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import csisplit
from csisplit import simulate as simulate_module
from csisplit.simulate import SPEED_OF_LIGHT, SimConfig, j0, simulate, temporal_correlation

# sha256 of the uplink, downlink, truth and large-scale CSI and the node
# positions, in that order. The grids are small enough that BLAS runs the
# Cholesky factorizations single-threaded, so the bytes do not depend on the
# BLAS thread count.
GOLDEN_HASHES = {
    "default-4x4": (
        SimConfig(grid_shape=(4, 4), m=16),
        "a7075f51d6ec25d1d84fdef33fd7bbe8a5eb49240288147bf880445d3dbd5ba8",
    ),
    "three-lengths": (
        SimConfig(grid_shape=(3, 5), m=8, shadowing_corr_m=3.0, phase_corr_m=7.0, diffuse_corr_m=2.0, seed=3),
        "1eb8b3a192ad3fcf7420a12ee9a45c2f7346ecfb774870cc4cb92184d5d6b1f8",
    ),
    "one-length": (
        SimConfig(grid_shape=(5, 3), m=8, diffuse_corr_m=5.0, seed=4),
        "900f74ce0543426f64233902157b9c34a5c05db4d589b50aa2a3d1e78e71fb9f",
    ),
    "specular-noiseless": (
        SimConfig(grid_shape=(3, 3), m=8, rician_k=math.inf, snr_db=math.inf, seed=1),
        "9b3eba8131fa9c08c77e909f87176f014c5c872fe9e849d344db2b9d183f5222",
    ),
}


def _digest(out) -> str:
    h = hashlib.sha256()
    for part in (out.uplink.data, out.downlink.data, out.truth.data, out.large_scale.data, out.geometry.positions):
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_HASHES))
def test_fixed_seed_gives_fixed_bytes(name):
    cfg, want = GOLDEN_HASHES[name]
    assert _digest(simulate(cfg)) == want


_DIGEST_IN_A_PROCESS = """
import hashlib, numpy as np
from csisplit.simulate import SimConfig, simulate
out = simulate(SimConfig())
h = hashlib.sha256()
for part in (out.uplink.data, out.downlink.data, out.truth.data, out.large_scale.data, out.geometry.neighbors(8)):
    h.update(np.ascontiguousarray(part).tobytes())
print(h.hexdigest())
"""


def test_default_size_bytes_repeat_across_processes_at_one_blas_thread():
    # byte identity is claimed per BLAS build and thread count; at the default
    # 20x20, m=256 size OpenBLAS can thread, so the count is pinned to one
    src = str(Path(csisplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    digests = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_IN_A_PROCESS], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# rho = J0(2 pi v f_c / c tau) at the default carrier and interval: about
# 0.88 at the default 0.5 m/s, and 0.97, 0.5 and 0 at the other speeds
@pytest.mark.parametrize("speed_mps", [0.5, 0.2477, 1.084, 1.7136])
def test_diffuse_lag_one_autocorrelation_is_the_configured_one(speed_mps):
    cfg = SimConfig(speed_mps=speed_mps)
    out = simulate(cfg)
    # truth minus the specular part is the diffuse part, A_n sqrt(1/(K+1)) v_n
    diffuse = out.truth.data - out.large_scale.data
    diffuse = diffuse / np.sqrt(np.mean(np.abs(diffuse) ** 2, axis=0))  # equal weight per node
    lag1 = np.sum(diffuse[1:] * np.conj(diffuse[:-1])) / np.sum(np.abs(diffuse[:-1]) ** 2)
    # 102,400 samples; measured errors were below 0.005 at every rho here
    assert lag1.real == pytest.approx(temporal_correlation(cfg), abs=0.02)
    assert abs(lag1.imag) < 0.02


def test_the_temporal_correlation_is_set_only_through_the_doppler_inputs():
    # the AR(1) coefficient is the Jakes one of speed, carrier and interval
    with pytest.raises(TypeError, match="temporal_rho"):
        SimConfig(temporal_rho=0.5)


def test_envelope_has_the_configured_rician_k():
    from csisplit.distfit import fit_mle

    cfg = SimConfig()
    out = simulate(cfg)
    # |truth| / A_n = |sqrt(K/(K+1)) e^(j phase) + sqrt(1/(K+1)) v| is Rician
    # with nu^2 / (2 sigma^2) = K; |large_scale| = A_n sqrt(K/(K+1))
    amp = np.abs(out.large_scale.data) / math.sqrt(cfg.rician_k / (cfg.rician_k + 1.0))
    nu, sigma = fit_mle(np.abs(out.truth.data) / amp, "rician").params
    # The bound was fixed from theory before the fit was run. The Fisher
    # information of (nu, sigma) at K=4 gives var(K^) = 59.2 / n for n
    # independent samples. The 102,400 samples are correlated: the lag-1
    # rho = 0.88 divides n by (1 + rho) / (1 - rho) = 15.9, and the diffuse
    # mixing's exp(-d / 1 m) summed over the 20x20 grid divides it by 5.8 more.
    # That leaves n = 1,117 and a standard error of at most 0.23; the bound is
    # about four of them.
    assert nu**2 / (2.0 * sigma**2) == pytest.approx(cfg.rician_k, abs=0.9)


@pytest.mark.parametrize("snr_db", [5.0, 20.0, 35.0])
def test_uplink_downlink_difference_power_matches_the_snr(snr_db):
    cfg = SimConfig(snr_db=snr_db, seed=2)
    out = simulate(cfg)
    # A_n^2 from the specular part, |large_scale| = A_n sqrt(K/(K+1))
    amp2 = np.abs(out.large_scale.data) ** 2 * (cfg.rician_k + 1.0) / cfg.rician_k
    # UL - DL is the difference of two independent noises, each of power A_n^2 10^(-snr/10)
    noise = np.mean(np.abs(out.uplink.data - out.downlink.data) ** 2 / (2.0 * amp2))
    signal = np.mean(np.abs(out.truth.data) ** 2 / amp2)
    assert -10.0 * math.log10(noise) == pytest.approx(snr_db, abs=0.05)
    assert 10.0 * math.log10(signal / noise) == pytest.approx(snr_db, abs=0.2)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("field", ["phase_corr_m", "diffuse_corr_m"])
def test_correlation_length_that_is_not_positive_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        simulate(SimConfig(grid_shape=(3, 3), m=8, **{field: value}))


@pytest.mark.parametrize("field", ["grid_origin", "bs_position", "reference_distance_m"])
def test_the_fixed_geometry_is_no_config_field(field):
    # module constants: a config cannot move the base station onto a node
    with pytest.raises(TypeError, match=field):
        SimConfig(**{field: getattr(simulate_module, field.upper())})


def test_j0_equals_scipys_bit_for_bit():
    # pins the port against the installed SciPy build: its j0 is the same
    # Cephes routine compiled for this platform, and a build whose compiler
    # contracts a * x + c into a fused multiply-add may differ in the last bit
    from scipy import special

    rng = np.random.default_rng(31)
    default_x = 2.0 * math.pi * (0.5 * 2.68e9 / SPEED_OF_LIGHT) * 0.025
    edges = [0.0, -0.0, 1e-5, math.nextafter(1e-5, 0.0), 5.0, math.nextafter(5.0, 6.0), math.nextafter(5.0, 4.0)]
    x = np.concatenate(
        [
            rng.uniform(0.0, 5.0, 100_000),  # the rational branch
            rng.uniform(5.0, 200.0, 100_000),  # the asymptotic branch
            10.0 ** rng.uniform(-8.0, 4.0, 20_000),
            -rng.uniform(0.0, 50.0, 1_000),
            edges,
            [-3.0, -7.5, default_x],
        ]
    )
    got = np.array([j0(v) for v in x.tolist()])
    assert np.array_equal(got, special.j0(x))
    assert temporal_correlation(SimConfig()) == j0(default_x) == special.j0(default_x) == 0.8805064251687986
    for v in (math.nan, math.inf, -math.inf):
        assert math.isnan(j0(v)) and math.isnan(special.j0(v))


@pytest.mark.parametrize(
    "field, value",
    [
        ("speed_mps", math.inf),
        ("speed_mps", math.nan),
        ("speed_mps", -0.5),
        ("carrier_hz", math.inf),
        ("carrier_hz", math.nan),
        ("carrier_hz", 0.0),
        ("carrier_hz", -1.0),
        ("snapshot_interval_s", math.inf),
        ("snapshot_interval_s", math.nan),
        ("snapshot_interval_s", 0.0),
        ("snapshot_interval_s", -0.025),
        ("los_doppler_frac", math.nan),
        ("los_doppler_frac", math.inf),
        ("los_doppler_frac", -math.inf),
    ],
)
def test_doppler_input_that_is_not_finite_or_in_range_is_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SimConfig(grid_shape=(3, 3), m=8, **{field: value})


@pytest.mark.parametrize(
    "overrides",
    [
        dict(speed_mps=1e300, carrier_hz=1e300),  # f_d itself overflows
        dict(speed_mps=1e10, carrier_hz=1e10, snapshot_interval_s=1e300),
        dict(los_doppler_frac=1e308),
        dict(los_doppler_frac=-1e308),
        dict(los_doppler_frac=1e307, speed_mps=0.05, m=1000),  # finite up to t = 256 of 999
    ],
)
def test_doppler_phase_that_overflows_is_rejected(overrides):
    with pytest.raises(ValueError, match="overflows") as excinfo:
        SimConfig(**{"grid_shape": (3, 3), "m": 8, **overrides})
    for name, value in overrides.items():
        assert f"{name}={value}" in str(excinfo.value)


def test_a_large_finite_drift_phase_is_accepted():
    # the last case above at m=8: every phase of the drift is finite
    cfg = SimConfig(grid_shape=(3, 3), m=8, los_doppler_frac=1e307, speed_mps=0.05)
    assert np.isfinite(simulate(cfg).uplink.data).all()


def test_zero_speed_and_negative_los_doppler_fraction_are_accepted():
    # a static channel (rho = J0(0) = 1) and a specular ray drifting backwards
    cfg = SimConfig(grid_shape=(3, 3), m=8, speed_mps=0.0, los_doppler_frac=-0.1)
    assert temporal_correlation(cfg) == 1.0
    assert np.isfinite(simulate(cfg).uplink.data).all()
