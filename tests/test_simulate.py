"""The simulator against what it claims: fixed bytes for a fixed seed, the
configured temporal correlation of the diffuse part and the configured SNR."""

import hashlib
import math

import numpy as np
import pytest

from csisplit.simulate import SimConfig, simulate, temporal_correlation

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


@pytest.mark.parametrize("kwargs", [{}, {"temporal_rho": 0.5}, {"temporal_rho": 0.0}, {"temporal_rho": 0.97}])
def test_diffuse_lag_one_autocorrelation_is_the_configured_one(kwargs):
    cfg = SimConfig(**kwargs)
    out = simulate(cfg)
    # truth minus the specular part is the diffuse part, A_n sqrt(1/(K+1)) v_n
    diffuse = out.truth.data - out.large_scale.data
    diffuse = diffuse / np.sqrt(np.mean(np.abs(diffuse) ** 2, axis=0))  # equal weight per node
    lag1 = np.sum(diffuse[1:] * np.conj(diffuse[:-1])) / np.sum(np.abs(diffuse[:-1]) ** 2)
    # 102,400 samples; measured errors were below 0.005 at every rho here
    assert lag1.real == pytest.approx(temporal_correlation(cfg), abs=0.02)
    assert abs(lag1.imag) < 0.02


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
