"""Stored records for the link paths that the golden CSV does not reach.

``tests/data/golden_default_seed7.csv`` pins the default link: unitary-random
pilots, LS, ZF and ML. Each variant below runs another path (K-means, L-MMSE,
permutation pilots, N_t > N_r, the log-distance gain, a long CRC-16 block, a
payload file) at a fixed seed, and its CSV must match the one stored in
``tests/data/variants/`` byte for byte. Like the golden file, the stored
files are never regenerated to make a change pass. The neural detector has
no file here: its training products rest on the BLAS blocking.
"""

from pathlib import Path

import pytest

from mimolink.simulate import SimConfig, run_sweep, write_csv

VARIANT_DIR = Path(__file__).parent / "data" / "variants"

VARIANTS = {
    "kmeans_lmmse": dict(detector="kmeans", estimator="lmmse", equalizer="lmmse",
                         noise_power=(1e-3, 5e-3)),
    "permutation_lmmse": dict(pilot_mode="permutation", estimator="lmmse",
                              noise_power=(1e-3, 5e-3)),
    "nt4_nr2_lmmse": dict(N_t=4, N_r=2, M_constellation=16, n_pilot=4, estimator="lmmse",
                          equalizer="lmmse", noise_power=(1e-3, 1e-2)),
    "path_loss": dict(N_t=4, N_r=4, M_constellation=16, n_pilot=4,
                      G_override=None, noise_power=(1e-10, 1e-9)),
    "crc16_long_block": dict(N_t=4, N_r=16, M_constellation=16, n_pilot=8, codeword_size=4096,
                             crc_length=16, crc_generator="10001000000100001",
                             noise_power=(1e-3, 5e-2)),
    "payload_file": dict(N_t=4, N_r=4, M_constellation=16, n_pilot=4,
                         payload=str(VARIANT_DIR / "payload.bin"), noise_power=(1e-3, 1e-2)),
}


def variant_config(name: str) -> SimConfig:
    return SimConfig(seed=3, n_transmissions=60, **VARIANTS[name])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_reproduces_stored_csv(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    write_csv(run_sweep(variant_config(name)), path)
    assert path.read_bytes() == (VARIANT_DIR / f"{name}.csv").read_bytes()
