"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here. Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the PASS lines as they happen).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from mimolink.channel import ChannelRealization, apply_channel, sample_channel
from mimolink.constellation import build_constellation, map_bits_to_symbols, symbols_to_bits
from mimolink.estimation import build_pilot_matrix, estimate_lmmse, estimate_ls
from mimolink.framing import CrcSpec, crc_compute, crc_verify
from mimolink.metrics import tx_ebn0_db, tx_snr_db
from mimolink.neural import (
    Hyperparameters,
    NetworkSpec,
    cross_entropy,
    forward,
    gradient,
    init_network,
    predict,
)
from mimolink.receiver import detect_kmeans, detect_ml, equalize_zf
from mimolink.simulate import (
    SimConfig,
    load_config,
    run_sweep,
    substream,
    train_detector_network,
    write_csv,
)


def q_function(z: float) -> float:
    return 0.5 * special.erfc(z / math.sqrt(2))


def test_criterion_01_pilot_semi_unitarity():
    """All (N_t, n_pilot) grids give ||X_P X_P^* - I||_F < 1e-10."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for mode in ("unitary-random", "permutation"):
        for n_tx in (1, 2, 4, 8, 16):
            for n_pilot in range(n_tx, 65):
                x_p = build_pilot_matrix(n_tx, n_pilot, rng, mode)
                deviation = np.linalg.norm(x_p @ x_p.conj().T - np.eye(n_tx))
                worst = max(worst, deviation)
                assert deviation < 1e-10, (mode, n_tx, n_pilot, deviation)
    print(f"\n[PASS] criterion 1: pilot semi-unitarity, worst deviation {worst:.2e} < 1e-10")


def test_criterion_02_noiseless_ls_identity():
    """100 random (H, G) draws with sigma2 = 0: estimation MSE < 1e-18."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        n_tx = int(rng.integers(1, 9))
        n_rx = int(rng.integers(1, 9))
        n_pilot = int(rng.integers(n_tx, 17))
        gain = float(10 ** rng.uniform(-2, 2))
        h = sample_channel(n_rx, n_tx, rng)
        realization = ChannelRealization(h, gain, 0.0)
        x_p = build_pilot_matrix(n_tx, n_pilot, rng)
        h_hat = estimate_ls(apply_channel(realization, x_p, rng), x_p, gain)
        mse = float(np.mean(np.abs(h - h_hat) ** 2))
        worst = max(worst, mse)
        assert mse < 1e-18
    print(f"\n[PASS] criterion 2: noiseless LS identity, worst MSE {worst:.2e} < 1e-18")


def test_criterion_03_estimation_mse_closed_forms():
    """LS MSE ~= sigma2 and L-MMSE MSE ~= sigma2/(1+sigma2), both within 5%."""
    rng = np.random.default_rng(3)
    n_rx = n_tx = 4
    n_pilot = 8
    n_realizations = 2000
    for sigma2 in (0.01, 0.1, 1.0):
        ls_total = lmmse_total = 0.0
        for _ in range(n_realizations):
            h = sample_channel(n_rx, n_tx, rng)
            realization = ChannelRealization(h, 1.0, sigma2)
            x_p = build_pilot_matrix(n_tx, n_pilot, rng)
            y_p = apply_channel(realization, x_p, rng)
            ls_total += np.mean(np.abs(h - estimate_ls(y_p, x_p, 1.0)) ** 2)
            lmmse_total += np.mean(np.abs(h - estimate_lmmse(y_p, x_p, 1.0, sigma2)) ** 2)
        ls_mse = ls_total / n_realizations
        lmmse_mse = lmmse_total / n_realizations
        lmmse_expected = sigma2 / (1 + sigma2)
        assert abs(ls_mse - sigma2) < 0.05 * sigma2, (sigma2, ls_mse)
        assert abs(lmmse_mse - lmmse_expected) < 0.05 * lmmse_expected, (sigma2, lmmse_mse)
        assert lmmse_mse < ls_mse
        print(f"\n[PASS] criterion 3 @ sigma2={sigma2}: LS {ls_mse:.4g} ~ {sigma2}, "
              f"L-MMSE {lmmse_mse:.4g} ~ {lmmse_expected:.4g}, L-MMSE < LS")


def test_criterion_04_detector_identity():
    """Fixed-centroid K-means equals ML on 1e5 noisy symbols for every M."""
    rng = np.random.default_rng(4)
    n_symbols = 100_000
    for scheme, m in (("QPSK", 4), ("QAM", 16), ("QAM", 64), ("QAM", 256)):
        table = build_constellation(scheme, m)
        tx = rng.integers(0, m, size=n_symbols)
        noisy = table.points[tx] + 0.15 * (
            rng.standard_normal(n_symbols) + 1j * rng.standard_normal(n_symbols))
        ml_idx = detect_ml(noisy, table)
        km_idx = detect_kmeans(noisy, table)
        agreement = np.mean(ml_idx == km_idx)
        assert agreement == 1.0, f"M={m}: agreement {agreement}"
    print("\n[PASS] criterion 4: K-means == ML on 100% of 1e5 symbols for M in {4,16,64,256}")


def test_criterion_05_awgn_ber_oracle():
    """SISO QPSK with perfect CSI matches Q(sqrt(2 Eb/N0)) within 3 sigma."""
    table = build_constellation("QPSK", 4)
    n_bits = 200_000
    n_symbols = n_bits // table.k
    block = 1000
    for point, ebn0_dB in enumerate((0.0, 2.0, 4.0, 6.0)):
        ebn0 = 10 ** (ebn0_dB / 10)
        sigma2 = 1.0 / (table.k * ebn0)  # unit symbol energy, k bits per symbol
        rng = substream(5, point)
        tx_bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
        tx_idx = map_bits_to_symbols(tx_bits, table)
        errors = 0
        for start in range(0, n_symbols, block):
            idx = tx_idx[start:start + block]
            h = sample_channel(1, 1, rng)
            realization = ChannelRealization(h, 1.0, sigma2)
            y = apply_channel(realization, table.points[idx][None, :], rng)
            s_hat = equalize_zf(h, 1.0, y).ravel()  # perfect CSI
            rx_idx = detect_ml(s_hat, table)
            errors += np.count_nonzero(
                symbols_to_bits(rx_idx, table) != tx_bits[start * table.k:(start + block) * table.k])
        measured = errors / n_bits
        expected = q_function(math.sqrt(2 * ebn0))
        tolerance = 3 * math.sqrt(expected * (1 - expected) / n_bits)
        assert abs(measured - expected) < tolerance, (ebn0_dB, measured, expected)
        print(f"\n[PASS] criterion 5 @ Eb/N0={ebn0_dB:g} dB: BER {measured:.5f} vs "
              f"Q-oracle {expected:.5f} (3-sigma {tolerance:.5f})")


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_criterion_06_dnn_gradient_check(seed):
    """Analytic vs central finite differences, every parameter, rel err < 1e-5."""
    rng = np.random.default_rng(seed)
    net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=seed))
    x = rng.standard_normal((10, 2))
    labels = rng.integers(0, 4, size=10)
    weight_grads, bias_grads = gradient(net, x, labels)
    h = 1e-6
    worst = 0.0
    for arr, grad in zip(list(net.weights) + list(net.biases),
                         list(weight_grads) + list(bias_grads)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = cross_entropy(forward(net, x), labels)
            flat[i] = keep - h
            down = cross_entropy(forward(net, x), labels)
            flat[i] = keep
            fd = (up - down) / (2 * h)
            rel = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]))
            worst = max(worst, rel)
            assert rel < 1e-5
    print(f"\n[PASS] criterion 6 (seed {seed}): gradient check, worst rel err {worst:.2e} < 1e-5")


def test_criterion_07_dnn_detector_parity():
    """QPSK SISO at sigma2=1e-3: trained net agrees with ML on >= 99%."""
    config = SimConfig(
        N_t=1, N_r=1, constellation="QPSK", M_constellation=4, n_pilot=2,
        noise_power=(1e-3,), detector="dnn", dnn_train_samples=10_000,
    )
    table = build_constellation("QPSK", 4)
    network = train_detector_network(config, 1e-3, 0)

    rng = substream(config.seed, 7, 0)
    n_test = 10_000
    tx = rng.integers(0, 4, size=n_test)
    h = sample_channel(1, 1, rng)
    realization = ChannelRealization(h, 1.0, 1e-3)
    y = apply_channel(realization, table.points[tx][None, :], rng)
    s_hat = equalize_zf(h, 1.0, y).ravel()
    ml_idx = detect_ml(s_hat, table)
    dnn_idx = predict(network, np.column_stack([s_hat.real, s_hat.imag]))
    agreement = float(np.mean(dnn_idx == ml_idx))
    assert agreement >= 0.99, f"agreement {agreement}"
    print(f"\n[PASS] criterion 7: DNN vs ML agreement {agreement:.4f} >= 0.99 on 1e4 symbols")


def test_criterion_08_crc_error_detection():
    """Degree-2 default polynomial: all single flips and <=2 bursts detected."""
    spec = CrcSpec("111")
    rng = np.random.default_rng(8)
    checked = 0
    for _ in range(10):
        payload = rng.integers(0, 2, size=16).astype(np.uint8)
        codeword = np.concatenate([payload, crc_compute(payload, spec)])
        for length in (1, 2):
            for start in range(codeword.size - length + 1):
                corrupted = codeword.copy()
                corrupted[start:start + length] ^= 1
                assert not crc_verify(corrupted[:16], corrupted[16:], spec), (start, length)
                checked += 1
    print(f"\n[PASS] criterion 8: all {checked} single-bit and burst-2 errors detected")


def test_criterion_09_bler_monotone_and_thread_determinism(tmp_path):
    """Default sweep: BLER nondecreasing (one in-3-sigma inversion allowed)
    and byte-identical output.csv across process counts (workers)."""
    config = load_config()  # Table defaults: 1000 blocks per noise point
    records = run_sweep(config)
    blers = [r.bler for r in records]
    n = config.n_transmissions
    hard_violations = 0
    soft_inversions = 0
    for left, right in zip(blers, blers[1:]):
        if right >= left:
            continue
        pooled = max(min((left + right) / 2, 1.0 - 1e-9), 1e-9)
        three_sigma = 3 * math.sqrt(2 * pooled * (1 - pooled) / n)
        if left - right <= three_sigma:
            soft_inversions += 1
        else:
            hard_violations += 1
    assert hard_violations == 0, f"BLER drops beyond 3 sigma: {blers}"
    assert soft_inversions <= 1, f"more than one inversion: {blers}"

    serial_path = tmp_path / "serial.csv"
    threaded_path = tmp_path / "threaded.csv"
    write_csv(records, serial_path)
    write_csv(run_sweep(replace(config, workers=8)), threaded_path)
    assert serial_path.read_bytes() == threaded_path.read_bytes()
    print(f"\n[PASS] criterion 9: BLER curve {['%.3f' % b for b in blers]} monotone "
          f"({soft_inversions} in-tolerance inversion(s)); 1-process == 8-process CSV")


def test_criterion_10_metric_formulas():
    """Transmit-side SNR and Eb/N0 at the documented parameter values."""
    snr = tx_snr_db(5e-3, 16)
    ebn0 = tx_ebn0_db(5e-3, 16, 6)
    assert abs(snr - 10.969) < 1e-3, snr
    assert abs(ebn0 - 3.188) < 1e-3, ebn0
    print(f"\n[PASS] criterion 10: snr_tx_db {snr:.4f} ~ 10.969, ebn0_tx_db {ebn0:.4f} ~ 3.188")
