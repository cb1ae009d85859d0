"""Radio-link and classification performance measures.

The transmit-side SNR and Eb/N0 are dimensionless ratios in dB under the
unit-power normalization (per-symbol transmit power 1/N_t): logs are base
10 throughout.
"""

from __future__ import annotations

import numpy as np


def error_vector(H: np.ndarray, H_hat: np.ndarray) -> np.ndarray:
    """e = vec(H) - vec(H_hat), column-major; a stack (..., N_r, N_t) gives rows (..., N_r * N_t)."""
    H, H_hat = np.asarray(H), np.asarray(H_hat)
    if H.shape != H_hat.shape:
        raise ValueError(f"shape mismatch: {H.shape} vs {H_hat.shape}")
    H, H_hat = np.atleast_2d(H, H_hat)
    return (H.swapaxes(-1, -2) - H_hat.swapaxes(-1, -2)).reshape(H.shape[:-2] + (-1,))


def estimation_mse(e: np.ndarray, n_rx: int, n_tx: int) -> float | np.ndarray:
    """Squared Euclidean norm of e divided by the element count N_r * N_t; a
    stack of rows (..., N_r * N_t) gives one MSE per row, as its own call would."""
    e = np.ascontiguousarray(e)  # row sums of another layout round otherwise
    if e.shape[-1] != n_rx * n_tx:
        raise ValueError(f"error vector has {e.shape[-1]} entries, expected {n_rx * n_tx}")
    return np.sum(np.abs(e) ** 2, axis=-1) / (n_rx * n_tx)


def tx_snr_db(sigma2: float, n_tx: int) -> float:
    """Transmit-side SNR: -10 log10(sigma2 * N_t)."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    return float(-10.0 * np.log10(sigma2 * n_tx))


def tx_ebn0_db(sigma2: float, n_tx: int, k: int) -> float:
    """Transmit-side Eb/N0: -10 log10(k * sigma2 * N_t)."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")
    if not k >= 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return float(-10.0 * np.log10(k * sigma2 * n_tx))


def bler(crc_ok_flags) -> float:
    """Fraction of blocks whose CRC check failed."""
    flags = np.asarray(crc_ok_flags, dtype=bool).ravel()
    if flags.size == 0:
        raise ValueError("BLER is undefined over zero blocks")
    return float(np.count_nonzero(~flags) / flags.size)


def _mismatch_rate(a, b) -> float | np.ndarray:
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 2 and a.shape == b.shape:
        if a.shape[1] == 0:
            raise ValueError("rate is undefined over empty sequences")
        return np.count_nonzero(a != b, axis=1) / a.shape[1]
    a, b = a.ravel(), b.ravel()
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ValueError("rate is undefined over empty sequences")
    return float(np.count_nonzero(a != b) / a.size)


def ser(tx_indices, rx_indices) -> float | np.ndarray:
    """Symbol error rate: fraction of detected indices that differ; a pair
    of equal (B, n) stacks gives one rate per row, as its own call would."""
    return _mismatch_rate(tx_indices, rx_indices)


def ber(tx_bits, rx_bits) -> float | np.ndarray:
    """Bit error rate over aligned bit sequences; a pair of equal (B, n)
    stacks gives one rate per row, as its own call would."""
    return _mismatch_rate(tx_bits, rx_bits)
