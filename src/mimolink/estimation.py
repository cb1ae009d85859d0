"""Pilot-based least-squares and linear-MMSE channel estimation.

Pilot matrices are semi-unitary by construction (X_P X_P^* = I), so both
estimators reduce to a scaled correlation Y_P X_P^*. The general matrix
forms are kept for user-supplied pilots. The received pilots
Y_P = sqrt(G) H X_P + N come from :func:`mimolink.channel.apply_channel`,
the same channel the data symbols cross.
"""

from __future__ import annotations

import numpy as np

from .channel import complex_gaussian

SEMI_UNITARY_TOL = 1e-10
PILOT_MODES = ("unitary-random", "permutation")


def build_pilot_matrix(n_tx: int, n_pilot: int, rng: np.random.Generator,
                       mode: str = "unitary-random") -> np.ndarray:
    """Semi-unitary pilot matrix X_P = Q A with X_P X_P^* = I.

    Q is an N_t x N_t unitary matrix and A the 0/1 matrix with ones at
    (i, i), so columns beyond N_t are zero. ``unitary-random`` draws Q by
    orthonormal factorization of a complex Gaussian matrix with column
    phases fixed (unique and uniform given the stream); ``permutation``
    uses a random column permutation of the identity.
    """
    if n_pilot < n_tx:
        raise ValueError(f"n_pilot = {n_pilot} must be at least N_t = {n_tx}")
    if mode == "unitary-random":
        z = complex_gaussian(rng, (n_tx, n_tx))
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
    elif mode == "permutation":
        q = np.eye(n_tx, dtype=complex)[:, rng.permutation(n_tx)]
    else:
        raise ValueError(f"unknown pilot mode {mode!r}; expected one of {PILOT_MODES}")
    x_p = np.zeros((n_tx, n_pilot), dtype=complex)
    x_p[:, :n_tx] = q
    return x_p


def _gram_and_correlation(y_p, x_p):
    y_p = np.asarray(y_p, dtype=complex)
    x_p = np.asarray(x_p, dtype=complex)
    if y_p.ndim != 2 or x_p.ndim != 2 or y_p.shape[1] != x_p.shape[1]:
        raise ValueError(f"inconsistent pilot shapes {y_p.shape} and {x_p.shape}")
    return x_p @ x_p.conj().T, y_p @ x_p.conj().T


def _is_semi_unitary(gram: np.ndarray) -> bool:
    return bool(np.linalg.norm(gram - np.eye(gram.shape[0])) < SEMI_UNITARY_TOL)


def estimate_ls(y_p: np.ndarray, x_p: np.ndarray, G: float) -> np.ndarray:
    """Least-squares channel estimate.

    H_hat = (1/sqrt(G)) Y_P X_P^* (X_P X_P^*)^{-1}; when the pilots are
    semi-unitary within tolerance this is just (1/sqrt(G)) Y_P X_P^*.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    gram, corr = _gram_and_correlation(y_p, x_p)
    if _is_semi_unitary(gram):
        return corr / np.sqrt(G)
    # corr @ inv(gram), solved without forming the inverse
    return np.linalg.solve(gram.conj().T, corr.conj().T).conj().T / np.sqrt(G)


def estimate_lmmse(y_p: np.ndarray, x_p: np.ndarray, G: float, sigma2: float) -> np.ndarray:
    """Linear-MMSE channel estimate.

    H_hat = sqrt(G) Y_P X_P^* (G X_P X_P^* + sigma2 I)^{-1}; with
    semi-unitary pilots this is (sqrt(G) / (G + sigma2)) Y_P X_P^*.
    Coincides with the LS estimate at sigma2 = 0.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    gram, corr = _gram_and_correlation(y_p, x_p)
    if _is_semi_unitary(gram):
        return corr * (np.sqrt(G) / (G + sigma2))
    regularized = G * gram + sigma2 * np.eye(gram.shape[0])
    return np.sqrt(G) * np.linalg.solve(regularized.conj().T, corr.conj().T).conj().T
