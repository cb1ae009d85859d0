"""Pilot-based least-squares and linear-MMSE channel estimation.

Pilot matrices are semi-unitary by construction (X_P X_P^* = I), so both
estimators reduce to a scaled correlation Y_P X_P^*. The general matrix
forms are kept for user-supplied pilots. The received pilots
Y_P = sqrt(G) H X_P + N come from :func:`mimolink.channel.apply_channel`
over the H and G the data cross, with N drawn by ``sample_noise``.
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
    uses a random column permutation of the identity. The draw is
    :func:`draw_pilot_basis`, the rest :func:`pilots_from_basis`.
    """
    return pilots_from_basis(draw_pilot_basis(n_tx, rng, mode), n_pilot, mode)


def draw_pilot_basis(n_tx: int, rng, mode: str = "unitary-random") -> np.ndarray:
    """The random N_t x N_t part of a pilot matrix: the complex Gaussian
    matrix to factorize (``unitary-random``) or the permuted identity
    (``permutation``). For ``unitary-random``, ``rng`` may also be the
    standard normal draws made beforehand, as :func:`complex_gaussian`
    takes them."""
    if mode == "unitary-random":
        return complex_gaussian(rng, (n_tx, n_tx))
    if mode == "permutation":
        return np.eye(n_tx, dtype=complex)[:, rng.permutation(n_tx)]
    raise ValueError(f"unknown pilot mode {mode!r}; expected one of {PILOT_MODES}")


def pilots_from_basis(basis: np.ndarray, n_pilot: int, mode: str = "unitary-random") -> np.ndarray:
    """Pilot matrices (..., N_t, n_pilot) from bases (..., N_t, N_t) drawn by
    :func:`draw_pilot_basis`; a stack of bases takes one stacked
    factorization, each matrix bit for bit its own."""
    n_tx = basis.shape[-1]
    if n_pilot < n_tx:
        raise ValueError(f"n_pilot = {n_pilot} must be at least N_t = {n_tx}")
    q = basis
    if mode == "unitary-random":
        q, r = np.linalg.qr(basis)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        q *= (diag / np.abs(diag))[..., None, :]
    x_p = np.zeros(basis.shape[:-1] + (n_pilot,), dtype=complex)
    x_p[..., :n_tx] = q
    return x_p


def _gram_and_correlation(y_p, x_p):
    y_p = np.asarray(y_p, dtype=complex)
    x_p = np.asarray(x_p, dtype=complex)
    if (y_p.ndim < 2 or y_p.ndim != x_p.ndim or y_p.shape[:-2] != x_p.shape[:-2]
            or y_p.shape[-1] != x_p.shape[-1]):
        raise ValueError(f"inconsistent pilot shapes {y_p.shape} and {x_p.shape}")
    x_h = x_p.conj().swapaxes(-1, -2)
    return x_p @ x_h, y_p @ x_h


def _not_semi_unitary(gram: np.ndarray) -> np.ndarray:
    """A bool per Gram matrix: true where it is not the identity within
    tolerance. It is 0-d for a single matrix, and indexing with it then
    views that matrix as a stack of one."""
    deviation = (gram - np.eye(gram.shape[-1])).view(np.float64)
    np.square(deviation, out=deviation)
    return ~(deviation.sum(axis=(-2, -1)) < SEMI_UNITARY_TOL ** 2)


def _solve_right(corr: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """corr @ inv(matrix) per stacked matrix, solved without forming the inverse."""
    return np.linalg.solve(matrix.conj().swapaxes(-1, -2),
                           corr.conj().swapaxes(-1, -2)).conj().swapaxes(-1, -2)


def estimate_ls(y_p: np.ndarray, x_p: np.ndarray, G: float) -> np.ndarray:
    """Least-squares channel estimate.

    H_hat = (1/sqrt(G)) Y_P X_P^* (X_P X_P^*)^{-1}; when the pilots are
    semi-unitary within tolerance this is just (1/sqrt(G)) Y_P X_P^*.
    ``y_p`` (..., N_r, n_pilot) and ``x_p`` (..., N_t, n_pilot) may carry
    the same leading stack axes; each matrix is checked and estimated on
    its own, bit for bit as in a call of its own.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    gram, corr = _gram_and_correlation(y_p, x_p)
    general = _not_semi_unitary(gram)
    if general.any():
        corr[general] = _solve_right(corr[general], gram[general])
    corr /= np.sqrt(G)
    return corr


def estimate_lmmse(y_p: np.ndarray, x_p: np.ndarray, G: float, sigma2: float) -> np.ndarray:
    """Linear-MMSE channel estimate.

    H_hat = sqrt(G) Y_P X_P^* (G X_P X_P^* + sigma2 I)^{-1}; with
    semi-unitary pilots this is (sqrt(G) / (G + sigma2)) Y_P X_P^*.
    Coincides with the LS estimate at sigma2 = 0. Takes stacks like
    :func:`estimate_ls`.
    """
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    gram, corr = _gram_and_correlation(y_p, x_p)
    h_hat = corr * (np.sqrt(G) / (G + sigma2))
    general = _not_semi_unitary(gram)
    if general.any():
        regularized = G * gram[general] + sigma2 * np.eye(gram.shape[-1])
        h_hat[general] = np.sqrt(G) * _solve_right(corr[general], regularized)
    return h_hat
