"""Rayleigh block-fading MIMO channel with log-distance large-scale gain.

The received vector is y = sqrt(G) H x + n where H is Frobenius-normalized
per realization (||H||_F^2 = N_r * N_t exactly) and n has i.i.d. zero-mean
complex normal entries of total variance sigma2 each. :func:`sample_channel`
draws H, :func:`sample_noise` draws n, and :func:`apply_channel` forms y.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 2.99792458e8  # m/s
REFERENCE_DISTANCE_M = 1.0


def large_scale_gain(f_c: float, d: float, eta: float) -> float:
    """Linear power gain: free-space loss at 1 m, then a d^-eta roll-off.

    G = (c / (4 pi f_c d_ref))^2 * (d_ref / d)^eta with d_ref = 1 m, f_c
    in Hz and d in m; reduces to plain free-space path loss for eta = 2.
    """
    if not f_c > 0:
        raise ValueError(f"f_c must be positive, got {f_c}")
    if not d >= REFERENCE_DISTANCE_M:
        raise ValueError(f"d must be at least {REFERENCE_DISTANCE_M} m, got {d}")
    if not eta >= 2:
        raise ValueError(f"eta must be at least 2, got {eta}")
    fspl_ref = (SPEED_OF_LIGHT / (4.0 * math.pi * f_c * REFERENCE_DISTANCE_M)) ** 2
    return fspl_ref * (REFERENCE_DISTANCE_M / d) ** eta


_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _as_shape(shape) -> tuple:
    """A shape as a tuple; an integer is a vector length."""
    return (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)


def _lead_shape(normals: np.ndarray, shape: tuple) -> tuple:
    """Leading stack axes of draws made beforehand, laid out (..., 2, *shape)."""
    lead = normals.shape[:normals.ndim - len(shape) - 1]
    if normals.shape != lead + (2,) + shape:
        raise ValueError(f"draws have shape {normals.shape}, expected (..., 2) + {shape}")
    return lead


def complex_gaussian(rng, shape) -> np.ndarray:
    """I.i.d. draws from the zero-mean unit-variance complex normal law.

    ``rng`` is the stream to draw the real parts and then the imaginary
    parts from, or those standard normal draws made beforehand as an
    array (..., 2, *shape), which gives a stack (..., *shape). Either way
    each entry is (a + 1j b) / sqrt(2) bit for bit.
    """
    shape = _as_shape(shape)
    normals = rng.standard_normal((2,) + shape) if isinstance(rng, np.random.Generator) else rng
    out = np.empty(_lead_shape(normals, shape) + shape, dtype=complex)
    tail = (slice(None),) * len(shape)
    np.multiply(normals[(..., 0) + tail], _SQRT_HALF, out=out.real)
    np.multiply(normals[(..., 1) + tail], _SQRT_HALF, out=out.imag)
    return out


def sample_channel(n_rx: int, n_tx: int, rng) -> np.ndarray:
    """Rayleigh fading matrix rescaled so that ||H||_F^2 = n_rx * n_tx exactly.

    ``rng`` is the stream to draw from, or the standard normal draws made
    beforehand (..., 2, n_rx, n_tx) as :func:`complex_gaussian` takes
    them, which gives a stack, each matrix scaled bit for bit as on its own.
    """
    if n_rx < 1 or n_tx < 1:
        raise ValueError(f"antenna counts must be >= 1, got ({n_rx}, {n_tx})")
    h = complex_gaussian(rng, (n_rx, n_tx))
    # np.linalg.norm's squared norm: a ddot per strided part (copies or einsum round otherwise)
    re, im = (part.reshape(-1, 1, n_rx * n_tx) for part in (h.real, h.imag))
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    h *= (np.sqrt(n_rx * n_tx) / np.sqrt(sq)).reshape(h.shape[:-2] + (1, 1))
    return h


def sample_noise(shape, sigma2: float, rng) -> np.ndarray:
    """Complex noise of the given shape (an int is a vector length), per-entry
    variance sigma2: sqrt(sigma2) CN(0, 1), or zeros without a draw at sigma2 = 0.

    ``rng`` is the stream to draw from, or the standard normal draws made
    beforehand (..., 2, *shape) as :func:`complex_gaussian` takes them,
    which gives a stack (..., *shape); at sigma2 = 0 they are not read.
    """
    if not sigma2 >= 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if sigma2 == 0:
        shape = _as_shape(shape)
        lead = () if isinstance(rng, np.random.Generator) else _lead_shape(rng, shape)
        return np.zeros(lead + shape, dtype=complex)
    noise = complex_gaussian(rng, shape)
    noise *= np.sqrt(sigma2)
    return noise


def apply_channel(H: np.ndarray, G: float, x, noise) -> np.ndarray:
    """y = sqrt(G) H x + n for a channel H (N_r x N_t) and large-scale gain G.

    ``x`` is one column vector of length N_t or a batch of channel uses as
    an (N_t, n_uses) matrix, such as a pilot matrix X_P; the output
    matches. A stack of channels H (..., N_r, N_t) takes a stack of
    batches (..., N_t, n_uses), each product bit for bit its own.
    ``noise`` is n in the output's shape, drawn by :func:`sample_noise`
    or beforehand. Callers apply the 1/sqrt(N_t) transmit power scaling
    to data symbols before calling.
    """
    if not G > 0:
        raise ValueError(f"G must be positive, got {G}")
    x = np.asarray(x, dtype=complex)
    n_tx = H.shape[-1]
    stack = H.shape[:-2]
    if stack:
        fits = x.ndim == H.ndim and x.shape[:-1] == stack + (n_tx,)
    else:
        fits = x.ndim in (1, 2) and x.shape[0] == n_tx
    if not fits:
        raise ValueError(f"x has shape {x.shape}, expected ({n_tx},) or ({n_tx}, n) "
                         f"per channel of the stack {H.shape}")
    shape = H.shape[:-1] + x.shape[len(stack) + 1:]
    if np.shape(noise) != shape:
        raise ValueError(f"noise has shape {np.shape(noise)}, expected {shape}")
    y = H @ x
    y *= np.sqrt(G)
    y += noise
    return y
