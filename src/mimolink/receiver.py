"""Linear equalization and nearest-point symbol detection.

Detection comes in two flavors: maximum likelihood, which slices I and Q
to their nearest grid levels, and the assignment step of K-means with
centroids frozen at the constellation points in the (I, Q) plane. Both
break ties toward the lowest constellation index, so their decisions
coincide wherever the distances are resolvable in double precision. They
part only near a level midpoint, where K-means' squared distances round
to a tie; that window widens with the other coordinate, and once a
coordinate of ``s_hat`` passes about 1e7 it covers a growing share of
symbols. Inputs must be finite, as the simulator's receive pass
guarantees.
"""

from __future__ import annotations

import math

import numpy as np

from .constellation import ConstellationTable

# bound on the entries of a per-chunk (n_symbols x M) K-means distance
# plane, 32 KiB at 8 bytes an entry: small enough that the planes stay in
# cache, large enough that the per-step numpy calls are shared over many
# symbols; 1 << 14 ran the K-means benchmark sweep no faster
_DETECT_ENTRIES = 1 << 12


def equalize_zf(h_hat: np.ndarray, G: float, y) -> np.ndarray:
    """Zero-forcing: left pseudo-inverse of the channel estimate, scaled by 1/sqrt(G).

    Returns s_hat = (1/sqrt(G)) (H^* H)^{-1} H^* y, one row per transmit
    stream: shape (N_t,) or (N_t, n_uses), following y. A stack of
    estimates (..., N_r, N_t) takes a stack of received matrices
    (..., N_r, n_uses) and solves each system bit for bit as a call of its
    own. Requires N_r >= N_t and a full column rank estimate; a
    rank-deficient H_hat raises ``numpy.linalg.LinAlgError`` (recorded by
    the harness as an equalization failure, not a crash), for a whole
    stack if one of its estimates is.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    n_rx, n_tx = h_hat.shape[-2:]
    if n_rx < n_tx:
        raise ValueError(f"zero-forcing needs N_r >= N_t, got shape {h_hat.shape}")
    if not G > 0:
        raise ValueError(f"G must be positive, got {G}")
    h_h = h_hat.conj().swapaxes(-1, -2)
    return np.linalg.solve(h_h @ h_hat, h_h @ np.asarray(y, dtype=complex)) / np.sqrt(G)


def equalize_lmmse(h_hat: np.ndarray, G: float, sigma2: float, y) -> np.ndarray:
    """Linear-MMSE equalizer; the sigma2 * N_t * I regularizer reflects the
    per-stream transmit power 1/N_t.

    Returns s_hat = sqrt(G) (G H^* H + sigma2 N_t I)^{-1} H^* y, shaped like
    the zero-forcing output, stacks included; it coincides with
    zero-forcing at sigma2 = 0 and shrinks toward zero as sigma2 grows.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    n_tx = h_hat.shape[-1]
    if not G > 0:
        raise ValueError(f"G must be positive, got {G}")
    if not sigma2 >= 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    h_h = h_hat.conj().swapaxes(-1, -2)
    regularized = G * (h_h @ h_hat) + sigma2 * n_tx * np.eye(n_tx)
    return np.sqrt(G) * np.linalg.solve(regularized, h_h @ np.asarray(y, dtype=complex))


def detect_ml(s_hat, table: ConstellationTable) -> np.ndarray:
    """Maximum-likelihood detection: the index of the nearest constellation
    point per symbol.

    On a square grid the nearest point is the nearest level on I paired
    with the nearest level on Q, so each axis is sliced against the
    sqrt(M) - 1 midpoints of its levels and point (i, q) is index
    i * sqrt(M) + q. Inputs must be finite and in table coordinates (the
    1/sqrt(N_t) transmit scaling removed). A symbol exactly on a midpoint
    takes the lower level, so ties break toward the lowest index.
    """
    s = np.asarray(s_hat, dtype=complex).ravel()
    side = math.isqrt(table.M)
    levels = table.points.real[::side]
    midpoints = (levels[:-1] + levels[1:]) / 2
    indices = midpoints.searchsorted(s.real).astype(np.int64, copy=False)
    indices *= side
    indices += midpoints.searchsorted(s.imag)
    return indices


def detect_kmeans(s_hat_batch, table: ConstellationTable) -> np.ndarray:
    """Assignment step of K-means with centroids frozen at the constellation.

    Symbols and centroids live in the two-dimensional (I, Q) plane; each
    point takes the label of the nearest centroid in Euclidean norm, ties
    toward the lowest index. No centroid update is performed.
    """
    s = np.asarray(s_hat_batch, dtype=complex).ravel()
    indices = np.empty(s.size, dtype=np.int64)
    step = max(1, _DETECT_ENTRIES // table.M)
    for start in range(0, s.size, step):
        chunk = s[start:start + step]
        dx = chunk.real[:, None] - table.points.real
        dy = chunk.imag[:, None] - table.points.imag
        np.square(dx, out=dx)
        np.square(dy, out=dy)
        dx += dy
        indices[start:start + chunk.size] = dx.argmin(axis=1)
    return indices
