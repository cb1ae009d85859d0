"""Linear equalization and nearest-point symbol detection.

Detection comes in two equivalent flavors: a maximum-likelihood rule over
complex distances and the assignment step of K-means with centroids frozen
at the constellation points in the (I, Q) plane. Both break ties toward the
lowest constellation index, so their decisions coincide exactly.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationTable

# bound on the per-chunk (n_symbols x M) distance matrix
_DETECT_CHUNK = 1 << 13


def equalize_zf(h_hat: np.ndarray, G: float, y) -> np.ndarray:
    """Zero-forcing: left pseudo-inverse of the channel estimate, scaled by 1/sqrt(G).

    Returns s_hat = (1/sqrt(G)) (H^* H)^{-1} H^* y, one row per transmit
    stream: shape (N_t,) or (N_t, n_uses), following y. Requires
    N_r >= N_t and a full column rank estimate; a rank-deficient H_hat
    raises ``numpy.linalg.LinAlgError`` (recorded by the harness as an
    equalization failure, not a crash).
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    n_rx, n_tx = h_hat.shape
    if n_rx < n_tx:
        raise ValueError(f"zero-forcing needs N_r >= N_t, got shape {h_hat.shape}")
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    gram = h_hat.conj().T @ h_hat
    return np.linalg.solve(gram, h_hat.conj().T @ np.asarray(y, dtype=complex)) / np.sqrt(G)


def equalize_lmmse(h_hat: np.ndarray, G: float, sigma2: float, y) -> np.ndarray:
    """Linear-MMSE equalizer; the sigma2 * N_t * I regularizer reflects the
    per-stream transmit power 1/N_t.

    Returns s_hat = sqrt(G) (G H^* H + sigma2 N_t I)^{-1} H^* y, shaped like
    the zero-forcing output; it coincides with zero-forcing at sigma2 = 0
    and shrinks toward zero as sigma2 grows.
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    n_tx = h_hat.shape[1]
    if G <= 0:
        raise ValueError(f"G must be positive, got {G}")
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    regularized = G * (h_hat.conj().T @ h_hat) + sigma2 * n_tx * np.eye(n_tx)
    return np.sqrt(G) * np.linalg.solve(regularized, h_hat.conj().T @ np.asarray(y, dtype=complex))


def detect_ml(s_hat, table: ConstellationTable) -> np.ndarray:
    """Maximum-likelihood detection: the index of the nearest constellation
    point per symbol.

    Inputs must be in table coordinates (the 1/sqrt(N_t) transmit scaling
    removed). Ties break toward the lowest index.
    """
    s = np.asarray(s_hat, dtype=complex).ravel()
    indices = np.empty(s.size, dtype=np.int64)
    for start in range(0, s.size, _DETECT_CHUNK):
        chunk = s[start:start + _DETECT_CHUNK]
        distances = np.abs(chunk[:, None] - table.points[None, :])
        indices[start:start + chunk.size] = distances.argmin(axis=1)
    return indices


def detect_kmeans(s_hat_batch, table: ConstellationTable) -> np.ndarray:
    """Assignment step of K-means with centroids frozen at the constellation.

    Symbols and centroids live in the two-dimensional (I, Q) plane; each
    point takes the label of the nearest centroid in Euclidean norm, ties
    toward the lowest index. No centroid update is performed.
    """
    s = np.asarray(s_hat_batch, dtype=complex).ravel()
    features = np.column_stack([s.real, s.imag])
    centroids = np.column_stack([table.points.real, table.points.imag])
    indices = np.empty(s.size, dtype=np.int64)
    for start in range(0, s.size, _DETECT_CHUNK):
        chunk = features[start:start + _DETECT_CHUNK]
        sq_dist = ((chunk[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        indices[start:start + chunk.shape[0]] = sq_dist.argmin(axis=1)
    return indices
