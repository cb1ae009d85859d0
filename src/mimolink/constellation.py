"""Gray-coded QPSK and square M-QAM constellations.

Tables are normalized to unit average symbol energy and label each point
with a per-axis binary-reflected Gray code, I bits first, then Q bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SUPPORTED_SIZES = (4, 16, 64, 256)


@dataclass(frozen=True)
class ConstellationTable:
    """Immutable table of M constellation points and their bit labels.

    ``points[m]`` carries the label ``labels[m]``; the table is safe to
    share across concurrent trials.
    """

    scheme: str
    M: int
    k: int
    points: np.ndarray        # (M,) complex, unit average energy
    labels: tuple[str, ...]   # k-bit Gray-coded strings
    scale: float              # factor applied to the raw odd-integer grid

    @cached_property
    def label_bits(self) -> np.ndarray:
        """Labels as a (M, k) uint8 array."""
        return np.array([[int(c) for c in lab] for lab in self.labels], dtype=np.uint8)

    @cached_property
    def index_by_word(self) -> np.ndarray:
        """Lookup from the integer value of a k-bit label to its index."""
        inverse = np.empty(self.M, dtype=np.int64)
        for m, lab in enumerate(self.labels):
            inverse[int(lab, 2)] = m
        return inverse


def _reflected_gray(n_bits: int) -> list[str]:
    """Binary-reflected Gray code for one axis, as n_bits-wide strings."""
    return [format(i ^ (i >> 1), f"0{n_bits}b") for i in range(1 << n_bits)]


def build_constellation(scheme: str, M: int) -> ConstellationTable:
    """Construct a Gray-coded, unit-energy QPSK or square M-QAM table.

    Raw I/Q amplitudes are the odd integers -sqrt(M)+1, ..., sqrt(M)-1 per
    axis (QPSK: +/-1); the grid is then scaled to unit average energy.
    Each axis is labeled with a k/2-bit reflected Gray code and a point's
    label is the concatenation of its I-axis and Q-axis codes.
    """
    if scheme not in ("QPSK", "QAM"):
        raise ValueError(f"unknown constellation scheme {scheme!r}; expected 'QPSK' or 'QAM'")
    if M < 2 or M & (M - 1):
        raise ValueError(f"constellation size M = {M} is invalid. Must be a power of two")
    if M not in SUPPORTED_SIZES:
        raise ValueError(f"unsupported constellation size M = {M}; supported sizes: {SUPPORTED_SIZES}")
    if scheme == "QPSK" and M != 4:
        raise ValueError(f"QPSK implies M = 4, got M = {M}")

    side = math.isqrt(M)
    k = int(math.log2(M))
    levels = np.arange(-side + 1, side, 2, dtype=np.float64)
    grid = levels[:, None] + 1j * levels[None, :]  # rows sweep I, columns sweep Q
    scale = 1.0 / math.sqrt(float(np.mean(np.abs(grid) ** 2)))
    axis_codes = _reflected_gray(k // 2)
    labels = tuple(axis_codes[i] + axis_codes[q] for i in range(side) for q in range(side))
    return ConstellationTable(
        scheme=scheme,
        M=M,
        k=k,
        points=(grid * scale).ravel(),
        labels=labels,
        scale=scale,
    )


def _checked_bits(bits) -> np.ndarray:
    """``bits`` as uint8, or a ValueError naming the first entry that is not
    0 or 1 and its position, checked before the cast (which makes -1 255).

    An unsigned or bool array is decided by one ``max()`` reduction; the
    mask pass that finds the position runs only where an entry is bad.
    Other dtypes take one mask pass of two comparisons.
    """
    bits = np.asarray(bits)
    if bits.dtype.kind in "bu":
        if not bits.size or bits.max() <= 1:
            return bits.astype(np.uint8, copy=False)
        bad = bits > 1
    else:
        bad = (bits != 0) & (bits != 1)
    if bad.any():
        position = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"bits must be 0 or 1, got {bits[position].item()!r} "
                         f"at position {position[0] if bits.ndim == 1 else position}")
    return bits.astype(np.uint8, copy=False)


def _checked_integers(values, name: str) -> np.ndarray:
    """``values`` as a flat array, or a ValueError naming the first entry
    that is not an integer and its position: the int64 cast would truncate
    it. An integer or bool array takes no pass; an integral float passes."""
    values = np.ravel(values)
    if values.dtype.kind not in "biu":
        bad = np.flatnonzero(values != np.floor(values))  # NaN fails too
        if bad.size:
            raise ValueError(f"{name} must be integers, got {values[bad[0]].item()!r} at position {bad[0]}")
    return values


def map_bits_to_symbols(bits, table: ConstellationTable) -> np.ndarray:
    """Map a bit stream to symbol indices, k bits per symbol.

    The bit count must be a multiple of ``table.k``; callers pad first.
    An entry that is not a bit is named by its position in the flat stream.
    Each k-bit word is one float32 product with ``[2^(k-1), ..., 1]``: with
    k <= 8 every partial sum is an integer below 256, exact in float32 in
    any order of addition, so the BLAS product gives the integer words.
    """
    bits = _checked_bits(np.ravel(bits))
    if bits.size % table.k:
        raise ValueError(
            f"bit count {bits.size} is not a multiple of k = {table.k}; pad the stream first"
        )
    weights = (1 << np.arange(table.k - 1, -1, -1)).astype(np.float32)
    words = bits.reshape(-1, table.k) @ weights
    return table.index_by_word[words.astype(np.intp)]


def symbols_to_bits(indices, table: ConstellationTable) -> np.ndarray:
    """Concatenate the labels of the given symbol indices; inverse of
    :func:`map_bits_to_symbols`."""
    idx = _checked_integers(indices, "symbol indices")
    # take wraps negative indices, so the range is checked first
    if idx.size and (idx.min() < 0 or idx.max() >= table.M):
        bad = idx[(idx < 0) | (idx >= table.M)]
        raise ValueError(f"symbol index {bad[0]} outside [0, {table.M})")
    return table.label_bits.take(idx.astype(np.int64, copy=False), axis=0).ravel()
