"""CRC framing: one payload of up to ``codeword_size`` bits per transport block.

Block layout is [payload | zero padding | CRC]: the CRC covers the payload
only and always sits at the very end of the block. Block length is the
smallest multiple of k * N_t that fits payload plus CRC, so every block
fills whole channel uses at the configured transmission rank.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constellation import _checked_bits


class FramingError(ValueError):
    """Received bits cannot be reconciled with the transport-block layout."""


@dataclass(frozen=True)
class CrcSpec:
    """Full CRC generator polynomial as a bit string, MSB first.

    ``"111"`` is x^2 + x + 1 and yields a 2-bit CRC. The leading and
    trailing coefficients must both be 1.
    """

    generator: str

    def __post_init__(self):
        if len(self.generator) < 2 or set(self.generator) - {"0", "1"}:
            raise ValueError(
                f"CRC generator must be a bit string of length >= 2, got {self.generator!r}"
            )
        if self.generator[0] != "1" or self.generator[-1] != "1":
            raise ValueError(
                f"CRC generator must have leading and trailing 1 bits, got {self.generator!r}"
            )

    @property
    def crc_length(self) -> int:
        return len(self.generator) - 1


def load_payload_bits(path) -> np.ndarray:
    """Read a file as a bit stream, MSB first within each byte."""
    data = Path(path).read_bytes()
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


# message bits per remainder-table product; the table holds this many rows
_CRC_CHUNK_BITS = 1024


@functools.lru_cache(maxsize=8)
def _remainder_table(generator: str) -> np.ndarray:
    """(w, r) bit matrix whose row j is x^(w-1-j) * x^r mod g, MSB first.

    w = max(_CRC_CHUNK_BITS, r). Row j is the CRC of a w-bit chunk whose
    only 1 bit is bit j, and row i < r is also x^(r-1-i) * x^w mod g, so
    the first r rows carry a remainder w bits further along a message.
    Built once per generator by shift-and-reduce on a Python int, so any
    degree r fits. Stored read-only as float64, 8 * w * r bytes whatever
    the message length, so the CRC is a few BLAS products whose sums of
    0/1 terms are exact.
    """
    r = len(generator) - 1
    w = max(_CRC_CHUNK_BITS, r)
    poly = int(generator, 2)
    top = 1 << r
    width = (r + 7) // 8
    rows = bytearray(w * width)
    reg = poly ^ top  # x^r mod g, the row of the last chunk bit
    for j in range(w - 1, -1, -1):
        rows[j * width:(j + 1) * width] = reg.to_bytes(width, "big")
        reg <<= 1
        if reg & top:
            reg ^= poly
    packed = np.frombuffer(rows, dtype=np.uint8).reshape(w, width)
    table = np.unpackbits(packed, axis=1)[:, 8 * width - r:].astype(np.float64)
    table.setflags(write=False)
    return table


def crc_compute(bits, spec: CrcSpec) -> np.ndarray:
    """Remainder of bits * x^r modulo the generator over GF(2).

    Same result as MSB-first long division with a zero-initialized
    register, no reflection and no final XOR. The remainder is linear in
    the message, so the CRC of a chunk is the XOR of the remainder-table
    rows of its 1 bits: their exact floating-point sum taken mod 2. The
    message is cut into w-bit chunks from the end (the first chunk takes
    the rest), and the remainder so far is carried past each further
    chunk by the first r table rows. An empty message yields the all-zero
    CRC. A (B, n) stack of messages yields a (B, r) stack of CRCs, each
    row the CRC of its own message; any other shape is one message.
    """
    bits = _checked_bits(bits)
    stack = bits if bits.ndim == 2 else bits.reshape(1, -1)
    table = _remainder_table(spec.generator)
    w, r = table.shape
    n_rows, n = stack.shape
    head = n - (n - 1) // w * w if n else 0
    crc = stack[:, :head] @ table[w - head:]
    if n > head:
        # one product for every further chunk of every row
        carry = table[:r]
        chunk_crcs = (stack[:, head:].reshape(-1, w) @ table).reshape(n_rows, (n - head) // w, r)
        for i in range(chunk_crcs.shape[1]):
            crc = (crc % 2) @ carry + chunk_crcs[:, i]
    crc = (crc % 2).astype(np.uint8)
    return crc if bits.ndim == 2 else crc[0]


def crc_verify(payload_bits, crc_bits, spec: CrcSpec) -> bool | np.ndarray:
    """True iff the received CRC matches a fresh CRC over the payload.

    A (B, n) payload stack takes a (B, r) CRC stack and gives one bool per
    row, from one :func:`crc_compute` call over the stack.
    """
    payload = _checked_bits(payload_bits)
    crc_bits = _checked_bits(crc_bits)
    if payload.ndim == 2:
        if crc_bits.shape != (len(payload), spec.crc_length):
            raise FramingError(f"expected a ({len(payload)}, {spec.crc_length}) stack of CRC bits, "
                               f"got shape {crc_bits.shape}")
        return (crc_compute(payload, spec) == crc_bits).all(axis=1)
    crc_bits = crc_bits.ravel()
    if crc_bits.size != spec.crc_length:
        raise FramingError(f"expected {spec.crc_length} CRC bits, got {crc_bits.size}")
    return bool(np.array_equal(crc_compute(payload, spec), crc_bits))


def block_total_bits(codeword_size: int, spec: CrcSpec, k: int, n_tx: int) -> int:
    """Smallest multiple of k * n_tx that fits the payload plus its CRC."""
    grid = k * n_tx
    return math.ceil((codeword_size + spec.crc_length) / grid) * grid


def build_transport_blocks(payload_bits, codeword_size: int, spec: CrcSpec, k: int, n_tx: int) -> np.ndarray:
    """On-air bits of one transport block, [payload | zero padding | CRC], as uint8.

    The payload holds 1..``codeword_size`` bits; a shorter one is
    zero-padded to ``codeword_size`` before its CRC is computed, so every
    block has the same on-air length. A (B, n) stack of payloads yields a
    (B, total) stack of blocks, row for row the blocks of one call each.
    An entry that is not 0 or 1 raises ValueError naming it and its position.
    """
    payload = _checked_bits(payload_bits)
    stack = payload if payload.ndim == 2 else payload.reshape(1, -1)
    n_rows, n = stack.shape
    if not 0 < n <= codeword_size:
        raise ValueError(f"a transport block holds 1..codeword_size = {codeword_size} "
                         f"payload bits, got {n}")
    total = block_total_bits(codeword_size, spec, k, n_tx)
    blocks = np.zeros((n_rows, total), dtype=np.uint8)
    blocks[:, :n] = stack
    blocks[:, total - spec.crc_length:] = crc_compute(blocks[:, :codeword_size], spec)
    return blocks if payload.ndim == 2 else blocks[0]


def extract_and_check(received_bits, codeword_size: int, spec: CrcSpec, k: int, n_tx: int):
    """Invert the block layout and check the CRC.

    Returns ``(payload_bits, crc_ok)``. Padding is receiver-known filler
    and excluded from the check, so a corrupted pad bit alone still
    verifies. A (B, total) stack of blocks gives the (B, codeword_size)
    payloads and one ``crc_ok`` per row, from one :func:`crc_verify` call.
    """
    received = _checked_bits(received_bits)
    if received.ndim != 2:
        received = received.ravel()
    total = block_total_bits(codeword_size, spec, k, n_tx)
    if received.shape[-1] != total:
        raise FramingError(f"expected {total} bits per block, got {received.shape[-1]}")
    payload = received[..., :codeword_size]
    crc = received[..., total - spec.crc_length:]
    return payload, crc_verify(payload, crc, spec)
