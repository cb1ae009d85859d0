"""Tests for CRC computation and transport-block framing."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolink.framing import (
    CrcSpec,
    FramingError,
    block_total_bits,
    build_transport_blocks,
    crc_compute,
    crc_verify,
    extract_and_check,
    load_payload_bits,
)
from mimolink.framing import _remainder_table

DEFAULT_SPEC = CrcSpec("111")  # x^2 + x + 1
CCITT_SPEC = CrcSpec("10001000000100001")  # CRC-16, x^16 + x^12 + x^5 + 1


def gf2_remainder(message_bits, generator_bits):
    """Independent long-division oracle over GF(2) using list arithmetic."""
    r = len(generator_bits) - 1
    work = list(message_bits) + [0] * r
    for i in range(len(message_bits)):
        if work[i]:
            for j, g in enumerate(generator_bits):
                work[i + j] ^= g
    return work[-r:] if r else []


def gf2_power_mod(exponent, generator):
    """x^exponent mod g over GF(2), polynomials as Python ints, by square and multiply."""
    def mul_mod(a, b):
        product = 0
        while b:
            if b & 1:
                product ^= a
            a, b = a << 1, b >> 1
        while product.bit_length() >= generator.bit_length():
            product ^= generator << (product.bit_length() - generator.bit_length())
        return product

    result, base = 1, 2  # 1 and x
    while exponent:
        if exponent & 1:
            result = mul_mod(result, base)
        base, exponent = mul_mod(base, base), exponent >> 1
    return result


class TestCrcSpec:
    def test_crc_length_is_degree(self):
        assert DEFAULT_SPEC.crc_length == 2
        assert CrcSpec("100000111").crc_length == 8

    @pytest.mark.parametrize("bad", ["1", "011", "110", "1x1", ""])
    def test_malformed_generators_rejected(self, bad):
        with pytest.raises(ValueError):
            CrcSpec(bad)


class TestCrcCompute:
    def test_all_zero_message_gives_all_zero_crc(self):
        np.testing.assert_array_equal(crc_compute(np.zeros(20, dtype=np.uint8), DEFAULT_SPEC), [0, 0])

    def test_known_remainder_1010_mod_111(self):
        # x^5 + x^3 = x (mod x^2 + x + 1), i.e. bits "10"
        np.testing.assert_array_equal(crc_compute([1, 0, 1, 0], DEFAULT_SPEC), [1, 0])

    def test_empty_message_allowed(self):
        np.testing.assert_array_equal(crc_compute([], DEFAULT_SPEC), [0, 0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_long_division_oracle(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            generator = ("111", "1011", "10011", "100000111")[seed // 2 % 4]
            size = int(rng.integers(1, 64))
        else:
            # any degree 1..80, past the 64 bits of a machine word
            degree = int(rng.integers(1, 81))
            middle = "".join(map(str, rng.integers(0, 2, size=degree - 1)))
            generator = f"1{middle}1"
            size = int(rng.integers(0, 5001))
        spec = CrcSpec(generator)
        message = rng.integers(0, 2, size=size).astype(np.uint8)
        oracle = gf2_remainder(message.tolist(), [int(c) for c in generator])
        crc = crc_compute(message, spec)
        assert crc.dtype == np.uint8
        np.testing.assert_array_equal(crc, oracle)

    def test_xmodem_check_value(self):
        """CRC-16/XMODEM (CCITT polynomial, zero init, MSB first, no
        reflection, no final XOR) of ASCII "123456789" is 0x31C3."""
        message = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
        crc = crc_compute(message, CrcSpec("10001000000100001"))
        assert int("".join(map(str, crc)), 2) == 0x31C3

    def test_generator_longer_than_a_table_chunk(self):
        """Degree 1030 exceeds the 1024-bit chunk of the remainder table."""
        rng = np.random.default_rng(8)
        generator = "1" + "".join(map(str, rng.integers(0, 2, size=1029))) + "1"
        message = rng.integers(0, 2, size=2500).astype(np.uint8)
        oracle = gf2_remainder(message.tolist(), [int(c) for c in generator])
        np.testing.assert_array_equal(crc_compute(message, CrcSpec(generator)), oracle)

    def test_megabit_message_keeps_the_table_bounded(self):
        """A 2^20-bit message gives the XOR of x^(n-1-j) * x^r mod g over
        its 1 bits j, and the cached table does not grow with its length."""
        generator = "100000100110000010001110110110111"  # CRC-32, 0x104C11DB7
        n = 2**20
        ones = np.random.default_rng(5).choice(n, size=40, replace=False)
        message = np.zeros(n, dtype=np.uint8)
        message[ones] = 1
        expected = 0
        for j in ones:
            expected ^= gf2_power_mod(n - 1 - int(j) + 32, int(generator, 2))
        crc = crc_compute(message, CrcSpec(generator))
        assert int("".join(map(str, crc)), 2) == expected
        assert _remainder_table(generator).shape == (1024, 32)

    def test_systematic_property(self):
        """Recomputing over the payload reproduces the appended CRC."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            message = rng.integers(0, 2, size=32).astype(np.uint8)
            crc = crc_compute(message, DEFAULT_SPEC)
            assert crc_verify(message, crc, DEFAULT_SPEC)


class TestCrcVerify:
    def test_untouched_block_verifies(self):
        message = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        assert crc_verify(message, crc_compute(message, DEFAULT_SPEC), DEFAULT_SPEC)

    def test_every_single_bit_flip_detected(self):
        rng = np.random.default_rng(11)
        payload = rng.integers(0, 2, size=16).astype(np.uint8)
        crc = crc_compute(payload, DEFAULT_SPEC)
        codeword = np.concatenate([payload, crc])
        for pos in range(codeword.size):
            corrupted = codeword.copy()
            corrupted[pos] ^= 1
            assert not crc_verify(corrupted[:16], corrupted[16:], DEFAULT_SPEC), f"flip at {pos}"

    def test_every_short_burst_detected(self):
        """All contiguous bursts up to the CRC length are caught."""
        rng = np.random.default_rng(12)
        payload = rng.integers(0, 2, size=16).astype(np.uint8)
        crc = crc_compute(payload, DEFAULT_SPEC)
        codeword = np.concatenate([payload, crc])
        r = DEFAULT_SPEC.crc_length
        for length in range(1, r + 1):
            for start in range(codeword.size - length + 1):
                corrupted = codeword.copy()
                corrupted[start:start + length] ^= 1
                assert not crc_verify(corrupted[:16], corrupted[16:], DEFAULT_SPEC)

    def test_crc_length_mismatch_raises(self):
        with pytest.raises(FramingError):
            crc_verify([1, 0, 1], [0], DEFAULT_SPEC)


class TestTransportBlocks:
    def test_grid_padding_arithmetic(self):
        # 19 payload + 2 crc = 21; least multiple of 6 above that is 24
        bits = build_transport_blocks(np.ones(19, dtype=np.uint8), 19, DEFAULT_SPEC, k=6, n_tx=1)
        assert block_total_bits(19, DEFAULT_SPEC, k=6, n_tx=1) == 24
        assert block_total_bits(19, DEFAULT_SPEC, k=6, n_tx=1) // 6 == 4  # symbols per block
        assert bits.size - 19 - DEFAULT_SPEC.crc_length == 3  # pad bits
        np.testing.assert_array_equal(bits[19:22], np.zeros(3, dtype=np.uint8))
        assert bits.size == 24
        assert bits.dtype == np.uint8

    def test_exact_fit_has_no_padding(self):
        # 16 payload + 2 crc = 18, already a multiple of k * n_tx = 6
        bits = build_transport_blocks(np.ones(16, dtype=np.uint8), 16, DEFAULT_SPEC, k=6, n_tx=1)
        assert bits.size == 16 + DEFAULT_SPEC.crc_length  # no pad bits
        assert block_total_bits(16, DEFAULT_SPEC, k=6, n_tx=1) == 18
        assert block_total_bits(16, DEFAULT_SPEC, k=6, n_tx=1) // 6 == 3  # symbols per block

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError, match="codeword_size = 16"):
            build_transport_blocks(np.array([], dtype=np.uint8), 16, DEFAULT_SPEC, 6, 1)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError, match="codeword_size = 16"):
            build_transport_blocks(np.ones(17, dtype=np.uint8), 16, DEFAULT_SPEC, 6, 1)

    @pytest.mark.parametrize("payload, message", [
        ([1, 0, 2, 1], "got 2 at position 2"),
        (np.array([1, -1], dtype=np.int64), "got -1 at position 1"),  # a uint8 cast would make it 255
        (np.array([[1, 0], [0, 3]]), r"got 3 at position \(1, 1\)"),
    ])
    def test_entry_that_is_not_a_bit_rejected_naming_it(self, payload, message):
        with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, {message}$"):
            build_transport_blocks(payload, 16, DEFAULT_SPEC, 6, 1)

    def test_crc_is_last_field(self):
        payload = np.arange(16, dtype=np.uint8) % 2
        bits = build_transport_blocks(payload, 16, DEFAULT_SPEC, 6, 1)
        np.testing.assert_array_equal(bits[-2:], crc_compute(payload, DEFAULT_SPEC))
        np.testing.assert_array_equal(bits[:16], payload)

    def test_short_final_chunk_zero_padded(self):
        bits = np.ones(20, dtype=np.uint8)
        # x^12 = 1 mod x^2 + x + 1, so only the CCITT generator tells the
        # padded payload's CRC from the unpadded one's
        for spec in (DEFAULT_SPEC, CrcSpec("10001000000100001")):
            block = build_transport_blocks(bits[16:], 16, spec, 6, 1)
            np.testing.assert_array_equal(block[:4], [1, 1, 1, 1])
            np.testing.assert_array_equal(block[4:16], np.zeros(12, dtype=np.uint8))
            # the CRC covers the zero-padded payload
            np.testing.assert_array_equal(block[-spec.crc_length:], crc_compute(block[:16], spec))

    @pytest.mark.parametrize("codeword_size,k,n_tx", [(16, 6, 1), (16, 6, 16), (7, 2, 3), (1, 4, 2), (128, 8, 4)])
    def test_total_bits_fill_whole_channel_uses(self, codeword_size, k, n_tx):
        bits = np.random.default_rng(0).integers(0, 2, size=3 * codeword_size).astype(np.uint8)
        for chunk in bits.reshape(3, codeword_size):
            block = build_transport_blocks(chunk, codeword_size, DEFAULT_SPEC, k, n_tx)
            assert block.size == block_total_bits(codeword_size, DEFAULT_SPEC, k, n_tx)
            assert block.size % (k * n_tx) == 0
            # one CRC per block, at its end
            np.testing.assert_array_equal(block[block.size - DEFAULT_SPEC.crc_length:],
                                          crc_compute(chunk, DEFAULT_SPEC))

    @pytest.mark.parametrize("codeword_size,k,n_tx", [(16, 6, 1), (16, 6, 16), (11, 4, 2), (64, 2, 8)])
    def test_build_then_extract_is_identity(self, codeword_size, k, n_tx):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=codeword_size).astype(np.uint8)
        block = build_transport_blocks(bits, codeword_size, DEFAULT_SPEC, k, n_tx)
        payload, ok = extract_and_check(block, codeword_size, DEFAULT_SPEC, k, n_tx)
        assert ok
        np.testing.assert_array_equal(payload, bits)


class TestStacks:
    """A (B, n) stack is framed and checked row for row as B one-row calls."""

    @pytest.mark.parametrize("n", [4096, 1025, 1, 0])
    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, CCITT_SPEC], ids=["crc2", "crc16"])
    def test_crc_of_a_stack_equals_per_row_crcs(self, spec, n):
        """4096 bits carry the remainder past three further table chunks,
        1025 bits start with a one-bit head."""
        stack = np.random.default_rng(n).integers(0, 2, size=(5, n)).astype(np.uint8)
        crcs = crc_compute(stack, spec)
        assert crcs.shape == (5, spec.crc_length) and crcs.dtype == np.uint8
        for row, crc in zip(stack, crcs):
            single = crc_compute(row, spec)
            assert single.shape == (spec.crc_length,)
            np.testing.assert_array_equal(crc, single)
        assert crc_compute(stack[:0], spec).shape == (0, spec.crc_length)

    @pytest.mark.parametrize("n", [16, 11, 1])
    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, CCITT_SPEC], ids=["crc2", "crc16"])
    def test_blocks_of_a_stack_equal_per_row_blocks(self, spec, n):
        stack = np.random.default_rng(n).integers(0, 2, size=(4, n)).astype(np.uint8)
        blocks = build_transport_blocks(stack, 16, spec, 6, 2)
        total = block_total_bits(16, spec, 6, 2)
        assert blocks.shape == (4, total) and blocks.dtype == np.uint8
        for row, block in zip(stack, blocks):
            single = build_transport_blocks(row, 16, spec, 6, 2)
            assert single.shape == (total,)
            np.testing.assert_array_equal(block, single)

    @pytest.mark.parametrize("n", [4096, 16])
    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, CCITT_SPEC], ids=["crc2", "crc16"])
    def test_check_of_a_stack_equals_per_row_checks(self, spec, n):
        """Rows 1 and 3 carry a payload and a CRC bit error; the rest verify."""
        payloads = np.random.default_rng(n).integers(0, 2, size=(5, n)).astype(np.uint8)
        blocks = build_transport_blocks(payloads, n, spec, 4, 2)
        blocks[1, n // 2] ^= 1
        blocks[3, -1] ^= 1
        crcs = blocks[:, -spec.crc_length:]
        verified = crc_verify(blocks[:, :n], crcs, spec)
        assert verified.shape == (5,) and verified.dtype == bool
        assert verified.tolist() == [crc_verify(row[:n], crc, spec) for row, crc in zip(blocks, crcs)]
        assert verified.tolist() == [True, False, True, False, True]
        received, crc_ok = extract_and_check(blocks, n, spec, 4, 2)
        assert received.shape == (5, n) and crc_ok.tolist() == verified.tolist()
        for block, payload, ok in zip(blocks, received, crc_ok):
            single_payload, single_ok = extract_and_check(block, n, spec, 4, 2)
            np.testing.assert_array_equal(payload, single_payload)
            assert ok == single_ok and isinstance(single_ok, bool)

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, CCITT_SPEC], ids=["crc2", "crc16"])
    def test_check_of_an_empty_stack(self, spec):
        r, total = spec.crc_length, block_total_bits(16, spec, 4, 2)
        assert crc_verify(np.zeros((0, 16)), np.zeros((0, r)), spec).shape == (0,)
        payloads, crc_ok = extract_and_check(np.zeros((0, total)), 16, spec, 4, 2)
        assert payloads.shape == (0, 16) and crc_ok.shape == (0,)

    @pytest.mark.parametrize("crc_shape", [(3, 1), (3, 3), (2, 2), (6,)])
    def test_crc_stack_of_the_wrong_shape_raises(self, crc_shape):
        with pytest.raises(FramingError, match=re.escape(f"expected a (3, 2) stack of CRC bits, "
                                                         f"got shape {crc_shape}")):
            crc_verify(np.zeros((3, 16)), np.zeros(crc_shape), DEFAULT_SPEC)

    @pytest.mark.parametrize("shape", [(0,), (17,), (3, 0), (3, 17)])
    def test_payload_size_error_names_the_size(self, shape):
        with pytest.raises(ValueError, match=rf"^a transport block holds 1\.\.codeword_size = 16 "
                                             rf"payload bits, got {shape[-1]}$"):
            build_transport_blocks(np.zeros(shape, dtype=np.uint8), 16, DEFAULT_SPEC, 6, 1)


class TestExtractAndCheck:
    # 16 payload bits on the 16-antenna 64-QAM grid: 96-bit blocks, 78 pad bits
    def _block_bits(self, payload):
        return build_transport_blocks(payload, 16, DEFAULT_SPEC, 6, 16)

    def test_any_payload_flip_fails_crc(self):
        payload = np.random.default_rng(9).integers(0, 2, size=16).astype(np.uint8)
        bits = self._block_bits(payload)
        for pos in range(16):
            corrupted = bits.copy()
            corrupted[pos] ^= 1
            _, ok = extract_and_check(corrupted, 16, DEFAULT_SPEC, 6, 16)
            assert not ok, f"payload flip at {pos} passed the CRC"

    def test_pad_flip_passes_crc_and_preserves_payload(self):
        """Padding is excluded from the CRC by the block layout."""
        payload = np.random.default_rng(10).integers(0, 2, size=16).astype(np.uint8)
        bits = self._block_bits(payload)
        assert bits.size == 96
        for pos in range(16, 94):  # every pad position
            corrupted = bits.copy()
            corrupted[pos] ^= 1
            recovered, ok = extract_and_check(corrupted, 16, DEFAULT_SPEC, 6, 16)
            assert ok
            np.testing.assert_array_equal(recovered, payload)

    def test_crc_flip_fails_crc(self):
        payload = np.random.default_rng(11).integers(0, 2, size=16).astype(np.uint8)
        bits = self._block_bits(payload)
        for pos in (94, 95):
            corrupted = bits.copy()
            corrupted[pos] ^= 1
            _, ok = extract_and_check(corrupted, 16, DEFAULT_SPEC, 6, 16)
            assert not ok

    def test_wrong_total_length_raises(self):
        with pytest.raises(FramingError, match="96"):
            extract_and_check(np.zeros(95, dtype=np.uint8), 16, DEFAULT_SPEC, 6, 16)


SPEC_111 = CrcSpec("111")


@pytest.mark.parametrize("call, message", [
    # an unchecked uint8 cast read 2 as 0, so this gave the CRC of [0, 0, 1, 1]
    (lambda: crc_compute([2, 0, 1, 1], SPEC_111), "got 2 at position 0"),
    # ... and this gave a payload of 2s with crc_ok True
    (lambda: extract_and_check([2] * 16 + [0] * 8, 16, SPEC_111, 4, 2), "got 2 at position 0"),
    # a list holding -1 raised OverflowError from the cast
    (lambda: crc_compute([1, -1, 0], SPEC_111), "got -1 at position 1"),
    (lambda: crc_compute(np.array([[0, 1], [1, 255]]), SPEC_111), r"got 255 at position \(1, 1\)"),
    (lambda: crc_verify([1, 0, 1], [0, 3], SPEC_111), "got 3 at position 1"),
    (lambda: crc_verify([1, 0.5, 1], [0, 0], SPEC_111), "got 0.5 at position 1"),
])
def test_crc_functions_reject_an_entry_that_is_not_a_bit(call, message):
    with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, {message}$"):
        call()


class TestLoadPayloadBits:
    def test_msb_first_single_byte(self, tmp_path):
        path = tmp_path / "payload.bin"
        path.write_bytes(bytes([0xA5]))
        np.testing.assert_array_equal(load_payload_bits(path), [1, 0, 1, 0, 0, 1, 0, 1])

    def test_empty_file_gives_empty_stream(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        bits = load_payload_bits(path)
        assert bits.size == 0
        with pytest.raises(ValueError, match="codeword_size"):
            build_transport_blocks(bits, 16, DEFAULT_SPEC, 6, 1)

    def test_two_bytes_zero_then_ff(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(bytes([0x00, 0xFF]))
        np.testing.assert_array_equal(load_payload_bits(path), [0] * 8 + [1] * 8)

    def test_missing_file_raises_with_path(self, tmp_path):
        with pytest.raises(OSError, match="nope.bin"):
            load_payload_bits(tmp_path / "nope.bin")

    def test_block_total_helper_matches_examples(self):
        assert block_total_bits(16, DEFAULT_SPEC, 6, 1) == 18
        assert block_total_bits(19, DEFAULT_SPEC, 6, 1) == 24
        assert block_total_bits(16, DEFAULT_SPEC, 6, 16) == 96
