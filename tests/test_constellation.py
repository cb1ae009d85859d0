"""Tests for Gray-coded constellation tables and bit/symbol mapping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolink.constellation import (
    SUPPORTED_SIZES,
    _checked_bits,
    build_constellation,
    map_bits_to_symbols,
    symbols_to_bits,
)
from mimolink.receiver import detect_ml

ALL_TABLES = [("QPSK", 4), ("QAM", 4), ("QAM", 16), ("QAM", 64), ("QAM", 256)]


@pytest.mark.parametrize("scheme,m", ALL_TABLES)
class TestTableInvariants:
    """Structural invariants that every table must satisfy."""

    def test_unit_average_energy(self, scheme, m):
        table = build_constellation(scheme, m)
        assert abs(np.mean(np.abs(table.points) ** 2) - 1.0) < 1e-12

    def test_labels_bijective_over_k_bit_strings(self, scheme, m):
        table = build_constellation(scheme, m)
        assert len(set(table.labels)) == m
        assert all(len(lab) == table.k for lab in table.labels)

    def test_gray_property_on_axis_neighbors(self, scheme, m):
        """Axis-adjacent points (neighboring raw levels) differ in one bit."""
        table = build_constellation(scheme, m)
        side = int(np.sqrt(m))
        labels = np.array(table.labels).reshape(side, side)

        def hamming(a, b):
            return sum(x != y for x, y in zip(a, b))

        for i in range(side):
            for q in range(side):
                if i + 1 < side:
                    assert hamming(labels[i, q], labels[i + 1, q]) == 1
                if q + 1 < side:
                    assert hamming(labels[i, q], labels[i, q + 1]) == 1

    def test_points_sit_on_the_odd_integer_grid(self, scheme, m):
        table = build_constellation(scheme, m)
        side = int(np.sqrt(m))
        expected_levels = np.arange(-side + 1, side, 2) * table.scale
        np.testing.assert_allclose(np.unique(table.points.real), expected_levels, atol=1e-15)
        np.testing.assert_allclose(np.unique(table.points.imag), expected_levels, atol=1e-15)


class TestBuildConstellation:
    def test_qpsk_points_and_scale(self):
        table = build_constellation("QPSK", 4)
        assert table.k == 2
        assert abs(table.scale - 1 / np.sqrt(2)) < 1e-15
        pts = set(np.round(table.points * np.sqrt(2), 12))
        assert pts == {(-1 - 1j), (-1 + 1j), (1 - 1j), (1 + 1j)}

    def test_16qam_scale_is_inverse_sqrt_10(self):
        # direct average over the 16 raw points is the oracle
        table = build_constellation("QAM", 16)
        raw = table.points / table.scale
        assert abs(np.mean(np.abs(raw) ** 2) - 10.0) < 1e-12
        assert abs(table.scale - 1 / np.sqrt(10)) < 1e-15
        np.testing.assert_allclose(np.unique(raw.real), [-3, -1, 1, 3], atol=1e-12)

    def test_64qam_scale_is_inverse_sqrt_42(self):
        table = build_constellation("QAM", 64)
        raw = table.points / table.scale
        assert abs(np.mean(np.abs(raw) ** 2) - 42.0) < 1e-11
        assert abs(table.scale - 1 / np.sqrt(42)) < 1e-15

    def test_256qam_scale_from_direct_average(self):
        table = build_constellation("QAM", 256)
        raw = table.points / table.scale
        oracle = np.mean(np.abs(raw) ** 2)
        assert abs(table.scale - 1 / np.sqrt(oracle)) < 1e-15

    @pytest.mark.parametrize("bad_m", [2, 8, 15, 32, 128, 512, 1024])
    def test_unsupported_sizes_rejected_by_value(self, bad_m):
        with pytest.raises(ValueError, match=str(bad_m)):
            build_constellation("QAM", bad_m)

    def test_qpsk_requires_m_4(self):
        with pytest.raises(ValueError, match="QPSK"):
            build_constellation("QPSK", 16)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="PSK8"):
            build_constellation("PSK8", 4)


class TestBitSymbolMapping:
    def test_single_qpsk_lookup(self):
        table = build_constellation("QPSK", 4)
        idx = map_bits_to_symbols([0, 0], table)
        assert idx.shape == (1,)
        assert table.labels[idx[0]] == "00"

    def test_all_zero_bits_map_to_the_all_zero_label(self):
        table = build_constellation("QAM", 64)
        idx = map_bits_to_symbols(np.zeros(12, dtype=np.uint8), table)
        assert idx.shape == (2,)
        assert all(table.labels[i] == "000000" for i in idx)

    def test_length_not_multiple_of_k_rejected(self):
        table = build_constellation("QAM", 16)
        with pytest.raises(ValueError, match="multiple"):
            map_bits_to_symbols([0, 1, 0], table)

    @pytest.mark.parametrize("bits, message", [
        ([0, 2, 1, 1], "got 2 at position 1"),
        (np.array([0, 1, -1, 1]), "got -1 at position 2"),  # a uint8 cast would make it 255
        ([1, 0, 0.5, 1], "got 0.5 at position 2"),
        (np.array([1, 0, 1, 9], dtype=np.uint8), "got 9 at position 3"),
        ([[0, 1], [1, 7]], "got 7 at position 3"),  # positions count along the flattened stream
    ])
    def test_entry_that_is_not_a_bit_rejected_naming_it(self, bits, message):
        with pytest.raises(ValueError, match=rf"^bits must be 0 or 1, {message}$"):
            map_bits_to_symbols(bits, build_constellation("QPSK", 4))

    def test_bools_and_integral_floats_are_bits(self):
        table = build_constellation("QPSK", 4)
        expected = map_bits_to_symbols([0, 1, 1, 1], table)
        for bits in ([False, True, True, True], [0.0, 1.0, 1.0, 1.0]):
            np.testing.assert_array_equal(map_bits_to_symbols(bits, table), expected)

    def test_symbols_to_bits_is_label_concatenation(self):
        table = build_constellation("QAM", 16)
        bits = symbols_to_bits([0], table)
        assert "".join(map(str, bits)) == table.labels[0]

    @pytest.mark.parametrize("scheme, m", ALL_TABLES)
    def test_stack_of_indices_gives_one_row_per_call(self, scheme, m):
        """A (B, n) stack of indices demaps, reshaped to B rows, into the
        bits of one call per row."""
        table = build_constellation(scheme, m)
        stack = np.random.default_rng(m).integers(0, m, size=(7, 12))
        rows = symbols_to_bits(stack, table).reshape(len(stack), -1)
        assert rows.shape == (7, 12 * table.k)
        for row, indices in zip(rows, stack):
            np.testing.assert_array_equal(row, symbols_to_bits(indices, table))

    def test_index_out_of_range_rejected(self):
        table = build_constellation("QPSK", 4)
        with pytest.raises(ValueError, match="4"):
            symbols_to_bits([0, 4], table)

    def test_negative_index_rejected_not_wrapped(self):
        """A negative index would wrap to a label from the end of the table;
        the error names the first bad index."""
        table = build_constellation("QPSK", 4)
        with pytest.raises(ValueError, match=r"index -1 outside \[0, 4\)"):
            symbols_to_bits([0, -1, 4], table)

    @pytest.mark.parametrize("indices, message", [
        ([0.7], "got 0.7 at position 0"),  # an int64 cast would read it as 0
        (np.array([[1.0, 2.0], [3.0, -0.5]]), "got -0.5 at position 3"),
        ([1, np.nan], "got nan at position 1"),
    ])
    def test_non_integral_index_rejected_naming_it(self, indices, message):
        with pytest.raises(ValueError, match=rf"^symbol indices must be integers, {message}$"):
            symbols_to_bits(indices, build_constellation("QPSK", 4))

    def test_integral_float_and_bool_indices_are_the_integers(self):
        table = build_constellation("QPSK", 4)
        expected = symbols_to_bits([0, 1, 3], table)
        np.testing.assert_array_equal(symbols_to_bits([0.0, 1.0, 3.0], table), expected)
        np.testing.assert_array_equal(symbols_to_bits([False, True], table), expected[:4])

    def test_index_roundtrip_over_all_m(self):
        for scheme, m in ALL_TABLES:
            table = build_constellation(scheme, m)
            indices = np.arange(m)
            recovered = map_bits_to_symbols(symbols_to_bits(indices, table), table)
            np.testing.assert_array_equal(recovered, indices)

    def test_qpsk_roundtrip_exhaustive_over_bit_pairs(self):
        table = build_constellation("QPSK", 4)
        for word in range(4):
            bits = np.array([(word >> 1) & 1, word & 1], dtype=np.uint8)
            back = symbols_to_bits(map_bits_to_symbols(bits, table), table)
            np.testing.assert_array_equal(back, bits)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_bit_roundtrip_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        scheme, m = ALL_TABLES[seed % len(ALL_TABLES)]
        table = build_constellation(scheme, m)
        bits = rng.integers(0, 2, size=1000 * table.k, dtype=np.uint8)
        back = symbols_to_bits(map_bits_to_symbols(bits, table), table)
        np.testing.assert_array_equal(back, bits)

    def test_noiseless_detection_recovers_transmitted_bits(self):
        """End-to-end noiseless loop: bits -> points -> ML detect -> bits."""
        rng = np.random.default_rng(7)
        for scheme, m in ALL_TABLES:
            table = build_constellation(scheme, m)
            bits = rng.integers(0, 2, size=200 * table.k, dtype=np.uint8)
            tx = map_bits_to_symbols(bits, table)
            detected = detect_ml(table.points[tx], table)
            np.testing.assert_array_equal(detected, tx)
            np.testing.assert_array_equal(symbols_to_bits(detected, table), bits)


def int64_mapping_reference(bits, table):
    """The integer-product mapper: each k-bit word as an int64 product of
    the bits with [2^(k-1), ..., 1], looked up in ``index_by_word``."""
    weights = 1 << np.arange(table.k - 1, -1, -1)
    words = np.ravel(bits).astype(np.uint8).reshape(-1, table.k) @ weights
    return table.index_by_word[words]


@st.composite
def _table_and_bits(draw):
    table = build_constellation(*draw(st.sampled_from(ALL_TABLES)))
    n_symbols = draw(st.integers(min_value=0, max_value=64))
    bits = draw(st.lists(st.integers(0, 1), min_size=n_symbols * table.k, max_size=n_symbols * table.k))
    return table, np.array(bits, dtype=np.uint8)


class TestMappingReference:
    """The float32 word product maps every bit stream as the int64 product
    does, index for index and dtype for dtype."""

    @staticmethod
    def assert_same(got, want):
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(_table_and_bits())
    def test_matches_the_integer_product(self, case):
        table, bits = case
        self.assert_same(map_bits_to_symbols(bits, table), int64_mapping_reference(bits, table))

    @pytest.mark.parametrize("scheme, m", ALL_TABLES)
    def test_every_word_and_all_ones_words_match(self, scheme, m):
        """Each of the M words, then a run of all-ones words: the largest sum, 2^k - 1."""
        table = build_constellation(scheme, m)
        words = np.arange(table.M)[:, None] >> np.arange(table.k - 1, -1, -1) & 1
        for bits in (words.astype(np.uint8).ravel(), np.ones(9 * table.k, dtype=np.uint8)):
            self.assert_same(map_bits_to_symbols(bits, table), int64_mapping_reference(bits, table))
        assert table.labels[map_bits_to_symbols(np.ones(table.k, dtype=np.uint8), table)[0]] == "1" * table.k

    @pytest.mark.parametrize("scheme, m", ALL_TABLES)
    def test_an_empty_input_maps_to_no_symbols(self, scheme, m):
        table = build_constellation(scheme, m)
        got = map_bits_to_symbols(np.empty(0, dtype=np.uint8), table)
        assert got.shape == (0,)
        self.assert_same(got, int64_mapping_reference(np.empty(0, dtype=np.uint8), table))

    @pytest.mark.parametrize("scheme, m", ALL_TABLES)
    def test_a_stack_of_more_than_15k_symbols_matches(self, scheme, m):
        """A long_block chunk maps 15 blocks of 1028 symbols in one call."""
        table = build_constellation(scheme, m)
        bits = np.random.default_rng(table.M).integers(0, 2, size=(31, 500 * table.k), dtype=np.uint8)
        self.assert_same(map_bits_to_symbols(bits, table), int64_mapping_reference(bits, table))


def checked_bits_reference(bits):
    """The one-mask-pass bit check: a mask of the bad entries, then ``any``."""
    bits = np.asarray(bits)
    bad = bits > 1 if bits.dtype.kind in "bu" else (bits != 0) & (bits != 1)
    if bad.any():
        position = tuple(np.argwhere(bad)[0].tolist())
        raise ValueError(f"bits must be 0 or 1, got {bits[position].item()!r} "
                         f"at position {position[0] if bits.ndim == 1 else position}")
    return bits.astype(np.uint8, copy=False)


def _outcome(check, bits):
    """What ``check`` gives: ("ok", array, shares memory) or ("error", message)."""
    try:
        got = check(bits)
    except ValueError as error:
        return "error", str(error)
    return "ok", got, np.shares_memory(got, bits)


BIT_DTYPES = [np.uint8, np.uint16, np.uint64, np.bool_, np.int8, np.int64, np.float32, np.float64]
BIT_VALUES = [0, 1, 2, 9, 255, -1, 0.5, -0.0, np.nan, np.inf]


@st.composite
def _bit_arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(BIT_DTYPES)))
    shape = draw(st.sampled_from([(0,), (1,), (7,), (3, 0), (2, 5), (2, 3, 2)]))
    good = st.sampled_from([0, 1])
    values = st.one_of(good, good, good, st.sampled_from(BIT_VALUES))
    entries = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # -1 or NaN into an unsigned or integer dtype
        return np.array([float(v) for v in entries]).astype(dtype).reshape(shape)


class TestCheckedBitsReference:
    """The one-reduction check returns what the mask-pass check returns,
    and fails with the same text naming the same position."""

    @settings(max_examples=400, deadline=None)
    @given(_bit_arrays())
    def test_matches_the_mask_pass_check(self, bits):
        got, want = _outcome(_checked_bits, bits), _outcome(checked_bits_reference, bits)
        assert got[0] == want[0]
        if got[0] == "error":
            assert got[1] == want[1]
        else:
            assert got[1].dtype == want[1].dtype == np.uint8 and got[1].shape == want[1].shape
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize("bits, message", [
        (np.array([0, 1, 1, 7, 9], dtype=np.uint8), "got 7 at position 3"),
        (np.array([[0, 1], [300, 1]], dtype=np.uint16), "got 300 at position (1, 0)"),
        (np.array([0, -1, 1], dtype=np.int64), "got -1 at position 1"),
        (np.array([1.0, 0.0, np.nan]), "got nan at position 2"),
        (np.array([[1.0], [0.5]], dtype=np.float32), "got 0.5 at position (1, 0)"),
    ])
    def test_a_bad_entry_is_named_as_before(self, bits, message):
        want = ("error", f"bits must be 0 or 1, {message}")
        assert _outcome(_checked_bits, bits) == want == _outcome(checked_bits_reference, bits)

    @pytest.mark.parametrize("dtype", BIT_DTYPES)
    @pytest.mark.parametrize("shape", [(0,), (4, 0)])
    def test_an_empty_array_passes_as_uint8(self, dtype, shape):
        bits = np.empty(shape, dtype=dtype)
        got, want = _checked_bits(bits), checked_bits_reference(bits)
        assert got.dtype == want.dtype == np.uint8 and got.shape == want.shape == shape
        assert np.shares_memory(got, bits) == np.shares_memory(want, bits)

    def test_a_uint8_array_is_returned_without_a_copy(self):
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert _checked_bits(bits) is bits
