"""Tests for Gray-coded constellation tables and bit/symbol mapping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mimolink.constellation import (
    SUPPORTED_SIZES,
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
