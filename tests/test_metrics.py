"""Tests for the radio and classification performance measures."""

import math

import numpy as np
import pytest

from mimolink.metrics import (
    ber,
    bler,
    error_vector,
    estimation_mse,
    ser,
    tx_ebn0_db,
    tx_snr_db,
)


class TestErrorVector:
    def test_perfect_estimate_gives_zero(self):
        h = np.arange(6, dtype=complex).reshape(2, 3)
        np.testing.assert_array_equal(error_vector(h, h), np.zeros(6))

    def test_zero_estimate_gives_vec_h(self):
        h = (np.arange(6) + 1j).reshape(3, 2)
        np.testing.assert_array_equal(error_vector(h, np.zeros_like(h)), h.flatten(order="F"))

    def test_column_major_vectorization_matches_element_loop(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        h_hat = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        e = error_vector(h, h_hat)
        idx = 0
        for col in range(4):
            for row in range(3):
                assert e[idx] == h[row, col] - h_hat[row, col]
                idx += 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_vector(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("shape", [(19, 16, 16), (3, 16, 4), (2, 4, 1, 3), (1, 2, 2), (5, 1, 1)])
    def test_stack_equals_one_call_per_matrix(self, shape):
        """A stack gives one column-major error row and one MSE per matrix,
        each bit for bit the call on that matrix alone and the first written
        formulas: vec() by flatten(order="F"), one np.sum per vector. Rows
        in another memory layout give the same MSEs."""
        rng = np.random.default_rng(sum(shape))
        h = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h_hat = h + 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        n_rx, n_tx = shape[-2:]
        rows = error_vector(h, h_hat)
        mse = estimation_mse(rows, n_rx, n_tx)
        assert rows.shape == shape[:-2] + (n_rx * n_tx,) and mse.shape == shape[:-2]
        assert estimation_mse(np.asfortranarray(rows), n_rx, n_tx).tobytes() == mse.tobytes()
        for index in np.ndindex(shape[:-2]):
            first_written = h[index].flatten(order="F") - h_hat[index].flatten(order="F")
            alone = error_vector(h[index], h_hat[index])
            assert rows[index].view(float).tobytes() == alone.view(float).tobytes()
            assert alone.view(float).tobytes() == first_written.view(float).tobytes()
            assert mse[index] == estimation_mse(alone, n_rx, n_tx)
            assert mse[index] == float(np.sum(np.abs(first_written) ** 2) / (n_rx * n_tx))


class TestEstimationMse:
    def test_zero_vector(self):
        assert estimation_mse(np.zeros(4), 2, 2) == 0.0

    def test_all_ones_length_four(self):
        assert estimation_mse(np.ones(4), 2, 2) == 1.0

    def test_invariant_under_vectorization_order(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        h_hat = h + 0.1 * rng.standard_normal((4, 3))
        col_major = error_vector(h, h_hat)
        row_major = (h - h_hat).flatten(order="C")
        assert abs(estimation_mse(col_major, 4, 3) - estimation_mse(row_major, 4, 3)) < 1e-15

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimation_mse(np.zeros(5), 2, 2)


class TestDbMeasures:
    def test_snr_zero_when_argument_is_one(self):
        assert abs(tx_snr_db(1 / 16, 16)) < 1e-12

    def test_snr_at_table_values(self):
        assert abs(tx_snr_db(5e-3, 16) - 10.969) < 1e-3

    def test_ebn0_at_table_values(self):
        assert abs(tx_ebn0_db(5e-3, 16, 6) - 3.188) < 1e-3

    def test_halving_noise_adds_3dB(self):
        assert abs(tx_snr_db(0.005, 8) - tx_snr_db(0.01, 8) - 10 * math.log10(2)) < 1e-12

    def test_ebn0_equals_snr_for_one_bit_per_symbol(self):
        assert tx_ebn0_db(0.02, 4, 1) == tx_snr_db(0.02, 4)

    def test_doubling_k_subtracts_3dB(self):
        assert abs(tx_ebn0_db(0.01, 4, 4) - tx_ebn0_db(0.01, 4, 2) + 10 * math.log10(2)) < 1e-12

    def test_snr_minus_ebn0_is_10log10_k(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            sigma2 = float(rng.uniform(1e-5, 1.0))
            n_tx = int(rng.integers(1, 64))
            k = int(rng.integers(1, 9))
            diff = tx_snr_db(sigma2, n_tx) - tx_ebn0_db(sigma2, n_tx, k)
            assert abs(diff - 10 * math.log10(k)) < 1e-10

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            tx_snr_db(0.0, 16)
        with pytest.raises(ValueError):
            tx_ebn0_db(1e-3, 16, 0)


class TestRates:
    def test_bler_examples(self):
        assert bler([False] * 10 + [True] * 90) == pytest.approx(0.10)
        assert bler([True] * 5) == 0.0
        assert bler([False] * 5) == 1.0

    def test_bler_undefined_on_empty(self):
        with pytest.raises(ValueError):
            bler([])

    def test_classification_error_examples(self):
        # a detector's classification error is its symbol error rate
        assert ser([1, 2, 3], [1, 2, 3]) == 0.0
        assert ser([1, 2, 3], [4, 5, 6]) == 1.0
        assert ser(list(range(10)), [0, 1, 2, 9, 9, 9, 6, 7, 8, 9]) == pytest.approx(0.3)

    def test_rates_bounded(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, 100)
        b = rng.integers(0, 4, 100)
        for value in (ser(a, b), ber(a % 2, b % 2)):
            assert 0.0 <= value <= 1.0

    def test_length_mismatch_and_empty_rejected(self):
        with pytest.raises(ValueError):
            ser([1, 2], [1])
        with pytest.raises(ValueError):
            ber([1, 0], [1])
        with pytest.raises(ValueError):
            ser([], [])


class TestRateStacks:
    """A pair of equal (B, n) stacks gives one rate per row, bit for bit its own call's."""

    @pytest.mark.parametrize("n", [1028, 96, 16, 1])
    @pytest.mark.parametrize("rate", [ser, ber])
    def test_stack_equals_one_call_per_row(self, rate, n):
        # 1028 = 4 * 257: most error counts give an inexact quotient
        rng = np.random.default_rng(n)
        a = rng.integers(0, 2, size=(40, n))
        b = np.where(rng.random((40, n)) < rng.random((40, 1)), 1 - a, a)
        rates = rate(a, b)
        assert rates.shape == (40,) and rates.dtype == np.float64
        singles = [rate(row_a, row_b) for row_a, row_b in zip(a, b)]
        assert all(type(single) is float for single in singles)
        assert rates.tolist() == singles
        assert rate(a[:0], b[:0]).shape == (0,)

    def test_one_dimensional_results_unchanged(self):
        a = np.arange(1028) % 7
        b = np.where(np.arange(1028) % 5 == 0, 0, a)
        for rate in (ser, ber):
            value = rate(a, b)
            assert type(value) is float and value == float(np.count_nonzero(a != b) / a.size)
            # other shapes are still one sequence: raveled, one rate over all entries
            assert rate(a.reshape(4, 257), b) == value
            assert rate(a.reshape(2, 2, 257), b.reshape(2, 2, 257)) == value

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ser(np.zeros((3, 0)), np.zeros((3, 0)))
