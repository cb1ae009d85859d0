"""Tests for semi-unitary pilots and LS / L-MMSE channel estimation."""

import numpy as np
import pytest

from mimolink.channel import apply_channel, sample_channel, sample_noise
from mimolink.estimation import (build_pilot_matrix, draw_pilot_basis, estimate_lmmse, estimate_ls,
                                 pilots_from_basis)


def send_pilots(h, x_p, rng, gain=1.0, sigma2=0.0):
    """sqrt(G) H X_P + N with N drawn from ``rng`` by sample_noise."""
    return apply_channel(h, gain, x_p, sample_noise((h.shape[0], x_p.shape[1]), sigma2, rng))


def mixed_pilot_stack(rng, n_rx=3, n_tx=2, n_pilot=5):
    """Received and sent pilots for a stack of four blocks: two with
    semi-unitary pilots, two with general ones (the solve path)."""
    x_p = np.stack([build_pilot_matrix(n_tx, n_pilot, rng),
                    rng.standard_normal((n_tx, n_pilot)) + 1j * rng.standard_normal((n_tx, n_pilot)),
                    build_pilot_matrix(n_tx, n_pilot, rng, "permutation"),
                    rng.standard_normal((n_tx, n_pilot)) + 1j * rng.standard_normal((n_tx, n_pilot))])
    y_p = rng.standard_normal((4, n_rx, n_pilot)) + 1j * rng.standard_normal((4, n_rx, n_pilot))
    return y_p, x_p


class TestPilotMatrix:
    @pytest.mark.parametrize("mode", ["unitary-random", "permutation"])
    @pytest.mark.parametrize("n_tx,n_pilot", [(1, 1), (2, 2), (2, 4), (4, 20), (16, 20), (8, 64)])
    def test_semi_unitary(self, mode, n_tx, n_pilot):
        rng = np.random.default_rng(0)
        x_p = build_pilot_matrix(n_tx, n_pilot, rng, mode)
        gram = x_p @ x_p.conj().T
        assert np.linalg.norm(gram - np.eye(n_tx)) < 1e-10

    def test_trailing_columns_are_zero(self):
        x_p = build_pilot_matrix(2, 4, np.random.default_rng(1))
        np.testing.assert_array_equal(x_p[:, 2:], np.zeros((2, 2)))

    def test_permutation_mode_is_zero_one(self):
        x_p = build_pilot_matrix(4, 6, np.random.default_rng(2), "permutation")
        assert set(np.unique(x_p.real)) <= {0.0, 1.0}
        assert np.all(x_p.imag == 0)

    def test_pilot_shortage_rejected(self):
        with pytest.raises(ValueError, match="n_pilot"):
            build_pilot_matrix(4, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    @pytest.mark.parametrize("mode", ["unitary-random", "permutation"])
    def test_pilot_shortage_from_a_basis_rejected(self, mode, stack):
        basis = draw_pilot_basis(4, np.random.default_rng(0), mode)
        bases = np.broadcast_to(basis, stack + basis.shape).copy()
        with pytest.raises(ValueError, match="n_pilot"):
            pilots_from_basis(bases, 2, mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="zadoff"):
            build_pilot_matrix(2, 2, np.random.default_rng(0), "zadoff")

    @pytest.mark.parametrize("mode", ["zadoff", "unitary_random"])
    def test_unknown_mode_rejected_from_a_basis(self, mode):
        """A misspelt mode raises rather than returning the unfactorized
        Gaussian basis as pilots, which are not semi-unitary."""
        basis = draw_pilot_basis(2, np.random.default_rng(0))
        for n_pilot in (2, 4):
            with pytest.raises(ValueError, match=f"unknown pilot mode '{mode}'"):
                pilots_from_basis(basis, n_pilot, mode)

    @pytest.mark.parametrize("mode", ["unitary-random", "permutation"])
    def test_square_pilots_are_the_unitary_factor(self, mode):
        """At n_pilot = N_t the pilots are Q, the first N_t columns of any
        longer pilot matrix from the same basis, in an array of their own."""
        bases = np.stack([draw_pilot_basis(4, np.random.default_rng(seed), mode) for seed in range(3)])
        q = pilots_from_basis(bases, 4, mode)
        assert q.shape == (3, 4, 4) and q.dtype == complex
        assert not np.shares_memory(q, bases)
        np.testing.assert_array_equal(pilots_from_basis(bases, 6, mode)[..., :4], q)

    @pytest.mark.parametrize("mode", ["unitary-random", "permutation"])
    def test_stacked_bases_match_per_matrix_calls(self, mode):
        rng = np.random.default_rng(6)
        bases = np.stack([draw_pilot_basis(4, rng, mode) for _ in range(5)])
        stacked = pilots_from_basis(bases, 6, mode)
        assert stacked.shape == (5, 4, 6)
        for basis, x_p in zip(bases, stacked):
            np.testing.assert_array_equal(x_p, pilots_from_basis(basis, 6, mode))
        # build_pilot_matrix is the draw and the construction on one stream
        np.testing.assert_array_equal(
            build_pilot_matrix(4, 6, np.random.default_rng(7), mode),
            pilots_from_basis(draw_pilot_basis(4, np.random.default_rng(7), mode), 6, mode))

    def test_deterministic_given_stream(self):
        a = build_pilot_matrix(4, 8, np.random.default_rng(5))
        b = build_pilot_matrix(4, 8, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestTransmitPilots:
    """Pilot matrices sent through apply_channel as a batch of channel uses."""

    def test_noiseless_is_plain_product(self):
        rng = np.random.default_rng(3)
        h = sample_channel(3, 2, rng)
        x_p = build_pilot_matrix(2, 5, rng)
        y_p = send_pilots(h, x_p, rng)
        np.testing.assert_allclose(y_p, h @ x_p, atol=1e-14)

    def test_identity_pilots_reveal_the_scaled_channel(self):
        rng = np.random.default_rng(4)
        h = sample_channel(4, 4, rng)
        x_p = np.concatenate([np.eye(4), np.zeros((4, 3))], axis=1)
        y_p = send_pilots(h, x_p, rng, gain=2.25)
        np.testing.assert_allclose(y_p[:, :4], 1.5 * h, atol=1e-13)

    def test_matches_brute_force_multiply_oracle(self):
        rng = np.random.default_rng(5)
        h = sample_channel(2, 2, rng)
        x_p = build_pilot_matrix(2, 3, rng)
        y_p = send_pilots(h, x_p, rng)
        oracle = np.zeros((2, 3), dtype=complex)
        for i in range(2):
            for j in range(3):
                for t in range(2):
                    oracle[i, j] += h[i, t] * x_p[t, j]
        np.testing.assert_allclose(y_p, oracle, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            apply_channel(np.eye(2), 1.0, np.zeros((3, 4)), sample_noise((2, 4), 0.0, rng))


class TestLeastSquares:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(7)
        for gain in (1.0, 4.0, 0.25):
            h = sample_channel(4, 4, rng)
            x_p = build_pilot_matrix(4, 8, rng)
            y_p = send_pilots(h, x_p, rng, gain=gain)
            np.testing.assert_allclose(estimate_ls(y_p, x_p, gain), h, atol=1e-10)

    def test_per_entry_mse_equals_sigma2(self):
        """LS error is the projected noise: per-entry variance sigma2 at G=1."""
        rng = np.random.default_rng(8)
        sigma2 = 0.1
        total = 0.0
        n_trials = 1000
        for _ in range(n_trials):
            h = sample_channel(4, 4, rng)
            x_p = build_pilot_matrix(4, 8, rng)
            y_p = send_pilots(h, x_p, rng, sigma2=sigma2)
            h_hat = estimate_ls(y_p, x_p, 1.0)
            total += np.mean(np.abs(h - h_hat) ** 2)
        assert abs(total / n_trials - sigma2) < 0.05 * sigma2

    def test_general_form_matches_shortcut_for_semi_unitary_pilots(self):
        rng = np.random.default_rng(9)
        h = sample_channel(3, 3, rng)
        x_p = build_pilot_matrix(3, 6, rng)
        y_p = send_pilots(h, x_p, rng, sigma2=0.05)
        shortcut = estimate_ls(y_p, x_p, 1.0)
        gram = x_p @ x_p.conj().T
        general = y_p @ x_p.conj().T @ np.linalg.inv(gram)
        np.testing.assert_allclose(shortcut, general, atol=1e-12)

    def test_general_pilots_against_inverse_formula(self):
        """Non-semi-unitary pilots exercise the general solve path."""
        rng = np.random.default_rng(10)
        h = sample_channel(3, 2, rng)
        x_p = (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
        y_p = send_pilots(h, x_p, rng, sigma2=0.02)
        gram = x_p @ x_p.conj().T
        oracle = y_p @ x_p.conj().T @ np.linalg.inv(gram)
        np.testing.assert_allclose(estimate_ls(y_p, x_p, 1.0), oracle, atol=1e-11)

    def test_stacked_matches_per_matrix_calls(self):
        y_p, x_p = mixed_pilot_stack(np.random.default_rng(16))
        stacked = estimate_ls(y_p, x_p, 2.0)
        for b in range(len(y_p)):
            np.testing.assert_array_equal(stacked[b], estimate_ls(y_p[b], x_p[b], 2.0))

    def test_mismatched_stacks_rejected(self):
        y_p, x_p = mixed_pilot_stack(np.random.default_rng(17))
        with pytest.raises(ValueError, match="inconsistent"):
            estimate_ls(y_p[:3], x_p, 1.0)
        with pytest.raises(ValueError, match="inconsistent"):
            estimate_ls(y_p, x_p[0], 1.0)

    def test_singular_gram_raises(self):
        x_p = np.zeros((2, 4), dtype=complex)
        x_p[0, 0] = 1.0  # second pilot row is all zero -> singular Gram
        with pytest.raises(np.linalg.LinAlgError):
            estimate_ls(np.ones((3, 4), dtype=complex), x_p, 1.0)

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError):
            estimate_ls(np.ones((2, 2)), np.eye(2), 0.0)


class TestLmmse:
    def test_reduces_to_ls_at_zero_noise(self):
        rng = np.random.default_rng(11)
        h = sample_channel(4, 4, rng)
        x_p = build_pilot_matrix(4, 8, rng)
        y_p = send_pilots(h, x_p, rng, gain=2.0, sigma2=0.0)
        np.testing.assert_allclose(
            estimate_lmmse(y_p, x_p, 2.0, 0.0), estimate_ls(y_p, x_p, 2.0), atol=1e-12
        )

    def test_pure_shrinkage_at_unit_noise(self):
        """G=1, sigma2=1 on a noiseless draw shrinks the estimate to H/2."""
        rng = np.random.default_rng(12)
        h = sample_channel(3, 3, rng)
        x_p = build_pilot_matrix(3, 4, rng)
        y_p = send_pilots(h, x_p, rng, sigma2=0.0)
        np.testing.assert_allclose(estimate_lmmse(y_p, x_p, 1.0, 1.0), h / 2, atol=1e-12)

    def test_per_entry_mse_matches_shrinkage_closed_form(self):
        """sigma2 / (1 + sigma2) per entry at G = 1."""
        rng = np.random.default_rng(13)
        sigma2 = 0.5
        total = 0.0
        n_trials = 1000
        for _ in range(n_trials):
            h = sample_channel(4, 4, rng)
            x_p = build_pilot_matrix(4, 8, rng)
            y_p = send_pilots(h, x_p, rng, sigma2=sigma2)
            h_hat = estimate_lmmse(y_p, x_p, 1.0, sigma2)
            total += np.mean(np.abs(h - h_hat) ** 2)
        expected = sigma2 / (1 + sigma2)
        assert abs(total / n_trials - expected) < 0.05 * expected

    @pytest.mark.parametrize("sigma2", [0.01, 0.1, 1.0])
    def test_lmmse_beats_ls_on_the_same_draws(self, sigma2):
        rng = np.random.default_rng(14)
        ls_total = lmmse_total = 0.0
        for _ in range(400):
            h = sample_channel(4, 4, rng)
            x_p = build_pilot_matrix(4, 8, rng)
            y_p = send_pilots(h, x_p, rng, sigma2=sigma2)
            ls_total += np.mean(np.abs(h - estimate_ls(y_p, x_p, 1.0)) ** 2)
            lmmse_total += np.mean(np.abs(h - estimate_lmmse(y_p, x_p, 1.0, sigma2)) ** 2)
        assert lmmse_total < ls_total

    def test_stacked_matches_per_matrix_calls(self):
        y_p, x_p = mixed_pilot_stack(np.random.default_rng(18))
        stacked = estimate_lmmse(y_p, x_p, 2.0, 0.3)
        for b in range(len(y_p)):
            np.testing.assert_array_equal(stacked[b], estimate_lmmse(y_p[b], x_p[b], 2.0, 0.3))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            estimate_lmmse(np.ones((2, 2)), np.eye(2), 1.0, -0.5)
