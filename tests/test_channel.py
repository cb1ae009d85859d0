"""Tests for large-scale gain, Rayleigh sampling, noise, and Eq.-style application."""

import math

import numpy as np
import pytest
from scipy import stats

from mimolink.channel import (
    REFERENCE_DISTANCE_M,
    SPEED_OF_LIGHT,
    apply_channel,
    complex_gaussian,
    large_scale_gain,
    sample_channel,
    sample_noise,
)


class TestLargeScaleGain:
    def test_unit_gain_calibration_point(self):
        """lambda = 4 pi at d = 1 m with eta = 2 gives exactly G = 1."""
        f_c = SPEED_OF_LIGHT / (4 * math.pi)
        assert abs(large_scale_gain(f_c, 1.0, 2.0) - 1.0) < 1e-12

    def test_inverse_square_distance(self):
        g1 = large_scale_gain(1.8e9, 50.0, 2.0)
        g2 = large_scale_gain(1.8e9, 100.0, 2.0)
        assert abs(g1 / g2 - 4.0) < 1e-12

    def test_db_domain_oracle(self):
        """FSPL at 1 m plus eta * 10 log10(d) slope, evaluated independently."""
        f_c, d, eta = 1.8e9, 100.0, 3.0
        fspl_1m_db = 20 * math.log10(4 * math.pi * f_c * REFERENCE_DISTANCE_M / SPEED_OF_LIGHT)
        expected_db = -(fspl_1m_db + 10 * eta * math.log10(d))
        assert abs(10 * math.log10(large_scale_gain(f_c, d, eta)) - expected_db) < 1e-9

    def test_distance_below_reference_rejected(self):
        with pytest.raises(ValueError, match=r"^d must be at least"):
            large_scale_gain(1.8e9, 0.5, 2.0)

    @pytest.mark.parametrize("f_c, d, eta, key", [(-1.0, 10, 2, "f_c"), (0.0, 10, 2, "f_c"),
                                                  (1e9, 10, 1.5, "eta")])
    def test_geometry_invariants_enforced(self, f_c, d, eta, key):
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            large_scale_gain(f_c, d, eta)


def old_complex_gaussian(rng, shape):
    """The complex draw as first written: two draws, a complex sum and a division."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestDrawsMadeBeforehand:
    """Each draw function takes a stream or the standard normals drawn
    beforehand, laid out (..., 2, *shape); both give the first written
    formulas bit for bit."""

    @pytest.mark.parametrize("shape", [5, (3, 4), (16, 16)])
    def test_stream_draw_equals_the_first_formulas(self, shape):
        def pair(seed):
            return np.random.default_rng(seed), np.random.default_rng(seed)

        new, old = pair(30)
        assert complex_gaussian(new, shape).tobytes() == old_complex_gaussian(old, shape).tobytes()
        new, old = pair(31)
        assert sample_noise(shape, 0.37, new).tobytes() == (np.sqrt(0.37) * old_complex_gaussian(old, shape)).tobytes()
        if isinstance(shape, tuple):
            new, old = pair(32)
            raw = old_complex_gaussian(old, shape)
            expected = raw * (np.sqrt(raw.size) / np.linalg.norm(raw))
            assert sample_channel(*shape, new).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lead, shape", [((3, 4), (5, 2)), ((19,), (16, 16)), ((3,), (16, 4)),
                                             ((2, 4), (1, 3)), ((1,), (16, 16))],
                             ids=["3x4-of-5x2", "19-of-16x16", "3-of-16x4", "2x4-of-1x3", "1-of-16x16"])
    def test_stack_of_draws_equals_one_stream_call_per_matrix(self, lead, shape):
        """Matrix k of the stack holds the normals of stream 40 + k, so it
        must equal that stream's own call, and the channel must equal the
        first written normalization: each matrix scaled by its own
        np.linalg.norm. The stack takes its squared norms in one product."""
        seeds = np.arange(40, 40 + math.prod(lead)).reshape(lead)
        normals = np.stack([np.random.default_rng(seed).standard_normal((2,) + shape)
                            for seed in seeds.ravel()]).reshape(lead + (2,) + shape)
        channels = sample_channel(*shape, normals)
        noise = sample_noise(shape, 0.2, normals)
        assert channels.shape == noise.shape == lead + shape
        for index, seed in np.ndenumerate(seeds):
            raw = old_complex_gaussian(np.random.default_rng(seed), shape)
            first_written = raw * (np.sqrt(raw.size) / np.linalg.norm(raw))
            assert channels[index].view(float).tobytes() == first_written.view(float).tobytes()
            expected = sample_channel(*shape, np.random.default_rng(seed))
            assert channels[index].tobytes() == expected.tobytes()
            expected = sample_noise(shape, 0.2, np.random.default_rng(seed))
            assert noise[index].tobytes() == expected.tobytes()

    def test_zero_power_reads_no_draws(self):
        normals = np.full((4, 2, 3), np.nan)
        np.testing.assert_array_equal(sample_noise(3, 0.0, normals), np.zeros((4, 3)))

    def test_misshapen_draws_rejected(self):
        for normals in (np.zeros((4, 3, 3)), np.zeros((4, 2, 3, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match="draws"):
                sample_noise((3, 3), 0.5, normals)
        with pytest.raises(ValueError, match="draws"):
            sample_noise(3, 0.0, np.zeros((4, 3)))
        with pytest.raises(ValueError, match="draws"):
            sample_channel(2, 2, np.zeros((2, 2, 2, 3)))


class TestSampleChannel:
    @pytest.mark.parametrize("n_rx,n_tx", [(1, 1), (2, 2), (4, 2), (16, 16), (3, 7)])
    def test_frobenius_normalization_exact(self, n_rx, n_tx):
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = sample_channel(n_rx, n_tx, rng)
            assert abs(np.linalg.norm(h) ** 2 - n_rx * n_tx) < 1e-9

    def test_siso_is_unit_magnitude_uniform_phase(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_channel(1, 1, rng)[0, 0] for _ in range(2000)])
        np.testing.assert_allclose(np.abs(draws), 1.0, atol=1e-12)
        # crude uniformity check on the phase
        phases = np.angle(draws)
        assert abs(np.mean(phases > 0) - 0.5) < 0.05

    def test_raw_generator_magnitude_is_rayleigh(self):
        """KS test of |CN(0,1)| against Rayleigh(1/sqrt(2))."""
        rng = np.random.default_rng(2)
        raw = complex_gaussian(rng, 10_000)
        result = stats.kstest(np.abs(raw), "rayleigh", args=(0, 1 / np.sqrt(2)))
        assert result.pvalue > 0.01

    def test_bad_antenna_counts_rejected(self):
        with pytest.raises(ValueError):
            sample_channel(0, 1, np.random.default_rng(0))


class TestSampleNoise:
    def test_zero_power_gives_zero_vector(self):
        np.testing.assert_array_equal(sample_noise(8, 0.0, np.random.default_rng(0)), np.zeros(8))

    def test_empirical_variance_matches_sigma2(self):
        rng = np.random.default_rng(3)
        sigma2 = 0.37
        draws = sample_noise(100_000, sigma2, rng)
        sample_var = np.mean(np.abs(draws) ** 2)
        # var of |n|^2 is sigma2^2, so the mean's 3-sigma band is tight
        assert abs(sample_var - sigma2) < 3 * sigma2 / np.sqrt(draws.size)

    def test_real_imag_uncorrelated(self):
        rng = np.random.default_rng(4)
        draws = sample_noise(100_000, 1.0, rng)
        rho = np.corrcoef(draws.real, draws.imag)[0, 1]
        assert abs(rho) < 0.02

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            sample_noise(4, -0.1, np.random.default_rng(0))

    def test_shape_tuple(self):
        draws = sample_noise((3, 4), 0.5, np.random.default_rng(5))
        assert draws.shape == (3, 4) and draws.dtype == complex
        # same stream, same order as the flat draw
        flat = sample_noise(12, 0.5, np.random.default_rng(5))
        np.testing.assert_array_equal(draws.ravel(), flat)
        np.testing.assert_array_equal(sample_noise((3, 4), 0.0, np.random.default_rng(5)), np.zeros((3, 4)))


class TestApplyChannel:
    def test_identity_channel_passthrough(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = apply_channel(np.eye(4, dtype=complex), 1.0, x, sample_noise(4, 0.0, rng))
        np.testing.assert_allclose(y, x, atol=1e-15)

    def test_scalar_gain(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = apply_channel(np.eye(3, dtype=complex), 4.0, x, sample_noise(3, 0.0, rng))
        np.testing.assert_allclose(y, 2 * x, atol=1e-14)

    def test_matches_double_loop_multiply_oracle(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = apply_channel(h, 1.0, x, sample_noise(5, 0.0, rng))
        oracle = np.zeros(5, dtype=complex)
        for i in range(5):
            for j in range(3):
                oracle[i] += h[i, j] * x[j]
        np.testing.assert_allclose(y, oracle, atol=1e-12)

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, b = 2.5, -1.25 + 0.5j
        zeros = np.zeros(4, dtype=complex)
        lhs = apply_channel(h, 1.0, a * x1 + b * x2, zeros)
        rhs = a * apply_channel(h, 1.0, x1, zeros) + b * apply_channel(h, 1.0, x2, zeros)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batched_uses_one_noise_column_each(self):
        rng = np.random.default_rng(9)
        y = apply_channel(np.eye(2), 1.0, np.zeros((2, 1000)), sample_noise((2, 1000), 1.0, rng))
        assert y.shape == (2, 1000)
        # distinct noise across uses
        assert np.std(y[0].real) > 0.5

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="x has shape"):
            apply_channel(np.eye(3), 1.0, np.zeros(4), np.zeros(3))

    def test_nonpositive_gain_rejected(self):
        for gain in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"G must be positive, got {gain}"):
                apply_channel(np.eye(2), gain, np.zeros(2), np.zeros(2))

    def test_noise_is_added_bit_for_bit(self):
        """y is sqrt(G) H x plus the noise passed, bit for bit; with a zero
        input y is the noise itself."""
        rng = np.random.default_rng(11)
        h = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        x = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        noise = sample_noise((3, 5), 0.3, np.random.default_rng(12))
        y = apply_channel(h, 2.0, x, noise)
        np.testing.assert_array_equal(y, np.sqrt(2.0) * (h @ x) + noise)
        np.testing.assert_array_equal(apply_channel(h, 2.0, np.zeros((2, 5)), noise), noise)
        np.testing.assert_array_equal(apply_channel(h, 2.0, np.zeros(2), noise[:, 0]), noise[:, 0])

    def test_stack_matches_per_matrix_calls(self):
        """A stack of channels and of noise: each slice is its own call bit for bit."""
        rng = np.random.default_rng(13)
        h = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        x = rng.standard_normal((4, 2, 5)) + 1j * rng.standard_normal((4, 2, 5))
        noise = np.stack([sample_noise((3, 5), 0.3, np.random.default_rng(20 + b)) for b in range(4)])
        y = apply_channel(h, 2.0, x, noise)
        for b in range(4):
            np.testing.assert_array_equal(y[b], apply_channel(h[b], 2.0, x[b], noise[b]))

    def test_stack_shape_mismatch_rejected(self):
        h = np.ones((4, 3, 2), dtype=complex)
        for x in (np.zeros((4, 2)), np.zeros((3, 2, 5)), np.zeros((4, 3, 5))):
            with pytest.raises(ValueError, match="x has shape"):
                apply_channel(h, 1.0, x, np.zeros((4, 3, 5)))
        with pytest.raises(ValueError, match="noise"):
            apply_channel(h, 1.0, np.zeros((4, 2, 5)), np.zeros((4, 3, 4)))

    def test_noise_must_be_drawn_beforehand(self):
        """A generator is not noise: the noise comes from sample_noise."""
        with pytest.raises(ValueError, match=r"noise has shape \(\), expected \(3,\)"):
            apply_channel(np.eye(3), 1.0, np.zeros(3), np.random.default_rng(0))
