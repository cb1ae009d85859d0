"""Tests for ZF / L-MMSE equalization and ML / K-means detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mimolink import receiver
from mimolink.channel import apply_channel, sample_channel, sample_noise
from mimolink.constellation import build_constellation, map_bits_to_symbols
from mimolink.receiver import detect_kmeans, detect_ml, equalize_lmmse, equalize_zf

TABLES = [build_constellation(scheme, m)
          for scheme, m in [("QPSK", 4), ("QAM", 16), ("QAM", 64), ("QAM", 256)]]
TABLE_IDS = [f"M{table.M}" for table in TABLES]
COORDINATES = st.floats(min_value=-1e3, max_value=1e3)


def random_channel(n_rx, n_tx, rng):
    return sample_channel(n_rx, n_tx, rng)


class TestZeroForcing:
    def test_identity_channel_noiseless(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out = equalize_zf(np.eye(4), 1.0, x)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_scaled_identity_channel(self):
        """The pseudo-inverse cancels any channel gain under perfect CSI."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = 2.0 * x  # H = 2I, G = 1
        np.testing.assert_allclose(equalize_zf(2 * np.eye(3), 1.0, y), x, atol=1e-12)

    def test_perfect_csi_noiseless_recovery_4x4(self):
        rng = np.random.default_rng(2)
        h = random_channel(4, 4, rng)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = apply_channel(h, 3.0, x, sample_noise(4, 0.0, rng))
        s_hat = equalize_zf(h, 3.0, y)
        assert np.linalg.norm(s_hat - x) < 1e-9
        # independent linear-solve oracle
        oracle = np.linalg.pinv(h) @ y / np.sqrt(3.0)
        np.testing.assert_allclose(s_hat, oracle, atol=1e-10)

    @pytest.mark.parametrize("n_rx,n_tx", [(2, 2), (4, 2), (8, 8), (6, 3)])
    def test_noiseless_recovery_across_shapes(self, n_rx, n_tx):
        rng = np.random.default_rng(3)
        h = random_channel(n_rx, n_tx, rng)
        x = rng.standard_normal(n_tx) + 1j * rng.standard_normal(n_tx)
        y = np.sqrt(2.0) * h @ x
        assert np.linalg.norm(equalize_zf(h, 2.0, y) - x) < 1e-9

    def test_linearity_in_y(self):
        rng = np.random.default_rng(4)
        h = random_channel(4, 4, rng)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        scaled = equalize_zf(h, 1.0, 2.5 * y)
        np.testing.assert_allclose(scaled, 2.5 * equalize_zf(h, 1.0, y), atol=1e-12)

    def test_batched_y(self):
        rng = np.random.default_rng(5)
        h = random_channel(4, 4, rng)
        ys = rng.standard_normal((4, 10)) + 1j * rng.standard_normal((4, 10))
        batched = equalize_zf(h, 1.0, ys)
        for col in range(10):
            np.testing.assert_allclose(batched[:, col], equalize_zf(h, 1.0, ys[:, col]), atol=1e-12)

    def test_stacked_matches_per_matrix_calls(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        y = rng.standard_normal((5, 4, 7)) + 1j * rng.standard_normal((5, 4, 7))
        stacked = equalize_zf(h, 2.0, y)
        assert stacked.shape == (5, 3, 7)
        for b in range(5):
            np.testing.assert_array_equal(stacked[b], equalize_zf(h[b], 2.0, y[b]))
        h[2, :, 1] = 0  # one rank-deficient estimate fails the whole stack
        with pytest.raises(np.linalg.LinAlgError):
            equalize_zf(h, 2.0, y)

    def test_rank_deficient_estimate_raises_linalgerror(self):
        h = np.zeros((4, 2), dtype=complex)
        h[:, 0] = 1.0  # second column zero -> singular Gram
        with pytest.raises(np.linalg.LinAlgError):
            equalize_zf(h, 1.0, np.ones(4, dtype=complex))

    def test_fat_channel_rejected(self):
        with pytest.raises(ValueError, match="N_r"):
            equalize_zf(np.ones((2, 4)), 1.0, np.ones(2))


class TestLmmseEqualizer:
    def test_coincides_with_zf_at_zero_noise(self):
        rng = np.random.default_rng(6)
        h = random_channel(4, 4, rng)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_allclose(
            equalize_lmmse(h, 2.0, 0.0, y), equalize_zf(h, 2.0, y), atol=1e-10
        )

    def test_shrinks_to_zero_with_growing_noise(self):
        rng = np.random.default_rng(7)
        h = random_channel(4, 4, rng)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        norms = [
            np.linalg.norm(equalize_lmmse(h, 1.0, sigma2, y))
            for sigma2 in (0.0, 0.1, 1.0, 10.0, 1e3, 1e6)
        ]
        assert all(a > b for a, b in zip(norms, norms[1:]))
        assert norms[-1] < 1e-4

    def test_lower_ser_than_zf_at_low_snr(self):
        """Monte Carlo: L-MMSE dominates ZF at sigma2 = 0.1, 16-QAM, 4x4."""
        rng = np.random.default_rng(8)
        table = build_constellation("QAM", 16)
        sigma2 = 0.1
        n_rx = n_tx = 4
        uses_per_channel = 100
        zf_errors = lmmse_errors = total = 0
        for _ in range(250):
            h = random_channel(n_rx, n_tx, rng)
            tx = rng.integers(0, 16, size=n_tx * uses_per_channel)
            x = table.points[tx].reshape(uses_per_channel, n_tx).T / np.sqrt(n_tx)
            y = apply_channel(h, 1.0, x, sample_noise((n_rx, uses_per_channel), sigma2, rng))
            s_zf = (equalize_zf(h, 1.0, y) * np.sqrt(n_tx)).T.ravel()
            s_lm = (equalize_lmmse(h, 1.0, sigma2, y) * np.sqrt(n_tx)).T.ravel()
            zf_errors += np.count_nonzero(detect_ml(s_zf, table) != tx)
            lmmse_errors += np.count_nonzero(detect_ml(s_lm, table) != tx)
            total += tx.size
        assert lmmse_errors / total <= zf_errors / total + 0.01

    def test_stacked_matches_per_matrix_calls(self):
        rng = np.random.default_rng(10)
        h = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
        y = rng.standard_normal((5, 4, 7)) + 1j * rng.standard_normal((5, 4, 7))
        stacked = equalize_lmmse(h, 2.0, 0.1, y)
        for b in range(5):
            np.testing.assert_array_equal(stacked[b], equalize_lmmse(h[b], 2.0, 0.1, y[b]))

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            equalize_lmmse(np.eye(2), 1.0, -1.0, np.ones(2))


class TestMlDetection:
    def test_exact_points_detect_to_themselves(self):
        for scheme, m in [("QPSK", 4), ("QAM", 16), ("QAM", 64), ("QAM", 256)]:
            table = build_constellation(scheme, m)
            result = detect_ml(table.points, table)
            np.testing.assert_array_equal(result, np.arange(m))

    def test_quadrant_decision_qpsk(self):
        table = build_constellation("QPSK", 4)
        s = 0.9 * table.points[0] + (0.01 - 0.02j)
        assert detect_ml(np.array([s]), table)[0] == 0

    def test_matches_exhaustive_distance_scan(self):
        rng = np.random.default_rng(9)
        for scheme, m in [("QPSK", 4), ("QAM", 64)]:
            table = build_constellation(scheme, m)
            s = rng.standard_normal(2000) * 0.7 + 1j * rng.standard_normal(2000) * 0.7
            got = detect_ml(s, table)
            oracle = np.array([
                int(np.argmin([abs(v - p) for p in table.points])) for v in s
            ])
            np.testing.assert_array_equal(got, oracle)

    def test_scale_invariance_of_the_decision(self):
        """Scaling all distances by the same positive constant moves nothing."""
        rng = np.random.default_rng(10)
        table = build_constellation("QAM", 16)
        s = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        base = detect_ml(s, table)
        scaled_points = type(table)(
            scheme=table.scheme, M=table.M, k=table.k,
            points=table.points * 3.0, labels=table.labels, scale=table.scale * 3.0,
        )
        np.testing.assert_array_equal(detect_ml(s * 3.0, scaled_points), base)

    def test_empty_input(self):
        table = build_constellation("QPSK", 4)
        assert detect_ml(np.array([]), table).size == 0

    @settings(max_examples=300, deadline=None)
    @given(table=st.sampled_from(TABLES),
           coordinates=st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=30))
    def test_matches_exhaustive_scan_wherever_resolvable(self, table, coordinates):
        """The per-axis slicer picks the point of the complex-distance scan
        whenever the scan's two smallest distances differ beyond rounding."""
        s = np.array([complex(re, im) for re, im in coordinates])
        distances = np.abs(s[:, None] - table.points)
        two_nearest = np.sort(distances, axis=1)[:, :2]
        resolvable = two_nearest[:, 1] - two_nearest[:, 0] > 1e-12 * two_nearest[:, 1]
        got = detect_ml(s, table)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got[resolvable], distances.argmin(axis=1)[resolvable])

    @pytest.mark.parametrize("table", TABLES, ids=TABLE_IDS)
    def test_level_midpoints_go_to_the_lower_index(self, table):
        """A symbol on a midpoint between two I or Q levels takes the lower
        level. K-means agrees wherever its float distances to the two levels
        tie exactly, as at the midpoint 0 between the two inner levels."""
        side = math.isqrt(table.M)
        levels = table.points.real[::side]
        midpoints = (levels[:-1] + levels[1:]) / 2
        exact = midpoints - levels[:-1] == levels[1:] - midpoints
        assert exact[(side - 1) // 2]
        lower, every = np.arange(side - 1), np.arange(side)
        cases = [
            (midpoints[:, None] + 1j * levels, lower[:, None] * side + every, np.s_[exact, :]),
            (levels[:, None] + 1j * midpoints, every[:, None] * side + lower, np.s_[:, exact]),
            (midpoints[:, None] + 1j * midpoints, lower[:, None] * side + lower, np.ix_(exact, exact)),
        ]
        for s, expected, tied in cases:
            np.testing.assert_array_equal(detect_ml(s, table), expected.ravel())
            np.testing.assert_array_equal(detect_kmeans(s[tied], table), expected[tied].ravel())

    def test_far_symbol_slices_to_the_true_nearest_level(self):
        """Far out on Q the distances to the four I levels round to a tie:
        the complex-distance scan and K-means fall back to the lowest index
        (I level 0), while the slicer still finds the I level nearest 0.3."""
        table = build_constellation("QAM", 16)
        s = np.array([0.3 + 1e9j])
        assert detect_ml(s, table)[0] == 2 * 4 + 3
        assert np.abs(s[:, None] - table.points).argmin() == 3
        assert detect_kmeans(s, table)[0] == 3


class TestKmeansDetection:
    def test_centroids_detect_to_their_own_indices(self):
        for table in TABLES:
            np.testing.assert_array_equal(detect_kmeans(table.points, table), np.arange(table.M))

    @pytest.mark.parametrize("table", TABLES, ids=TABLE_IDS)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_inputs_across_a_chunk_boundary(self, table, offset):
        step = max(1, receiver._DETECT_ENTRIES // table.M)
        rng = np.random.default_rng(13)
        tx = rng.integers(0, table.M, size=step + offset)
        s = table.points[tx] + 0.2 * (rng.standard_normal(tx.size) + 1j * rng.standard_normal(tx.size))
        sq_dist = (s.real[:, None] - table.points.real) ** 2 + (s.imag[:, None] - table.points.imag) ** 2
        got = detect_kmeans(s, table)
        np.testing.assert_array_equal(got, sq_dist.argmin(axis=1))
        np.testing.assert_array_equal(got, detect_ml(s, table))

    @pytest.mark.parametrize("scheme,m", [("QPSK", 4), ("QAM", 16), ("QAM", 64), ("QAM", 256)])
    def test_agrees_with_ml_on_noisy_batches(self, scheme, m):
        rng = np.random.default_rng(11)
        table = build_constellation(scheme, m)
        tx = rng.integers(0, m, size=20_000)
        noisy = table.points[tx] + 0.1 * (rng.standard_normal(tx.size) + 1j * rng.standard_normal(tx.size))
        np.testing.assert_array_equal(
            detect_kmeans(noisy, table), detect_ml(noisy, table)
        )

    def test_empty_batch(self):
        table = build_constellation("QAM", 16)
        result = detect_kmeans(np.array([]), table)
        assert result.size == 0

    def test_noiseless_symbol_stream(self):
        rng = np.random.default_rng(12)
        table = build_constellation("QAM", 64)
        bits = rng.integers(0, 2, size=600, dtype=np.uint8)
        tx = map_bits_to_symbols(bits, table)
        np.testing.assert_array_equal(detect_kmeans(table.points[tx], table), tx)
