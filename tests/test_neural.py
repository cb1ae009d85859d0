"""Tests for the from-scratch neural symbol classifier."""

import math

import numpy as np
import pytest

from mimolink.constellation import build_constellation
from mimolink.neural import (
    Hyperparameters,
    NetworkSpec,
    TrainingDivergedError,
    TrainingSet,
    cross_entropy,
    forward,
    gradient,
    init_network,
    load_network,
    one_hot,
    predict,
    save_network,
    train,
)
from mimolink.receiver import detect_ml


def flatten_params(network):
    return np.concatenate([w.ravel() for w in network.weights] + [b.ravel() for b in network.biases])


class TestInit:
    def test_same_seed_gives_identical_networks(self):
        spec = NetworkSpec(depth=3, width=8, input_dim=2, output_dim=4, seed=42)
        a, b = init_network(spec), init_network(spec)
        np.testing.assert_array_equal(flatten_params(a), flatten_params(b))

    def test_parameter_count_smallest_network(self):
        # 2 inputs -> 1 hidden unit -> 4 outputs: (2+1) + (4+4) = 11
        net = init_network(NetworkSpec(depth=1, width=1, input_dim=2, output_dim=4))
        assert sum(w.size for w in net.weights) + sum(b.size for b in net.biases) == 11

    def test_biases_start_at_zero(self):
        net = init_network(NetworkSpec(depth=2, width=5, input_dim=3, output_dim=4))
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))

    def test_weight_mean_concentrates_at_zero(self):
        net = init_network(NetworkSpec(depth=1, width=64, input_dim=64, output_dim=4, seed=1))
        w = net.weights[0]
        limit = math.sqrt(6.0 / (64 + 64))
        sigma_mean = limit / math.sqrt(3 * w.size)
        assert abs(w.mean()) < 3 * sigma_mean
        assert np.abs(w).max() <= limit

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(depth=0, width=4, input_dim=2, output_dim=4)


class TestForward:
    def test_rows_are_probability_vectors(self):
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=16, seed=0))
        x = np.random.default_rng(0).standard_normal((50, 2))
        probs = forward(net, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_zero_weights_give_uniform_output(self):
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=4))
        for w in net.weights:
            w[:] = 0.0
        probs = forward(net, [[0.3, -0.7]])
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_hand_computed_single_hidden_unit(self):
        """One hidden unit, hand-set weights, one sample: pencil-and-paper chain."""
        net = init_network(NetworkSpec(depth=1, width=1, input_dim=2, output_dim=2))
        net.weights[0][:] = np.array([[0.5], [-1.0]])
        net.biases[0][:] = np.array([0.25])
        net.weights[1][:] = np.array([[2.0, -0.5]])
        net.biases[1][:] = np.array([0.1, -0.2])
        x = np.array([[1.0, 2.0]])
        a = 1 / (1 + math.exp(-(1.0 * 0.5 + 2.0 * (-1.0) + 0.25)))
        z = np.array([a * 2.0 + 0.1, a * (-0.5) - 0.2])
        expected = np.exp(z - z.max())
        expected /= expected.sum()
        np.testing.assert_allclose(forward(net, x)[0], expected, atol=1e-12)

    def test_wrong_feature_width_rejected(self):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        with pytest.raises(ValueError):
            forward(net, np.zeros((3, 5)))


class TestOneHot:
    def test_empty_labels(self):
        assert one_hot([], 4).shape == (0, 4)

    @pytest.mark.parametrize("labels", [[-1], [4], [0, 5, 1]])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="labels"):
            one_hot(labels, 4)


class TestLoss:
    def test_perfect_prediction_is_numerically_zero(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        labels = one_hot([0], 4)
        assert cross_entropy(probs, labels) <= 1e-9

    def test_uniform_prediction_is_log_m(self):
        for m in (4, 16, 64):
            probs = np.full((7, m), 1.0 / m)
            labels = one_hot(np.arange(7) % m, m)
            assert abs(cross_entropy(probs, labels) - math.log(m)) < 1e-12

    def test_matches_independent_summation_oracle(self):
        rng = np.random.default_rng(1)
        raw = rng.random((20, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels_idx = rng.integers(0, 8, size=20)
        labels = one_hot(labels_idx, 8)
        oracle = 0.0
        for row, lab in zip(probs, labels_idx):
            oracle -= math.log(min(max(row[lab], 1e-12), 1 - 1e-12))
        oracle /= 20
        assert abs(cross_entropy(probs, labels) - oracle) < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        raw = rng.random((30, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        assert cross_entropy(probs, one_hot(rng.integers(0, 5, 30), 5)) >= 0.0


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_check(self, seed):
        """Central finite differences on every parameter of a D=2, W=8 net."""
        rng = np.random.default_rng(seed)
        spec = NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=seed)
        net = init_network(spec)
        x = rng.standard_normal((12, 2))
        labels = rng.integers(0, 4, size=12)
        onehot = one_hot(labels, 4)
        weight_grads, bias_grads = gradient(net, x, labels)
        h = 1e-6
        params = list(net.weights) + list(net.biases)
        grads = list(weight_grads) + list(bias_grads)
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = cross_entropy(forward(net, x), onehot)
                flat[i] = keep - h
                down = cross_entropy(forward(net, x), onehot)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                rel = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]))
                assert rel < 1e-5, f"parameter {i}: analytic {gflat[i]}, fd {fd}"

    def test_saturated_correct_prediction_has_zero_gradient(self):
        """p = y exactly: the clamped loss is flat, so every gradient vanishes."""
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=3, seed=3))
        net.biases[-1][:] = np.array([1e4, 0.0, 0.0])  # softmax saturates to class 0
        weight_grads, bias_grads = gradient(net, np.array([[0.1, -0.1]]), np.array([0]))
        for g in list(weight_grads) + list(bias_grads):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_batch_gradient_is_mean_of_per_sample_gradients(self):
        rng = np.random.default_rng(4)
        net = init_network(NetworkSpec(depth=2, width=6, input_dim=3, output_dim=5, seed=4))
        x = rng.standard_normal((8, 3))
        labels = rng.integers(0, 5, size=8)
        batch_w, batch_b = gradient(net, x, labels)
        sums_w = [np.zeros_like(w) for w in batch_w]
        sums_b = [np.zeros_like(b) for b in batch_b]
        for i in range(8):
            gw, gb = gradient(net, x[i:i + 1], labels[i:i + 1])
            for acc, g in zip(sums_w, gw):
                acc += g / 8
            for acc, g in zip(sums_b, gb):
                acc += g / 8
        for got, expected in zip(batch_w + batch_b, sums_w + sums_b):
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_row_permutation_leaves_full_batch_gradient_unchanged(self):
        rng = np.random.default_rng(5)
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=4, seed=5))
        x = rng.standard_normal((16, 2))
        labels = rng.integers(0, 4, size=16)
        perm = rng.permutation(16)
        base_w, base_b = gradient(net, x, labels)
        perm_w, perm_b = gradient(net, x[perm], labels[perm])
        for a, b in zip(base_w + base_b, perm_w + perm_b):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestTraining:
    def test_separable_two_class_toy_beats_uniform(self):
        """Training loss drops strictly below ln 2 within 50 epochs."""
        rng = np.random.default_rng(6)
        n = 400
        x = np.concatenate([rng.normal(-2, 0.3, (n // 2, 2)), rng.normal(2, 0.3, (n // 2, 2))])
        labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=2, seed=6))
        history = train(net, TrainingSet(x, labels),
                        Hyperparameters(epochs=50, patience=50))
        assert history.train_loss[-1] < math.log(2)

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(7)
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=4, seed=7))
        before = flatten_params(net).copy()
        x = rng.standard_normal((64, 2))
        labels = rng.integers(0, 4, size=64)
        history = train(net, TrainingSet(x, labels),
                        Hyperparameters(learning_rate=0.0, epochs=8, patience=100))
        np.testing.assert_array_equal(flatten_params(net), before)
        assert max(history.train_loss) - min(history.train_loss) < 1e-12

    def test_qpsk_near_noiseless_validation_accuracy(self):
        """Quadrant classes at sigma2 = 1e-3 are learned to >= 99% accuracy."""
        rng = np.random.default_rng(8)
        table = build_constellation("QPSK", 4)
        n = 10_000
        labels = rng.integers(0, 4, size=n)
        noisy = table.points[labels] + np.sqrt(1e-3) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        x = np.column_stack([noisy.real, noisy.imag])
        net = init_network(NetworkSpec(depth=2, width=16, input_dim=2, output_dim=4, seed=8))
        train(net, TrainingSet(x, labels), Hyperparameters())
        holdout_labels = rng.integers(0, 4, size=2000)
        holdout = table.points[holdout_labels] + np.sqrt(1e-3) * (
            rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) / np.sqrt(2)
        accuracy = np.mean(predict(net, np.column_stack([holdout.real, holdout.imag])) == holdout_labels)
        assert accuracy >= 0.99

    def test_determinism_of_loss_history(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((256, 2))
        labels = rng.integers(0, 4, size=256)
        histories = []
        for _ in range(2):
            net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=9))
            histories.append(train(net, TrainingSet(x, labels),
                                   Hyperparameters(epochs=12, patience=100)))
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_loss == histories[1].val_loss

    def test_non_finite_loss_raises_and_names_the_epoch(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((128, 2))
        x[17, 0] = np.nan  # poisons the forward pass, hence the loss
        labels = rng.integers(0, 4, size=128)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=10))
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(net, TrainingSet(x, labels), Hyperparameters(epochs=10))

    def test_early_stopping_respects_patience(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 2))
        labels = rng.integers(0, 2, size=100)  # unlearnable noise
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=2, seed=11))
        history = train(net, TrainingSet(x, labels),
                        Hyperparameters(epochs=500, patience=5, learning_rate=0.5))
        assert history.epochs_run < 500

    def test_empty_training_set_rejected(self):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=2))
        with pytest.raises(ValueError):
            train(net, TrainingSet(np.zeros((0, 2)), np.zeros(0, int)), Hyperparameters())


class TestPredictAndPersistence:
    def test_predict_is_argmax_of_forward(self):
        rng = np.random.default_rng(12)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=16, seed=12))
        x = rng.standard_normal((200, 2))
        np.testing.assert_array_equal(predict(net, x), np.argmax(forward(net, x), axis=1))

    def test_high_snr_qpsk_agreement_with_ml_detector(self):
        rng = np.random.default_rng(13)
        table = build_constellation("QPSK", 4)
        labels = rng.integers(0, 4, size=4000)
        noisy = table.points[labels] + 0.02 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
        x = np.column_stack([noisy.real, noisy.imag])
        net = init_network(NetworkSpec(depth=2, width=16, input_dim=2, output_dim=4, seed=13))
        train(net, TrainingSet(x, labels), Hyperparameters(epochs=60))
        ml_idx = detect_ml(noisy, table)
        assert np.mean(predict(net, x) == ml_idx) >= 0.99

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=14))
        x = rng.standard_normal((64, 2))
        train(net, TrainingSet(x, rng.integers(0, 4, 64)), Hyperparameters(epochs=3, patience=10))
        path = tmp_path / "net.txt"
        save_network(net, path)
        loaded = load_network(path)
        np.testing.assert_array_equal(flatten_params(loaded), flatten_params(net))
        np.testing.assert_array_equal(predict(loaded, x), predict(net, x))

    @pytest.mark.parametrize("keep", ["empty", "truncated", "extra line"])
    def test_malformed_file_rejected_naming_the_path(self, tmp_path, keep):
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=14))
        path = tmp_path / "net.txt"
        save_network(net, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 3
        body = {"empty": [], "truncated": lines[:-1], "extra line": lines + ["0.5"]}[keep]
        path.write_text("".join(line + "\n" for line in body), encoding="utf-8")
        with pytest.raises(ValueError, match="net.txt"):
            load_network(path)
