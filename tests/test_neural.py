"""Tests for the from-scratch neural symbol classifier."""

import copy
import dataclasses
import errno
import math
import os
import pickle
import re
import warnings

import numpy as np
import pytest
from scipy.special import expit

from mimolink import neural
from mimolink.constellation import build_constellation
from mimolink.neural import (
    Hyperparameters,
    NetworkSpec,
    TrainingDivergedError,
    cross_entropy,
    forward,
    gradient,
    init_network,
    load_network,
    predict,
    save_network,
    train,
    TrainingHistory,
    _as_feature_matrix,
    _checked_labels,
    _sigmoid,
    _softmax,
    PROB_CLAMP_HI,
    PROB_CLAMP_LO,
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


class TestParameterStore:
    """A network's weights and biases are views of its one parameter
    buffer, which the constructor fills from copies of its arguments."""

    SPEC = NetworkSpec(depth=2, width=3, input_dim=2, output_dim=4, seed=5)

    def test_weights_and_biases_view_the_buffer_in_layer_order(self):
        net = init_network(self.SPEC)
        flat = np.concatenate([p.ravel() for layer in zip(net.weights, net.biases) for p in layer])
        np.testing.assert_array_equal(net.params, flat)
        for p in net.weights + net.biases:
            assert np.shares_memory(p, net.params)

    def test_a_weight_written_through_its_view_shows_in_forward(self):
        rng = np.random.default_rng(15)
        net = init_network(self.SPEC)
        x = rng.standard_normal((6, 2))
        before = forward(net, x)
        net.weights[1][2, 0] = 3.0
        net.biases[-1][1] = -2.0
        after = forward(net, x)
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(after, _textbook_forward(net, x)[1], rtol=1e-12)

    def test_an_assigned_entry_is_copied_into_the_buffer(self, tmp_path):
        """Assigning a weight or bias entry writes the buffer that forward
        and training read, so the network and its saved, loaded and pickled
        copies decide alike."""
        rng = np.random.default_rng(16)
        net = init_network(self.SPEC)
        x = rng.standard_normal((6, 2))
        before = forward(net, x)
        held = net.weights[1]
        net.weights[1] = rng.standard_normal((3, 3))
        net.biases[-1] = np.array([0.5, -0.5, 0.25, 0.0])
        net.weights[-1] *= 2.0
        assert net.weights[1] is held and np.shares_memory(held, net.params)
        after = forward(net, x)
        assert not np.array_equal(after, before)
        np.testing.assert_allclose(after, _textbook_forward(net, x)[1], rtol=1e-12)
        path = tmp_path / "net.txt"
        save_network(net, path)
        for twin in (load_network(path), pickle.loads(pickle.dumps(net))):
            np.testing.assert_array_equal(forward(twin, x), after)

    @pytest.mark.parametrize("which,layer,shape", [("weights", 1, (3, 4)), ("biases", -1, (4, 1))])
    def test_a_misshapen_entry_is_rejected_naming_its_layer(self, which, layer, shape):
        net = init_network(self.SPEC)
        params = net.params.copy()
        with pytest.raises(ValueError, match=rf"^layer {layer % 3}: {which} {re.escape(str(shape))}"):
            getattr(net, which)[layer] = np.zeros(shape)
        np.testing.assert_array_equal(net.params, params)

    @pytest.mark.parametrize("which", ["weights", "biases"])
    def test_a_slice_given_the_wrong_number_of_arrays_is_rejected(self, which):
        net = init_network(self.SPEC)
        params, views = net.params.copy(), getattr(net, which)
        with pytest.raises(ValueError, match=rf"^1 {which} for 2 layers$"):
            views[1:] = [views[1].copy()]
        np.testing.assert_array_equal(net.params, params)

    def test_constructor_copies_its_arguments(self):
        weights = [np.full((2, 3), 0.5), np.full((3, 3), -0.25), np.ones((3, 4))]
        biases = [np.zeros(3), np.zeros(3), np.arange(4.0)]
        net = neural.Network(self.SPEC, weights, biases, np.random.default_rng(0))
        weights[0][0, 0] = biases[2][0] = 9.0
        assert net.weights[0][0, 0] == 0.5 and net.biases[2][0] == 0.0
        for given, view in zip(weights + biases, net.weights + net.biases):
            assert not np.shares_memory(given, view)

    @pytest.mark.parametrize("layer,which,shape", [
        (0, "weights", (3, 2)),  # transposed, of the right size
        (1, "weights", (3, 4)),
        (2, "weights", (4, 3)),
        (1, "biases", (1,)),  # would broadcast
        (2, "biases", (4, 1)),
    ])
    def test_constructor_rejects_a_misshapen_array_naming_its_layer(self, layer, which, shape):
        net = init_network(self.SPEC)
        arrays = {"weights": list(net.weights), "biases": list(net.biases)}
        arrays[which][layer] = np.zeros(shape)
        with pytest.raises(ValueError, match=rf"^layer {layer}: .*{re.escape(str(shape))}"):
            neural.Network(self.SPEC, arrays["weights"], arrays["biases"], net.rng)

    def test_constructor_rejects_a_missing_layer(self):
        net = init_network(self.SPEC)
        with pytest.raises(ValueError, match="2 weights and 3 biases for 3 layers"):
            neural.Network(self.SPEC, net.weights[:2], net.biases, net.rng)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_owns_a_buffer_of_its_own(self, clone):
        net = init_network(self.SPEC)
        twin = clone(net)
        np.testing.assert_array_equal(twin.params, net.params)
        assert not np.shares_memory(twin.params, net.params)
        twin.weights[0][0, 0] += 1.0
        assert twin.params[0] == net.params[0] + 1.0
        assert twin.spec == net.spec
        np.testing.assert_array_equal(twin.rng.random(3), net.rng.random(3))


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

    def test_sigmoid_matches_expit_without_warnings(self):
        """0.5 + 0.5 tanh(z / 2) is the logistic function to within 2.3e-16,
        stays in [0, 1], and neither overflows nor warns in either tail.
        It works in place, so it gets a copy of z."""
        z = np.concatenate([np.linspace(-800.0, 800.0, 160_001), [-np.inf, np.inf]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(z.copy())
        assert np.max(np.abs(got - expit(z))) <= 2.3e-16
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_wrong_feature_width_rejected(self):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        with pytest.raises(ValueError):
            forward(net, np.zeros((3, 5)))


def _reduce_max_softmax(z):
    """The row-wise softmax with its shift taken by np.maximum.reduce."""
    e = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def _special_rows(m):
    """Rows that probe the shift: ties, signed zeros, large magnitudes,
    infinities and NaN."""
    ramp = np.linspace(-3.0, 2.0, m)
    tie = ramp.copy()
    tie[0] = tie[-1] = 5.0
    signed_zeros = np.where(np.arange(m) % 2 == 0, -0.0, 0.0)
    zero_then_negative = np.full(m, -1.5)
    zero_then_negative[0], zero_then_negative[-1] = -0.0, 0.0
    large = np.where(np.arange(m) % 2 == 0, 1e300, -1e300)
    extreme = np.full(m, -1e308)
    extreme[m // 2] = 1e308
    near_overflow = 709.0 + ramp
    with_inf = ramp.copy()
    with_inf[-1] = np.inf
    with_minus_inf = ramp.copy()
    with_minus_inf[0] = -np.inf
    one_nan = ramp.copy()
    one_nan[m // 2] = np.nan
    return np.array([tie, np.zeros(m), signed_zeros, zero_then_negative, large, extreme,
                     near_overflow, with_inf, with_minus_inf, one_nan, np.full(m, np.nan)])


def _logit_blocks(n_rows, m, seed):
    """Matrices of n_rows logits covering every special row (one per
    matrix when n_rows = 1), the rest random normal at mixed scales."""
    rng = np.random.default_rng(seed)
    special = _special_rows(m)
    if n_rows == 1:
        return [row[None, :] for row in special] + [rng.standard_normal((1, m))]
    z = rng.standard_normal((n_rows, m)) * rng.choice([1e-3, 1.0, 1e3], size=(n_rows, 1))
    z[:len(special)] = special
    return [z]


class TestSoftmaxShift:
    """The shift is each row's argmax entry, which must give the bits of
    np.maximum.reduce whatever the row holds."""

    @pytest.mark.parametrize("n_rows", [1, 64, 2000])
    @pytest.mark.parametrize("m", [2, 4, 5, 16, 64])
    def test_softmax_matches_maximum_reduce_bit_for_bit(self, n_rows, m):
        for z in _logit_blocks(n_rows, m, seed=m * n_rows):
            with np.errstate(invalid="ignore", over="ignore"):
                expected = _reduce_max_softmax(z)
                got = _softmax(z.copy(), np.arange(z.shape[0]))
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 64, 2000])
    @pytest.mark.parametrize("m", [2, 4, 5, 16, 64])
    def test_forward_matches_maximum_reduce_bit_for_bit(self, n_rows, m):
        """Ties from two equal output columns, large logits from scaled
        output weights, and a NaN feature row."""
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=m, seed=m))
        net.weights[-1][:, -1] = net.weights[-1][:, 0]
        net.weights[-1] *= 1e3
        x = np.random.default_rng(n_rows).standard_normal((n_rows, 2)) * 50.0
        x[n_rows // 2] = np.nan
        # the logits of the folded layers: [W; b] blocks over feature-major inputs with a ones row
        ones = np.ones(n_rows)
        a = np.vstack([np.ascontiguousarray(x.T), ones])
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            a = np.vstack([_sigmoid(np.vstack([w, b]).T @ a), ones])
        with np.errstate(invalid="ignore"):
            expected = _reduce_max_softmax(a.T @ np.vstack([net.weights[-1], net.biases[-1]]))
            got = forward(net, x)
        assert got.tobytes() == expected.tobytes()
        assert np.isnan(got[n_rows // 2]).all()


class TestLabels:
    """Labels index rows in place, so an unchecked -1 would pick the last class."""

    @pytest.mark.parametrize("labels", [[-1], [4], [0, 5, 1]])
    @pytest.mark.parametrize("call", [
        lambda net, x, labels: cross_entropy(forward(net, x), labels),
        lambda net, x, labels: gradient(net, x, labels),
        lambda net, x, labels: train(net, x, labels, Hyperparameters(epochs=1)),
    ], ids=["cross_entropy", "gradient", "train"])
    def test_out_of_range_labels_rejected(self, call, labels):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        x = np.zeros((len(labels), 2))
        with pytest.raises(ValueError, match="labels"):
            call(net, x, labels)

    @pytest.mark.parametrize("labels, message", [
        ([0, 1.5, 2], "got 1.5 at position 1"),  # an int64 cast would read it as 1
        (np.array([[0.0, 1.0], [2.0, np.nan]]), "got nan at position 3"),
    ])
    @pytest.mark.parametrize("call", [
        lambda net, x, labels: cross_entropy(forward(net, x), labels),
        lambda net, x, labels: gradient(net, x, labels),
        lambda net, x, labels: train(net, x, labels, Hyperparameters(epochs=1)),
    ], ids=["cross_entropy", "gradient", "train"])
    def test_non_integral_labels_rejected_naming_them(self, call, labels, message):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        x = np.zeros((np.size(labels), 2))
        with pytest.raises(ValueError, match=rf"^labels must be integers, {message}$"):
            call(net, x, labels)

    @pytest.mark.parametrize("call", [
        lambda net, x, labels: cross_entropy(forward(net, x), labels),
        lambda net, x, labels: gradient(net, x, labels),
        lambda net, x, labels: train(net, x, labels, Hyperparameters(epochs=1)),
    ], ids=["cross_entropy", "gradient", "train"])
    def test_a_label_count_other_than_the_row_count_rejected(self, call):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        with pytest.raises(ValueError, match=r"^3 rows but 2 labels$"):
            call(net, np.zeros((3, 2)), [0, 1])

    def test_integral_float_labels_are_the_integers(self):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4, seed=3))
        x = np.random.default_rng(3).standard_normal((4, 2))
        labels = np.array([0, 3, 1, 2])
        for want, got in zip(gradient(net, x, labels), gradient(net, x, labels.astype(float))):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))


class TestLoss:
    def test_perfect_prediction_is_numerically_zero(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        labels = [0]
        assert cross_entropy(probs, labels) <= 1e-9

    def test_uniform_prediction_is_log_m(self):
        for m in (4, 16, 64):
            probs = np.full((7, m), 1.0 / m)
            labels = np.arange(7) % m
            assert abs(cross_entropy(probs, labels) - math.log(m)) < 1e-12

    def test_matches_independent_summation_oracle(self):
        rng = np.random.default_rng(1)
        raw = rng.random((20, 8))
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels_idx = rng.integers(0, 8, size=20)
        labels = labels_idx
        oracle = 0.0
        for row, lab in zip(probs, labels_idx):
            oracle -= math.log(min(max(row[lab], 1e-12), 1 - 1e-12))
        oracle /= 20
        assert abs(cross_entropy(probs, labels) - oracle) < 1e-12

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(2)
        raw = rng.random((30, 5))
        probs = raw / raw.sum(axis=1, keepdims=True)
        assert cross_entropy(probs, rng.integers(0, 5, 30)) >= 0.0


class TestGradient:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_finite_difference_check(self, seed):
        """Central finite differences on every parameter of a D=2, W=8 net."""
        rng = np.random.default_rng(seed)
        spec = NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=seed)
        net = init_network(spec)
        x = rng.standard_normal((12, 2))
        labels = rng.integers(0, 4, size=12)
        weight_grads, bias_grads = gradient(net, x, labels)
        h = 1e-6
        params = list(net.weights) + list(net.biases)
        grads = list(weight_grads) + list(bias_grads)
        for arr, grad in zip(params, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = cross_entropy(forward(net, x), labels)
                flat[i] = keep - h
                down = cross_entropy(forward(net, x), labels)
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
        """Validation loss drops strictly below ln 2 within 50 epochs."""
        rng = np.random.default_rng(6)
        n = 400
        x = np.concatenate([rng.normal(-2, 0.3, (n // 2, 2)), rng.normal(2, 0.3, (n // 2, 2))])
        labels = np.concatenate([np.zeros(n // 2, int), np.ones(n // 2, int)])
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=2, seed=6))
        history = train(net, x, labels,
                        Hyperparameters(epochs=50, patience=50))
        assert history.val_loss[-1] < math.log(2)

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(7)
        net = init_network(NetworkSpec(depth=1, width=4, input_dim=2, output_dim=4, seed=7))
        before = flatten_params(net).copy()
        x = rng.standard_normal((64, 2))
        labels = rng.integers(0, 4, size=64)
        history = train(net, x, labels,
                        Hyperparameters(learning_rate=0.0, epochs=8, patience=100))
        np.testing.assert_array_equal(flatten_params(net), before)
        assert max(history.val_loss) - min(history.val_loss) < 1e-12

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
        train(net, x, labels, Hyperparameters())
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
            histories.append(train(net, x, labels,
                                   Hyperparameters(epochs=12, patience=100)))
        assert histories[0].val_loss == histories[1].val_loss

    def test_non_finite_loss_raises_and_names_the_epoch(self):
        """The values trained up to the error still land in the network's
        own arrays."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((128, 2))
        x[17, 0] = np.nan  # poisons the forward pass, hence the loss
        labels = rng.integers(0, 4, size=128)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=10))
        held = net.weights + net.biases
        ref = copy.deepcopy(net)
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(net, x, labels, Hyperparameters(epochs=10))
        # the reference has no divergence check; one epoch takes the same steps
        _ref_train(ref, x, labels, Hyperparameters(epochs=1))
        for got, array, expected in zip(net.weights + net.biases, held, ref.weights + ref.biases):
            assert got is array
            np.testing.assert_array_equal(got, expected)
        assert np.isnan(flatten_params(net)).any()

    def test_each_epoch_scores_only_the_validation_rows(self, monkeypatch):
        """After its mini-batch steps, an epoch forwards exactly the
        validation rows, in split order, and never all n rows."""
        rng = np.random.default_rng(12)
        n = 250  # 200 training rows in steps of 64, 64, 64 and 8; 50 validation rows
        x = rng.standard_normal((n, 2))
        labels = rng.integers(0, 4, size=n)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=12))
        val_idx = copy.deepcopy(net.rng).permutation(n)[:50]
        forwarded = []
        forward_cached = neural._forward_cached

        def spy(layers, buffers, X, *rest):
            forwarded.append(X.copy())
            return forward_cached(layers, buffers, X, *rest)

        monkeypatch.setattr(neural, "_forward_cached", spy)
        history = train(net, x, labels,
                        Hyperparameters(batch_size=64, epochs=3, patience=100))
        assert history.epochs_run == 3
        assert len(forwarded) == 3 * 5  # per epoch: four steps, then the scoring pass
        for epoch in range(3):
            *steps, scored = forwarded[5 * epoch:5 * epoch + 5]
            assert [X.shape[0] for X in steps] == [64, 64, 64, 8]
            np.testing.assert_array_equal(scored, x[val_idx])

    def test_early_stopping_respects_patience(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((100, 2))
        labels = rng.integers(0, 2, size=100)  # unlearnable noise
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=2, seed=11))
        history = train(net, x, labels,
                        Hyperparameters(epochs=500, patience=5, learning_rate=0.5))
        assert history.epochs_run < 500

    @pytest.mark.parametrize("learning_rate", [math.nan, math.inf, -math.inf, -0.1])
    def test_non_finite_or_negative_learning_rate_rejected_by_name(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate"):
            Hyperparameters(learning_rate=learning_rate)

    RULES = {"learning_rate": (-0.1, "must be finite and nonnegative"), "batch_size": (0, "must be >= 1"),
             "epochs": (-3, "must be >= 1"), "validation_fraction": (0.0, "must be in (0, 1)"),
             "patience": (0, "must be >= 1")}

    def test_every_setting_has_a_rule_case(self):
        assert self.RULES.keys() == {f.name for f in dataclasses.fields(Hyperparameters)}

    @pytest.mark.parametrize("name", RULES)
    def test_each_rule_names_its_setting_and_value(self, name):
        value, rule = self.RULES[name]
        with pytest.raises(ValueError, match=rf"^{name} {re.escape(rule)}, got {re.escape(str(value))}$"):
            Hyperparameters(**{name: value})

    def test_trained_values_land_in_the_networks_own_arrays(self):
        """train works on the network's parameter buffer itself: the network
        keeps its buffer and views, which hold the trained values."""
        net, x, labels, hyper = _oracle_case("depth 3")
        held, params = net.weights + net.biases, net.params
        ref = copy.deepcopy(net)
        train(net, x, labels, hyper)
        _ref_train(ref, x, labels, hyper)
        assert net.params is params
        for got, array, expected in zip(net.weights + net.biases, held, ref.weights + ref.biases):
            assert got is array
            np.testing.assert_array_equal(got, expected)

    def test_batch_above_the_training_rows_trains_as_one_full_batch(self):
        """A batch_size beyond the training rows is one step over the whole
        split, bit for bit, and sizes no buffer by batch_size."""
        rng = np.random.default_rng(16)
        x = rng.standard_normal((100, 2))  # 80 training rows
        labels = rng.integers(0, 4, size=100)
        nets, histories = [], []
        for batch_size in (80, 10**12):
            net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=16))
            histories.append(train(net, x, labels, Hyperparameters(batch_size=batch_size, epochs=6)))
            nets.append(net)
        assert histories[0].val_loss == histories[1].val_loss
        np.testing.assert_array_equal(nets[1].params, nets[0].params)

    def test_hyperparameters_are_frozen(self):
        """Checked once at construction, so they cannot be changed after."""
        hyper = Hyperparameters()
        with pytest.raises(dataclasses.FrozenInstanceError):
            hyper.batch_size = 0

    def test_empty_training_set_rejected(self):
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=2))
        with pytest.raises(ValueError):
            train(net, np.zeros((0, 2)), np.zeros(0, int), Hyperparameters())


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
        train(net, x, labels, Hyperparameters(epochs=60))
        ml_idx = detect_ml(noisy, table)
        assert np.mean(predict(net, x) == ml_idx) >= 0.99

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=14))
        x = rng.standard_normal((64, 2))
        train(net, x, rng.integers(0, 4, 64), Hyperparameters(epochs=3, patience=10))
        path = tmp_path / "net.txt"
        save_network(net, path)
        loaded = load_network(path)
        np.testing.assert_array_equal(flatten_params(loaded), flatten_params(net))
        np.testing.assert_array_equal(predict(loaded, x), predict(net, x))
        assert loaded.spec == net.spec
        np.testing.assert_array_equal(loaded.rng.random(4), np.random.default_rng(14).random(4))

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        """A write that fails leaves the old bytes, no temporary file, and an
        error naming the target."""
        path = tmp_path / "net.txt"
        path.write_bytes(b"previous contents\n")

        def fail(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device", str(src))

        monkeypatch.setattr(os, "replace", fail)
        net = init_network(NetworkSpec(depth=1, width=2, input_dim=2, output_dim=4))
        with pytest.raises(OSError) as raised:
            save_network(net, path)
        assert raised.value.filename == str(path)
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["net.txt"]

    @pytest.mark.parametrize("keep", ["empty", "truncated", "extra line", "non-numeric-dim",
                                      "non-numeric-weight", "non-numeric-bias", "zero-dim",
                                      "non-numeric-seed", "fractional-seed", "negative-seed",
                                      "non-uniform-widths", "short-weight-line"])
    def test_malformed_file_rejected_naming_the_path(self, tmp_path, keep):
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=14))
        path = tmp_path / "net.txt"
        save_network(net, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * 3 + 1

        def with_first_token(i, token):
            return lines[:i] + [token + lines[i][lines[i].index(" "):]] + lines[i + 1:]

        body = {"empty": [], "truncated": lines[:-1], "extra line": lines + ["0.5"],
                "non-numeric-dim": with_first_token(0, "x"),
                "non-numeric-weight": with_first_token(1, "zz"),
                "non-numeric-bias": with_first_token(2, "zz"),
                "zero-dim": with_first_token(0, "0"),
                "non-numeric-seed": lines[:-1] + ["x"],
                "fractional-seed": lines[:-1] + ["1.5"],
                "negative-seed": lines[:-1] + ["-1"],
                "non-uniform-widths": ["2 8 7 4"] + lines[1:],
                "short-weight-line": lines[:1] + [lines[1].rsplit(" ", 1)[0]] + lines[2:]}[keep]
        path.write_text("".join(line + "\n" for line in body), encoding="utf-8")
        with pytest.raises(ValueError, match="net.txt"):
            load_network(path)

    @pytest.mark.parametrize("line,token", [(1, "nan"), (3, "inf"), (4, "-inf"), (6, "nan")])
    def test_non_finite_parameter_rejected_naming_the_path_and_layer(self, tmp_path, line, token):
        """A NaN weight would make predict return class 0 for every row."""
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=2, output_dim=4, seed=14))
        path = tmp_path / "net.txt"
        save_network(net, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        tokens = lines[line].split()
        tokens[-1] = token
        lines[line] = " ".join(tokens)
        path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
        with pytest.raises(ValueError, match=rf"net\.txt.*layer {(line - 1) // 2}\b.*non-finite"):
            load_network(path)


# Reference: the training step with one temporary per operation and checks
# on every mini-batch, apart from input and divergence checks that cannot
# fire on the cases below. Each layer's weights over its bias form one
# block, and each layer's input is feature-major over a row of ones, so a
# layer is one product. The in-place step must reproduce it bit for bit.

def _ref_sigmoid(z):
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def _ref_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _ref_block(network, layer):
    return np.vstack([network.weights[layer], network.biases[layer]])


def _ref_forward_cached(network, X):
    ones = np.ones(X.shape[0])
    a = np.vstack([np.ascontiguousarray(X.T), ones])
    activations = [a]
    for layer in range(len(network.weights) - 1):
        z = _ref_block(network, layer).T @ a
        a = np.vstack([_ref_sigmoid(z), ones])
        activations.append(a)
    probs = _ref_softmax(a.T @ _ref_block(network, -1))
    return activations, probs


def _ref_cross_entropy(probabilities, labels):
    p = np.asarray(probabilities, dtype=float)
    labels = _checked_labels(labels, p.shape[0], p.shape[1])
    p_true = np.clip(p[np.arange(labels.size), labels], PROB_CLAMP_LO, PROB_CLAMP_HI)
    return float(np.mean(-np.log(p_true)))


def _ref_gradient(network, X, labels):
    X = _as_feature_matrix(network, X)
    n = X.shape[0]
    labels = _checked_labels(labels, n, network.spec.output_dim)
    activations, probs = _ref_forward_cached(network, X)
    rows = np.arange(n)
    p_true = probs[rows, labels]
    active = (p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI)
    delta = probs
    delta[rows, labels] -= 1.0
    delta *= active[:, None]
    delta /= n

    n_layers = len(network.weights)
    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    for layer in range(n_layers - 1, -1, -1):
        grad = activations[layer] @ delta
        weight_grads[layer], bias_grads[layer] = grad[:-1], grad[-1]
        if layer:
            upstream = network.weights[layer] @ delta.T
            a = activations[layer][:-1]
            delta = (upstream * a * (1.0 - a)).T
    return weight_grads, bias_grads


def _ref_train(network, features, labels, hyper):
    X = np.asarray(features, dtype=float)
    labels = _checked_labels(labels, X.shape[0], network.spec.output_dim)
    rng = network.rng
    n = X.shape[0]
    n_val = int(n * hyper.validation_fraction)
    permutation = rng.permutation(n)
    val_idx, train_idx = permutation[:n_val], permutation[n_val:]
    if val_idx.size == 0:
        val_idx = train_idx
    history = TrainingHistory()
    best_val = math.inf
    stale_epochs = 0
    for epoch in range(hyper.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            weight_grads, bias_grads = _ref_gradient(network, X[batch], labels[batch])
            for layer in range(len(network.weights)):
                network.weights[layer] -= hyper.learning_rate * weight_grads[layer]
                network.biases[layer] -= hyper.learning_rate * bias_grads[layer]
        _, probs = _ref_forward_cached(network, _as_feature_matrix(network, X))
        val_loss = _ref_cross_entropy(probs[val_idx], labels[val_idx])
        history.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= hyper.patience:
                break
    return history


# The textbook step, unfolded and row-major: a @ W + b forward, delta.sum(0)
# for a bias gradient and delta @ W.T backward. The folded step sums in
# another order, so it agrees with this to rounding, not bit for bit.

def _textbook_forward(network, X):
    activations = [X]
    a = X
    for w, b in zip(network.weights[:-1], network.biases[:-1]):
        a = _ref_sigmoid(a @ w + b)
        activations.append(a)
    return activations, _ref_softmax(a @ network.weights[-1] + network.biases[-1])


def _textbook_gradient(network, X, labels):
    n = X.shape[0]
    activations, probs = _textbook_forward(network, X)
    rows = np.arange(n)
    p_true = probs[rows, labels]
    delta = probs
    delta[rows, labels] -= 1.0
    delta *= ((p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI))[:, None]
    delta /= n
    weight_grads, bias_grads = [], []
    for layer in range(len(network.weights) - 1, -1, -1):
        weight_grads.insert(0, activations[layer].T @ delta)
        bias_grads.insert(0, delta.sum(0))
        if layer:
            a = activations[layer]
            delta = delta @ network.weights[layer].T * a * (1.0 - a)
    return weight_grads, bias_grads


def _oracle_case(name):
    """(network, features, labels, hyperparameters) for one reference case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    depth, n, m, epochs, patience = {
        "depth 1": (1, 256, 4, 6, 100),
        "depth 3": (3, 256, 4, 6, 100),
        "partial last batch": (2, 203, 8, 5, 100),
        "saturated rows": (2, 300, 4, 4, 100),
        "stopped by patience": (1, 120, 2, 200, 3),
        "validation falls back to train": (2, 4, 4, 7, 100),
        "64 classes": (2, 640, 64, 3, 100),
        "odd class count": (2, 250, 5, 4, 100),
        "width 1": (2, 81, 4, 5, 100),
        "one-row last batch": (2, 81, 4, 5, 100),
        "batch larger than the training split": (2, 50, 4, 6, 100),
    }[name]
    width = 1 if name == "width 1" else 8
    net = init_network(NetworkSpec(depth=depth, width=width, input_dim=3, output_dim=m,
                                   seed=int(rng.integers(1 << 31))))
    x = rng.standard_normal((n, 3))
    labels = rng.integers(0, m, size=n)
    hyper = Hyperparameters(epochs=epochs, patience=patience)
    if name == "saturated rows":
        x[::3] *= 1e3  # saturates the hidden units of every third row
        net.weights[-1] *= 40.0  # so their softmax leaves the clamp window
    if name == "stopped by patience":
        hyper = Hyperparameters(epochs=epochs, patience=patience, learning_rate=0.5)
    if name == "batch larger than the training split":
        hyper = Hyperparameters(epochs=epochs, patience=patience, batch_size=100)
    return net, x, labels, hyper


# 64 classes run numpy's pairwise row sum (8 or more entries) in the softmax.
# The last three give BLAS its edge shapes, where it may take a matrix-vector
# path or a single product: one-column activations and a 1 x 1 weight, a
# one-row step (81 rows leave 65 training rows), and one short step per epoch
ORACLE_CASES = ["depth 1", "depth 3", "partial last batch", "saturated rows",
                "stopped by patience", "validation falls back to train",
                "64 classes", "odd class count",
                "width 1", "one-row last batch", "batch larger than the training split"]


class TestTrainingMatchesReference:
    """The in-place step gives the reference step's bits, not just close values."""

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_train_reproduces_reference_bit_for_bit(self, name):
        net, x, labels, hyper = _oracle_case(name)
        ref = copy.deepcopy(net)
        history = train(net, x, labels, hyper)
        ref_history = _ref_train(ref, x, labels, hyper)
        for got, expected in zip(net.weights + net.biases, ref.weights + ref.biases):
            np.testing.assert_array_equal(got, expected)
        assert history.val_loss == ref_history.val_loss
        if name == "stopped by patience":
            assert history.epochs_run < hyper.epochs
        if name == "validation falls back to train":
            assert int(x.shape[0] * hyper.validation_fraction) == 0
        n_train = x.shape[0] - int(x.shape[0] * hyper.validation_fraction)
        if name in ("width 1", "one-row last batch"):
            assert n_train % hyper.batch_size == 1
        if name == "batch larger than the training split":
            assert n_train < hyper.batch_size

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_gradient_reproduces_reference_bit_for_bit(self, name):
        net, x, labels, _ = _oracle_case(name)
        before = x.copy()
        got_w, got_b = gradient(net, x, labels)
        ref_w, ref_b = _ref_gradient(net, x, labels)
        for got, expected in zip(got_w + got_b, ref_w + ref_b):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(x, before)  # the features are only read

    @pytest.mark.parametrize("name", ORACLE_CASES)
    def test_forward_and_gradient_match_the_textbook_reference_to_rounding(self, name):
        """On every case's rows and on its last row alone, the one-row
        batch, with nonzero biases. A bias gradient sums terms that may
        cancel, so an entry's error is bounded by its array's scale, not its
        own magnitude."""
        net, x, labels, _ = _oracle_case(name)
        for b in net.biases:
            b[:] = np.random.default_rng(b.size).standard_normal(b.size)
        for rows in (slice(None), slice(-1, None)):
            _, probs = _textbook_forward(net, x[rows])
            np.testing.assert_allclose(forward(net, x[rows]), probs, rtol=1e-12, atol=0)
            got_w, got_b = gradient(net, x[rows], labels[rows])
            ref_w, ref_b = _textbook_gradient(net, x[rows], labels[rows])
            for got, expected in zip(got_w + got_b, ref_w + ref_b):
                np.testing.assert_allclose(got, expected, rtol=1e-12,
                                           atol=1e-12 * np.abs(expected).max())

    def test_gradient_of_no_rows_is_zero(self):
        net = init_network(NetworkSpec(depth=2, width=8, input_dim=3, output_dim=4, seed=15))
        weight_grads, bias_grads = gradient(net, np.zeros((0, 3)), [])
        for got, param in zip(weight_grads + bias_grads, net.weights + net.biases):
            np.testing.assert_array_equal(got, np.zeros_like(param))

    def test_saturated_case_masks_some_rows_but_not_all(self):
        net, x, labels, _ = _oracle_case("saturated rows")
        p_true = forward(net, x)[np.arange(labels.size), labels]
        active = (p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI)
        assert 0 < active.sum() < active.size

    def test_wrong_width_rejected_before_the_stream_is_drawn(self):
        net = init_network(NetworkSpec(depth=2, width=4, input_dim=3, output_dim=4, seed=5))
        state = copy.deepcopy(net.rng.bit_generator.state)
        params = flatten_params(net).copy()
        with pytest.raises(ValueError, match="does not match input_dim"):
            train(net, np.zeros((100, 2)), np.zeros(100, int), Hyperparameters(epochs=1))
        assert net.rng.bit_generator.state == state
        np.testing.assert_array_equal(flatten_params(net), params)
