"""Fully connected softmax classifier for symbol detection, from scratch.

Sigmoid hidden layers, a softmax output over the M constellation classes,
categorical cross-entropy with clamped probabilities, and analytically
derived gradients driven by plain mini-batch gradient descent. Everything
is deterministic given the seed: initialization, the validation split, and
the per-epoch shuffles all come from the network's own stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PROB_CLAMP_LO = 1e-12
PROB_CLAMP_HI = 1.0 - 1e-12


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: D hidden layers of width W between input and output."""

    depth: int
    width: int
    input_dim: int
    output_dim: int
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1 or self.width < 1:
            raise ValueError(f"depth and width must be >= 1, got D={self.depth}, W={self.width}")
        if self.input_dim < 1 or self.output_dim < 2:
            raise ValueError(
                f"need input_dim >= 1 and output_dim >= 2, got {self.input_dim}, {self.output_dim}"
            )

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [self.width] * self.depth + [self.output_dim]


@dataclass(frozen=True)
class TrainingSet:
    """Feature rows with integer class labels."""

    features: np.ndarray
    labels: np.ndarray


@dataclass
class Hyperparameters:
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 200
    validation_fraction: float = 0.2
    patience: int = 10

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be nonnegative, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ValueError("batch_size, epochs and patience must all be >= 1")
        if not 0 < self.validation_fraction < 1:
            raise ValueError(
                f"validation fraction must be in (0, 1), got {self.validation_fraction}"
            )


@dataclass
class TrainingHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class Network:
    """Weight and bias stacks plus the stream used for init and shuffling."""

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray],
                 biases: list[np.ndarray], rng: np.random.Generator):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self.rng = rng


def init_network(spec: NetworkSpec, rng: np.random.Generator | None = None) -> Network:
    """Glorot-uniform weights in +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    dims = spec.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(spec, weights, biases, rng)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # numerically stable in both tails
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _as_feature_matrix(network: Network, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != network.spec.input_dim:
        raise ValueError(
            f"feature width {X.shape[1]} does not match input_dim {network.spec.input_dim}"
        )
    return X


def _forward_cached(network: Network, X: np.ndarray):
    """Per-layer inputs plus the softmax output, for backpropagation."""
    activations = [X]
    a = X
    for w, b in zip(network.weights[:-1], network.biases[:-1]):
        a = _sigmoid(a @ w + b)
        activations.append(a)
    probs = _softmax(a @ network.weights[-1] + network.biases[-1])
    return activations, probs


def forward(network: Network, X) -> np.ndarray:
    """Per-row class probabilities (softmax output)."""
    _, probs = _forward_cached(network, _as_feature_matrix(network, X))
    return probs


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return np.eye(n_classes)[labels]


def cross_entropy(probabilities: np.ndarray, onehot_labels: np.ndarray) -> float:
    """Mean categorical cross-entropy with p clamped to [1e-12, 1 - 1e-12]."""
    p = np.asarray(probabilities, dtype=float)
    y = np.asarray(onehot_labels, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch: probabilities {p.shape} vs labels {y.shape}")
    clamped = np.clip(p, PROB_CLAMP_LO, PROB_CLAMP_HI)
    return float(np.mean(-(y * np.log(clamped)).sum(axis=1)))


def gradient(network: Network, X, labels):
    """Exact gradient of the clamped cross-entropy for every weight and bias.

    Returns ``(weight_grads, bias_grads)`` aligned with the network's
    parameter lists. Rows whose true-class probability sits outside the
    clamp window carry no gradient, matching the clamped loss.
    """
    X = _as_feature_matrix(network, X)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {labels.size} labels")
    activations, probs = _forward_cached(network, X)
    n = X.shape[0]
    y = one_hot(labels, network.spec.output_dim)
    p_true = probs[np.arange(n), labels]
    active = (p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI)
    delta = (probs - y) * active[:, None] / n

    n_layers = len(network.weights)
    weight_grads = [None] * n_layers
    bias_grads = [None] * n_layers
    for layer in range(n_layers - 1, -1, -1):
        weight_grads[layer] = activations[layer].T @ delta
        bias_grads[layer] = delta.sum(axis=0)
        if layer:
            upstream = delta @ network.weights[layer].T
            a = activations[layer]
            delta = upstream * a * (1.0 - a)
    return weight_grads, bias_grads


def train(network: Network, training_set: TrainingSet, hyper: Hyperparameters) -> TrainingHistory:
    """Mini-batch gradient descent with early stopping on validation loss.

    The validation split and per-epoch shuffles use the network's stream,
    so (seed, data) fully determine the loss history. Training stops when
    the validation loss fails to improve for ``patience`` epochs; raises
    :class:`TrainingDivergedError` if the loss becomes non-finite.
    """
    X = np.asarray(training_set.features, dtype=float)
    labels = np.asarray(training_set.labels, dtype=np.int64).ravel()
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty 2-D feature matrix")
    if labels.size != X.shape[0]:
        raise ValueError(f"{X.shape[0]} feature rows but {labels.size} labels")
    n_classes = network.spec.output_dim
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")

    rng = network.rng
    n = X.shape[0]
    n_val = int(n * hyper.validation_fraction)
    permutation = rng.permutation(n)
    val_idx, train_idx = permutation[:n_val], permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training rows")
    if val_idx.size == 0:
        val_idx = train_idx  # too little data to hold out; validate on train

    y_train_onehot = one_hot(labels[train_idx], n_classes)
    y_val_onehot = one_hot(labels[val_idx], n_classes)

    history = TrainingHistory()
    best_val = math.inf
    stale_epochs = 0
    for epoch in range(hyper.epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        for start in range(0, order.size, hyper.batch_size):
            batch = order[start:start + hyper.batch_size]
            weight_grads, bias_grads = gradient(network, X[batch], labels[batch])
            for layer in range(len(network.weights)):
                network.weights[layer] -= hyper.learning_rate * weight_grads[layer]
                network.biases[layer] -= hyper.learning_rate * bias_grads[layer]
        train_loss = cross_entropy(forward(network, X[train_idx]), y_train_onehot)
        val_loss = cross_entropy(forward(network, X[val_idx]), y_val_onehot)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
        history.train_loss.append(train_loss)
        history.val_loss.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= hyper.patience:
                break
    return history


def predict(network: Network, X) -> np.ndarray:
    """Class index per row: argmax of the forward probabilities, ties low."""
    return np.argmax(forward(network, X), axis=1)


def save_network(network: Network, path) -> None:
    """Write the network as text: layer dims, then per layer one row-major
    weight line and one bias line at full (17 significant digit) precision."""
    lines = [" ".join(str(d) for d in network.spec.layer_dims)]
    for w, b in zip(network.weights, network.biases):
        lines.append(" ".join(format(v, ".17g") for v in w.ravel()))
        lines.append(" ".join(format(v, ".17g") for v in b))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_network(path) -> Network:
    """Inverse of :func:`save_network`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    dims = [int(tok) for tok in lines[0].split()] if lines else []
    if len(dims) < 3:
        raise ValueError(f"network file {path} must list input, hidden and output dims")
    if len(lines) != 2 * len(dims) - 1:
        raise ValueError(f"network file {path} has {len(lines)} lines, expected "
                         f"{2 * len(dims) - 1} for {len(dims) - 1} layers")
    hidden = dims[1:-1]
    if any(h != hidden[0] for h in hidden):
        raise ValueError(f"network file {path} has non-uniform hidden widths {hidden}")
    spec = NetworkSpec(depth=len(hidden), width=hidden[0],
                       input_dim=dims[0], output_dim=dims[-1])
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.fromiter(map(float, lines[1 + 2 * layer].split()), dtype=float)
        b = np.fromiter(map(float, lines[2 + 2 * layer].split()), dtype=float)
        if w.size != fan_in * fan_out or b.size != fan_out:
            raise ValueError(f"network file {path} has a malformed layer {layer}")
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(b)
    return Network(spec, weights, biases, np.random.default_rng(spec.seed))
