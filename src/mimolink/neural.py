"""Fully connected softmax classifier for symbol detection, from scratch.

Sigmoid hidden layers, a softmax output over the M constellation classes,
categorical cross-entropy with clamped probabilities, and analytically
derived gradients driven by plain mini-batch gradient descent. Labels are
integer class indices in [0, M) throughout: the loss and the gradient
index each row's true-class probability directly. Everything
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


def init_network(spec: NetworkSpec) -> Network:
    """Glorot-uniform weights in +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(spec.seed)
    weights, biases = [], []
    dims = spec.layer_dims
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Network(spec, weights, biases, rng)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) as one ufunc that cannot overflow in either tail
    return 0.5 + 0.5 * np.tanh(0.5 * z)


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


def _checked_labels(labels, n_rows: int, n_classes: int) -> np.ndarray:
    """Labels as a flat int64 index array, one per row, each in [0, n_classes)."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != n_rows:
        raise ValueError(f"{n_rows} rows but {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return labels


def cross_entropy(probabilities: np.ndarray, labels) -> float:
    """Mean of -log p[row, label] with p clamped to [1e-12, 1 - 1e-12]."""
    p = np.asarray(probabilities, dtype=float)
    labels = _checked_labels(labels, p.shape[0], p.shape[1])
    p_true = np.clip(p[np.arange(labels.size), labels], PROB_CLAMP_LO, PROB_CLAMP_HI)
    return float(np.mean(-np.log(p_true)))


def gradient(network: Network, X, labels):
    """Exact gradient of the clamped cross-entropy for every weight and bias.

    Returns ``(weight_grads, bias_grads)`` aligned with the network's
    parameter lists. Rows whose true-class probability sits outside the
    clamp window carry no gradient, matching the clamped loss.
    """
    X = _as_feature_matrix(network, X)
    n = X.shape[0]
    labels = _checked_labels(labels, n, network.spec.output_dim)
    activations, probs = _forward_cached(network, X)
    rows = np.arange(n)
    p_true = probs[rows, labels]
    active = (p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI)
    delta = probs  # becomes (probs - y) * active / n in place, y one-hot
    delta[rows, labels] -= 1.0
    delta *= active[:, None]
    delta /= n

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


def train(network: Network, features, labels, hyper: Hyperparameters) -> TrainingHistory:
    """Mini-batch gradient descent with early stopping on validation loss.

    ``features`` holds one row per sample and ``labels`` its class index.
    The validation split and per-epoch shuffles use the network's stream,
    so (seed, data) fully determine the loss history. Training stops when
    the validation loss fails to improve for ``patience`` epochs; raises
    :class:`TrainingDivergedError` if the loss becomes non-finite.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty 2-D feature matrix")
    labels = _checked_labels(labels, X.shape[0], network.spec.output_dim)

    rng = network.rng
    n = X.shape[0]
    n_val = int(n * hyper.validation_fraction)
    permutation = rng.permutation(n)
    val_idx, train_idx = permutation[:n_val], permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training rows")
    if val_idx.size == 0:
        val_idx = train_idx  # too little data to hold out; validate on train

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
        probs = forward(network, X)
        train_loss = cross_entropy(probs[train_idx], labels[train_idx])
        val_loss = cross_entropy(probs[val_idx], labels[val_idx])
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
    weight line and one bias line at full (17 significant digit) precision,
    then the spec seed."""
    lines = [" ".join(str(d) for d in network.spec.layer_dims)]
    for w, b in zip(network.weights, network.biases):
        lines.append(" ".join(format(v, ".17g") for v in w.ravel()))
        lines.append(" ".join(format(v, ".17g") for v in b))
    lines.append(str(network.spec.seed))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_network(path) -> Network:
    """Inverse of :func:`save_network`; malformed content raises a
    ValueError naming ``path``."""
    try:
        return _parse_network(Path(path).read_text(encoding="utf-8").splitlines())
    except ValueError as exc:
        raise ValueError(f"network file {path}: {exc}") from exc


def _parse_network(lines: list[str]) -> Network:
    dims = [int(tok) for tok in lines[0].split()] if lines else []
    if len(dims) < 3:
        raise ValueError("first line must list input, hidden and output dims")
    if len(lines) != 2 * len(dims):
        raise ValueError(f"{len(lines)} lines, expected "
                         f"{2 * len(dims)} for {len(dims) - 1} layers and the seed")
    hidden = dims[1:-1]
    if any(h != hidden[0] for h in hidden):
        raise ValueError(f"non-uniform hidden widths {hidden}")
    spec = NetworkSpec(depth=len(hidden), width=hidden[0],
                       input_dim=dims[0], output_dim=dims[-1], seed=int(lines[-1]))
    weights, biases = [], []
    for layer, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = np.fromiter(map(float, lines[1 + 2 * layer].split()), dtype=float)
        b = np.fromiter(map(float, lines[2 + 2 * layer].split()), dtype=float)
        if w.size != fan_in * fan_out or b.size != fan_out:
            raise ValueError(f"malformed layer {layer}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {layer} has a non-finite weight or bias")
        weights.append(w.reshape(fan_in, fan_out))
        biases.append(b)
    return Network(spec, weights, biases, np.random.default_rng(spec.seed))
