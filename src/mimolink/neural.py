"""Fully connected softmax classifier for symbol detection, from scratch.

Sigmoid hidden layers, a softmax output over the M constellation classes,
categorical cross-entropy with clamped probabilities, and analytically
derived gradients driven by plain mini-batch gradient descent. Labels are
integer class indices in [0, M) throughout: the loss and the gradient
index each row's true-class probability directly. Everything
is deterministic given the seed: initialization, the validation split, and
the per-epoch shuffles all come from the network's own stream.

Training checks its inputs once. Each mini-batch step then runs in place,
through the forward and backpropagation code that :func:`gradient` and
:func:`forward` use, with the floating-point operations of a form with
one temporary per operation, so the weights come out bit for bit the
same. A network owns its parameters as one buffer, ``Network.params``,
that all three work on, nothing copied in or back. It is laid out W_0,
b_0, W_1, b_1, ..., so each layer's weights over its bias form one
(fan_in + 1, fan_out) block, the bias being the weight of a constant
input of one; each layer's input is a feature-major (fan_in + 1, n)
buffer whose last row is ones. A layer is then one ``np.dot`` forward and
one for its gradient, each writing a contiguous block, and the update is
two calls: a 64-row depth-2 step is 46 numpy calls on small arrays, whose
per-call overhead sets its cost.
Ufuncs take their output positionally and their scalars as 0-d arrays;
row indices and buffers are built once per run. The output delta subtracts
identity rows (the bits of subtracting 1 at each label) and builds the
clamp mask only when some true-class probability leaves the window; the
softmax shifts each row by its argmax entry, the row maximum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import atomic
from .constellation import _checked_integers

PROB_CLAMP_LO = 1e-12
PROB_CLAMP_HI = 1.0 - 1e-12
# 0-d operands, which a ufunc takes without converting a Python float on each call
_HALF, _ONE = np.array(0.5), np.array(1.0)


class TrainingDivergedError(RuntimeError):
    """Raised when the validation loss becomes non-finite."""


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
class Hyperparameters:
    """Training settings, each with its default and one rule that reads it alone."""

    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 200
    validation_fraction: float = 0.2
    patience: int = 10

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and nonnegative, got {self.learning_rate}")
        for name in ("batch_size", "epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.validation_fraction < 1:
            raise ValueError(f"validation_fraction must be in (0, 1), got {self.validation_fraction}")


@dataclass
class TrainingHistory:
    """One validation loss per epoch run; divergence is read from it too."""

    val_loss: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.val_loss)


class _LayerViews(list):
    """One view of a network's ``params`` per layer, its weights or its
    biases. Assigning an entry copies the array into the buffer (of the
    entry's shape, or a ValueError names the layer), so ``forward``,
    ``train`` and ``save_network`` all see it; ``weights[-1] *= c`` scales
    through the view and copies it onto itself."""

    def __init__(self, views, kind: str):
        super().__init__(views)
        self.kind = kind

    def __setitem__(self, index, value):
        if isinstance(index, slice):
            layers, values = range(len(self))[index], list(value)
            if len(values) != len(layers):
                raise ValueError(f"{len(values)} {self.kind} for {len(layers)} layers")
            for layer, array in zip(layers, values):
                self[layer] = array
            return
        view = self[index]
        if np.shape(value) != view.shape:
            raise ValueError(f"layer {range(len(self))[index]}: {self.kind} {np.shape(value)}, "
                             f"expected {view.shape}")
        np.copyto(view, value)


class Network:
    """The parameter buffer ``params``, viewed by ``weights`` and ``biases``, and a stream."""

    def __init__(self, spec: NetworkSpec, weights: list[np.ndarray],
                 biases: list[np.ndarray], rng: np.random.Generator):
        dims = spec.layer_dims
        self.spec, self.rng = spec, rng
        self.params = np.empty(sum((i + 1) * o for i, o in zip(dims, dims[1:])))
        self._layers = _layers(self.params, dims)
        if not len(weights) == len(biases) == len(dims) - 1:
            raise ValueError(f"{len(weights)} weights and {len(biases)} biases "
                             f"for {len(dims) - 1} layers")
        w_views, b_views = _split(self._layers)
        self.weights, self.biases = _LayerViews(w_views, "weights"), _LayerViews(b_views, "biases")
        self.weights[:], self.biases[:] = weights, biases

    def __reduce__(self):  # a copy or pickle builds a buffer of its own, and views of it
        return Network, (self.spec, *_split(self._layers), self.rng)


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
    """1 / (1 + e^-z) in place, returning ``z``, as 0.5 + 0.5 tanh(z / 2),
    which cannot overflow in either tail."""
    z *= _HALF
    np.tanh(z, z)
    z *= _HALF
    z += _HALF
    return z


def _softmax(z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise softmax in place, returning ``z``; ``rows`` is
    ``np.arange(len(z))``, built by the caller."""
    z -= z[rows, z.argmax(1)][:, None]
    np.exp(z, z)
    z /= np.add.reduce(z, 1, None, None, True)
    return z


def _as_feature_matrix(network: Network, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != network.spec.input_dim:
        raise ValueError(
            f"feature width {X.shape[1]} does not match input_dim {network.spec.input_dim}"
        )
    return X


def _layers(buffer: np.ndarray, dims: list[int]):
    """Per layer, views of a buffer laid out W_0, b_0, W_1, b_1, ...: the
    block of weights over bias, its transpose, and the weights alone."""
    layers, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        block = buffer[offset:offset + (fan_in + 1) * fan_out].reshape(fan_in + 1, fan_out)
        layers.append((block, block.T, block[:-1]))
        offset += block.size
    return layers


def _split(layers):
    """The weight views and the bias views of :func:`_layers`' blocks."""
    return [w for _, _, w in layers], [block[-1] for block, _, _ in layers]


def _buffers(dims: list[int], n: int):
    """Per layer, a feature-major (fan_in + 1, n) input buffer whose last
    row is ones, paired with its view above the ones."""
    return [(buffer, buffer[:-1]) for buffer in (np.ones((fan_in + 1, n)) for fan_in in dims[:-1])]


def _forward_cached(layers, buffers, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Softmax output, one row per sample, of the rows of ``X`` (only read),
    copied above the first buffer's ones; each hidden layer fills the next
    buffer's, so the buffers keep every layer's input. ``rows`` is
    ``np.arange(n)``."""
    np.copyto(buffers[0][1], X.T)
    for (_, block_t, _), (a, _), (_, z) in zip(layers, buffers, buffers[1:]):
        _sigmoid(np.dot(block_t, a, z))
    return _softmax(np.dot(buffers[-1][0].T, layers[-1][0]), rows)


def forward(network: Network, X) -> np.ndarray:
    """Per-row class probabilities (softmax output)."""
    X = _as_feature_matrix(network, X)
    n = X.shape[0]
    return _forward_cached(network._layers, _buffers(network.spec.layer_dims, n), X, np.arange(n))


def _checked_labels(labels, n_rows: int, n_classes: int) -> np.ndarray:
    """Labels as a flat int64 index array, one per row, each in [0, n_classes)."""
    labels = _checked_integers(labels, "labels")
    if labels.size != n_rows:
        raise ValueError(f"{n_rows} rows but {labels.size} labels")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return labels.astype(np.int64, copy=False)


def _mean_loss(p_true: np.ndarray) -> float:
    """Mean of -log p over true-class probabilities clamped to the window."""
    return float(np.mean(-np.log(np.clip(p_true, PROB_CLAMP_LO, PROB_CLAMP_HI))))


def cross_entropy(probabilities: np.ndarray, labels) -> float:
    """Mean of -log p[row, label] with p clamped to [1e-12, 1 - 1e-12]."""
    p = np.asarray(probabilities, dtype=float)
    labels = _checked_labels(labels, p.shape[0], p.shape[1])
    return _mean_loss(p[np.arange(labels.size), labels])


def _backprop(layers, buffers, X: np.ndarray, labels: np.ndarray, rows: np.ndarray,
              eye: np.ndarray, grads) -> None:
    """Forward pass and backpropagation on rows already checked.

    Writes each layer's gradient into its block in ``grads``, the
    :func:`_layers` of a gradient buffer. Works in place on the forward
    buffers (the softmax output becomes the output delta, a spent
    activation holds 1 - a). ``rows`` is ``np.arange(n)``, and ``eye`` is
    the M x M identity, whose rows are the one-hot labels.
    """
    n = rows.size
    delta = _forward_cached(layers, buffers, X, rows)
    p_true = delta[rows, labels]
    delta -= eye.take(labels, 0)  # becomes (probs - y) * active / n in place, y one-hot
    # the mask only when some row is outside the window or NaN (min and max
    # carry a NaN through, and it fails both tests); times 1.0 would leave
    # every bit as it is. An empty batch has no minimum
    if n and not (p_true.min() > PROB_CLAMP_LO and p_true.max() < PROB_CLAMP_HI):
        delta *= ((p_true > PROB_CLAMP_LO) & (p_true < PROB_CLAMP_HI))[:, None]
    delta /= n

    for layer in range(len(layers) - 1, 0, -1):
        buffer, a = buffers[layer]
        np.dot(buffer, delta, grads[layer][0])
        # delta * a * (1 - a), the sigmoid's derivative, left to right
        delta = np.dot(layers[layer][2], delta.T)
        delta *= a
        np.subtract(_ONE, a, a)
        delta *= a
        delta = delta.T
    np.dot(buffers[0][0], delta, grads[0][0])


def gradient(network: Network, X, labels):
    """Exact gradient of the clamped cross-entropy for every weight and bias.

    Returns ``(weight_grads, bias_grads)`` aligned with the network's
    parameter lists, each a view of one fresh buffer. Rows whose
    true-class probability sits outside the clamp window carry no
    gradient, matching the clamped loss.
    """
    X = _as_feature_matrix(network, X)
    dims, n = network.spec.layer_dims, X.shape[0]
    labels = _checked_labels(labels, n, dims[-1])
    grads = _layers(np.empty_like(network.params), dims)
    _backprop(network._layers, _buffers(dims, n), X, labels, np.arange(n), np.eye(dims[-1]), grads)
    return _split(grads)


def train(network: Network, features, labels, hyper: Hyperparameters) -> TrainingHistory:
    """Mini-batch gradient descent with early stopping on validation loss.

    ``features`` holds one row per sample and ``labels`` its class index.
    Both are checked once, before the network's stream is drawn from; a
    bad width or label raises ``ValueError`` and leaves the network as it
    was. Each epoch gathers its shuffled rows once and steps through
    contiguous mini-batches, every step worked in place on
    ``network.params`` (``w -= lr * g`` as ``g *= lr; w -= g`` over all
    layers at once), with the same arithmetic in the same order as
    :func:`gradient` followed by that update. Nothing is copied in or
    back: ``network.weights`` and ``network.biases`` view that buffer, so
    they hold the trained values, or those reached when training raises.
    The validation split and per-epoch shuffles use the network's stream,
    so (seed, data) fully determine the loss history: one validation loss
    per epoch, from forwarding only the validation rows after its steps.
    Training stops when it fails to improve for ``patience`` epochs;
    raises :class:`TrainingDivergedError` if it becomes non-finite.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("training set must be a nonempty 2-D feature matrix")
    X = _as_feature_matrix(network, X)
    dims = network.spec.layer_dims
    labels = _checked_labels(labels, X.shape[0], dims[-1])

    rng = network.rng
    n = X.shape[0]
    n_val = int(n * hyper.validation_fraction)
    permutation = rng.permutation(n)
    val_idx, train_idx = permutation[:n_val], permutation[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation fraction leaves no training rows")
    if val_idx.size == 0:
        val_idx = train_idx  # too little data to hold out; validate on train

    params, layers = network.params, network._layers
    grads = np.empty_like(params)
    grad_layers, eye = _layers(grads, dims), np.eye(dims[-1])
    X_val, labels_val = X[val_idx], labels[val_idx]
    val_buffers, val_rows = _buffers(dims, val_idx.size), np.arange(val_idx.size)
    n_train = train_idx.size
    lr, batch_size = np.array(hyper.learning_rate), min(hyper.batch_size, n_train)
    # buffers and row indices for a full batch and a short last one
    full, short = ((_buffers(dims, size), np.arange(size))
                   for size in (batch_size, n_train % batch_size))
    history = TrainingHistory()
    best_val = math.inf
    stale_epochs = 0
    for epoch in range(hyper.epochs):
        order = train_idx[rng.permutation(n_train)]
        X_epoch, labels_epoch = X.take(order, axis=0), labels.take(order)
        for start in range(0, n_train, batch_size):
            stop = start + batch_size
            buffers, rows = full if stop <= n_train else short
            _backprop(layers, buffers, X_epoch[start:stop], labels_epoch[start:stop], rows, eye,
                      grad_layers)
            grads *= lr
            params -= grads
        probs = _forward_cached(layers, val_buffers, X_val, val_rows)
        val_loss = _mean_loss(probs[val_rows, labels_val])
        if not math.isfinite(val_loss):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}")
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
    then the spec seed. The file is written under a temporary name next to
    ``path`` and renamed over it, so ``path`` keeps its old bytes if the
    write fails; an OSError names ``path``."""
    lines = [" ".join(str(d) for d in network.spec.layer_dims)]
    for w, b in zip(network.weights, network.biases):
        lines.append(" ".join(format(v, ".17g") for v in w.ravel()))
        lines.append(" ".join(format(v, ".17g") for v in b))
    lines.append(str(network.spec.seed))
    atomic.write_text(path, "\n".join(lines) + "\n")


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
