"""Span tracing of mimolink's layers, applied from outside the package.

The tracer replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent, trial id). It
patches each name wherever a mimolink module binds it, because
``simulate`` imports names with ``from .x import y`` and ``framing`` calls
its own ``crc_compute``. Spans are kept in memory and turned into
per-layer metrics when the run ends; nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import threading
import time

import numpy as np

PACKAGE = "mimolink"
LAYERS = ("simulate", "channel", "estimation", "framing", "constellation",
          "receiver", "neural", "metrics")

# span record fields; a record is a list so the wrapper can fill it in place
NAME, START, END, PARENT, TRIAL, ERROR, COUNT = range(7)


def _first_arg_size(args, kwargs, result) -> int:
    return int(np.size(args[0] if args else next(iter(kwargs.values()))))


def _epochs(args, kwargs, result) -> tuple[int, int]:
    """(epochs run, best-validation epoch + 1) from a TrainingHistory."""
    best = int(np.argmin(result.val_loss)) + 1 if result.val_loss else 0
    return result.epochs_run, best


# work counted at the boundary where it happens: function -> f(args, kwargs, result)
_COUNTS = {
    "framing.crc_compute": _first_arg_size,
    "constellation.map_bits_to_symbols": lambda args, kwargs, result: int(np.size(result)),
    "constellation.symbols_to_bits": _first_arg_size,
    "receiver.detect_ml": _first_arg_size,
    "receiver.detect_kmeans": _first_arg_size,
    "neural.train": _epochs,
}

# spans that open a trial, or the training pass of a noise point
_TRIAL_ARGS = {
    "simulate.run_trial": lambda bound: (bound["noise_index"], bound["trial_index"]),
    "simulate.train_detector_network": lambda bound: (bound["noise_index"], "train"),
}


class Tracer:
    """Wraps the public functions of the layer modules while active.

    Use as a context manager; the original functions are restored on exit.
    ``spans`` holds one record per finished call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self.unwrapped: list[str] = []
        self._local = threading.local()
        self._root = None  # outermost open span; parent of spans in pool threads
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- wrapping
    def __enter__(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        originals = {}
        for layer, module in modules.items():
            for name, obj in sorted(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[obj] = self._wrap(f"{layer}.{name}", obj)
                    self.wrapped.append(f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self.unwrapped.extend(
                        f"{layer}.{name}.{attr}" for attr, member in vars(obj).items()
                        if not attr.startswith("_") and (
                            inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod))))
                elif callable(obj) and not inspect.isfunction(obj) and not inspect.isclass(obj) \
                        and getattr(obj, "__module__", None) == module.__name__:
                    self.unwrapped.append(f"{layer}.{name}")
        # patch every binding of an original, in every loaded mimolink module
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for name, obj in list(vars(module).items()):
                try:
                    wrapper = originals.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def _wrap(self, key: str, fn):
        spans, local, clock = self.spans, self._local, time.perf_counter
        count = _COUNTS.get(key)
        trial_of = _TRIAL_ARGS.get(key)
        signature = inspect.signature(fn) if trial_of else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            trial = parent[TRIAL] if parent is not None else None
            if trial_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                trial = trial_of(bound.arguments)
            record = [key, 0.0, 0.0, parent, trial, None, None]
            stack.append(record)
            if parent is None:
                self._root = record
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
                if self._root is record:
                    self._root = None
                spans.append(record)
            if count is not None:
                record[COUNT] = count(args, kwargs, result)
            return result

        return wrapper


# ------------------------------------------------------------------ analysis
def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children running in parallel threads may overlap; their union counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(id(record[PARENT]), []).append((record[START], record[END]))
    return [
        (record[END] - record[START])
        - _union_length(children.get(id(record), ()), record[START], record[END])
        for record in spans
    ]


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile of an ascending list; 0 for an empty one."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from a list of finished spans.

    "Per trial" divides by the number of ``run_trial`` spans, so sweep
    set-up and DNN training are spread over the trials they serve.
    ``<layer>.us_per_trial`` is the layer's self time; the stage metrics
    (``estimation.pilot_build_us_per_trial`` ...) are inclusive durations
    of the named functions. Counts are per trial too, so they repeat
    exactly for a given config however many sweeps the window held.
    """
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    inclusive: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls = dict.fromkeys(LAYERS, 0)
    trial_durations, training, data_pass = [], [], []
    equalize_failed = 0
    substream_self = 0.0
    for record, own in zip(spans, selfs):
        key = record[NAME]
        layer = key.split(".", 1)[0]
        duration = record[END] - record[START]
        layer_self[layer] += own
        inclusive[key] = inclusive.get(key, 0.0) + duration
        calls[layer] += 1
        if key == "simulate.substream":
            substream_self += own
        elif key == "simulate.run_trial":
            trial_durations.append(duration)
        elif key == "simulate.train_detector_network":
            nested = sum(r[END] - r[START] for r in spans
                         if r[PARENT] is record and r[NAME] == "neural.train")
            data_pass.append(duration - nested)
        elif key == "neural.train" and record[COUNT] is not None:
            training.append(record[COUNT])
        elif record[COUNT] is not None:
            counts[key] = counts.get(key, 0) + record[COUNT]
        if record[ERROR] == "LinAlgError" and key.startswith("receiver.equalize_"):
            equalize_failed += 1

    per_trial = 1.0 / max(len(trial_durations), 1)

    def us(*keys):
        return sum(inclusive.get(k, 0.0) for k in keys) * 1e6 * per_trial

    def count(*keys):
        return sum(counts.get(k, 0) for k in keys) * per_trial

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    trial_durations.sort()
    glue = layer_self["simulate"] - substream_self
    total_self = sum(selfs)
    epochs = sum(e for e, _ in training)
    return {
        "simulate.trials": float(len(trial_durations)),
        "simulate.self_us_per_trial": glue * 1e6 * per_trial,
        "simulate.substream_us_per_trial": us("simulate.substream"),
        "simulate.trial_us_p50": _quantile(trial_durations, 0.50) * 1e6,
        "simulate.trial_us_p99": _quantile(trial_durations, 0.99) * 1e6,
        "simulate.train_data_s": mean(data_pass),
        "channel.us_per_trial": layer_self["channel"] * 1e6 * per_trial,
        "channel.calls": calls["channel"] * per_trial,
        "estimation.us_per_trial": layer_self["estimation"] * 1e6 * per_trial,
        "estimation.pilot_build_us_per_trial": us("estimation.build_pilot_matrix"),
        "estimation.estimate_us_per_trial": us(
            "estimation.transmit_pilots", "estimation.estimate_ls", "estimation.estimate_lmmse"),
        "framing.us_per_trial": layer_self["framing"] * 1e6 * per_trial,
        "framing.crc_us_per_trial": us("framing.crc_compute"),
        "framing.crc_bits": count("framing.crc_compute"),
        "constellation.us_per_trial": layer_self["constellation"] * 1e6 * per_trial,
        "constellation.symbols": count("constellation.map_bits_to_symbols",
                                       "constellation.symbols_to_bits"),
        "receiver.us_per_trial": layer_self["receiver"] * 1e6 * per_trial,
        "receiver.equalize_us_per_trial": us("receiver.equalize_zf", "receiver.equalize_lmmse"),
        "receiver.detect_us_per_trial": us("receiver.detect_ml", "receiver.detect_kmeans"),
        "receiver.detect_symbols": count("receiver.detect_ml", "receiver.detect_kmeans"),
        "receiver.equalize_failed": equalize_failed * per_trial,
        "metrics.us_per_trial": layer_self["metrics"] * 1e6 * per_trial,
        "neural.us_per_trial": layer_self["neural"] * 1e6 * per_trial,
        "neural.train_s": mean([r[END] - r[START] for r in spans if r[NAME] == "neural.train"]),
        "neural.epochs": mean([e for e, _ in training]),
        "neural.predict_us_per_trial": us("neural.predict"),
        "neural.useful_epoch_ratio": sum(b for _, b in training) / epochs if epochs else 0.0,
        "trace.coverage": (total_self - glue) / total_self if total_self else 0.0,
        "trace.spans": float(len(spans)),
    }


def write_spans(spans, path) -> None:
    """Write spans as tab-separated text: id, parent id, name, start and
    end in microseconds from the first span, trial id, error, count."""
    ids = {id(record): index for index, record in enumerate(spans)}
    origin = min((r[START] for r in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("id\tparent\tname\tstart_us\tend_us\ttrial\terror\tcount\n")
        for index, r in enumerate(spans):
            parent = ids.get(id(r[PARENT]), "") if r[PARENT] is not None else ""
            trial = "" if r[TRIAL] is None else ":".join(map(str, r[TRIAL]))
            handle.write(f"{index}\t{parent}\t{r[NAME]}\t{(r[START] - origin) * 1e6:.1f}\t"
                         f"{(r[END] - origin) * 1e6:.1f}\t{trial}\t{r[ERROR] or ''}\t"
                         f"{'' if r[COUNT] is None else r[COUNT]}\n")
