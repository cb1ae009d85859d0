"""Run inputs: how a simulation run's parameters are read, converted and checked.

:class:`SimConfig` is the full parameter surface of one run. Building one
converts each field to its kind and checks every value against its range
and the others, so a SimConfig that exists is valid. :func:`load_config`
reads ``key = value`` text, from a file and from overrides such as CLI
flags, into one. :func:`link` derives what a config implies for every
block: the constellation table, the CRC, the large-scale gain and the
channel uses per block.
"""

from __future__ import annotations

import ast
import functools
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import large_scale_gain
from .constellation import ConstellationTable, build_constellation
from .estimation import PILOT_MODES
from .framing import CrcSpec, block_total_bits
from .neural import Hyperparameters

DETECTORS = ("ml", "kmeans", "dnn")
ESTIMATORS = ("ls", "lmmse")
EQUALIZERS = ("zf", "lmmse")
LABEL_SOURCES = ("truth", "ml")

# chosen to span the BLER waterfall of the default 16x16 64-QAM link
DEFAULT_NOISE_GRID = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)


class ConfigError(ValueError):
    """Invalid, inconsistent or unknown simulation parameter."""


@dataclass(frozen=True)
class SimConfig:
    """Full parameter surface of one simulation run."""

    seed: int = 7
    N_t: int = 16
    N_r: int = 16
    constellation: str = "QAM"
    M_constellation: int = 64
    codeword_size: int = 16
    crc_length: int = 2
    crc_generator: str = "111"
    n_pilot: int = 20
    pilot_mode: str = "unitary-random"
    noise_power: tuple | None = None
    f_c: float = 1.8e9
    d: float = 100.0
    eta: float = 2.0
    B: float = 20e6
    N0: float | None = None
    G_override: float | None = 1.0
    detector: str = "ml"
    estimator: str = "ls"
    equalizer: str = "zf"
    n_transmissions: int = 1000
    payload: str | None = None
    output: str = "output.csv"
    workers: int = 1
    dnn_depth: int = 2
    dnn_width: int = 16
    dnn_learning_rate: float = Hyperparameters.learning_rate
    dnn_batch_size: int = Hyperparameters.batch_size
    dnn_epochs: int = Hyperparameters.epochs
    dnn_validation_fraction: float = Hyperparameters.validation_fraction
    dnn_patience: int = Hyperparameters.patience
    dnn_train_samples: int = 10000
    dnn_labels: str = "truth"

    def __post_init__(self):
        """Hold each field as its kind, then raise :class:`ConfigError` naming
        the first parameter out of range or inconsistent with another.
        Without noise_power the run takes the single point N0 * B, or the
        default grid."""
        for name, kind in _FIELD_KINDS.items():
            object.__setattr__(self, name, _field_value(name, kind, getattr(self, name)))
        noise_source = ""
        if self.noise_power is None and self.N0 is not None:
            object.__setattr__(self, "noise_power", (self.N0 * self.B,))
            noise_source = (f"N0 = {self.N0} gives the noise power N0 * B = {self.noise_power[0]}, "
                            f"which is rejected: ")
        elif self.noise_power is None:
            object.__setattr__(self, "noise_power", DEFAULT_NOISE_GRID)

        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {_shown(self.seed)}")
        for name in ("N_t", "N_r", "codeword_size", "n_transmissions", "workers",
                     "dnn_depth", "dnn_width", "dnn_train_samples"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {_shown(getattr(self, name))}")
        for name, choices in (("pilot_mode", PILOT_MODES), ("detector", DETECTORS),
                              ("estimator", ESTIMATORS), ("equalizer", EQUALIZERS),
                              ("dnn_labels", LABEL_SOURCES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} = {getattr(self, name)!r}; expected one of {choices}")
        check_file_name("output", self.output)
        for name in ("N_t", "codeword_size"):  # the block size and sigma2 * N_t below take them as floats
            if getattr(self, name) > sys.float_info.max:
                raise ConfigError(f"{name} = {_shown(getattr(self, name))} is beyond float range")
        table, crc_spec, gain, _ = link(self)
        if crc_spec.crc_length != self.crc_length:
            raise ConfigError(f"crc_length = {_shown(self.crc_length)} does not match generator "
                              f"{self.crc_generator!r} (degree {crc_spec.crc_length})")
        if self.n_pilot < self.N_t:
            raise ConfigError(f"n_pilot = {_shown(self.n_pilot)} must be at least N_t = {_shown(self.N_t)}")
        if self.equalizer == "zf" and self.N_r < self.N_t:
            raise ConfigError(
                f"equalizer 'zf' needs N_r >= N_t, got N_r={_shown(self.N_r)}, N_t={_shown(self.N_t)}"
            )
        hyperparameters(self)
        if self.B <= 0:
            raise ConfigError(f"B must be positive, got {self.B}")
        if self.N0 is not None and self.N0 < 0:
            raise ConfigError(f"N0 must be nonnegative, got {self.N0}")
        # the L-MMSE filters form G * H^* H, which must not overflow
        if not 1e-300 <= gain <= 1e300:
            source = ("G_override" if self.G_override is not None
                      else f"f_c = {self.f_c}, d = {self.d}, eta = {self.eta}")
            raise ConfigError(f"{source} gives a large-scale gain of {gain}; "
                              f"it must lie within 1e-300..1e300 (+-3000 dB)")
        if not self.noise_power or any(v <= 0 for v in self.noise_power):
            raise ConfigError(f"{noise_source}noise_power must be a nonempty list of positive values, "
                              f"got {self.noise_power}")
        for sigma2 in self.noise_power:
            # the SNR columns take log10(sigma2 * N_t * k), and the receiver
            # squares sums of amplitudes of order sqrt(sigma2 / G)
            if not math.isfinite(sigma2 * self.N_t * table.k) or not 1e-300 <= gain / sigma2 <= 1e300:
                raise ConfigError(f"{noise_source}noise_power = {sigma2} is out of range for link gain {gain} "
                                  f"(G_override, or f_c, d, eta): G / noise_power must lie within +-3000 dB")


# annotation text of each field ("int", "float | None", "tuple | None", ...): it
# drives the reading of config text and the conversion of each field
_FIELD_KINDS = {f.name: f.type for f in fields(SimConfig)}
_KIND_TYPES = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a finite number"),
               "str": (str, "a string"), "tuple": (tuple, "a list of finite numbers")}


def _field_value(name: str, kind: str, value):
    """``value`` as a field of ``kind`` holds it: None where the kind allows
    it, an exact int, a finite Python float (a NumPy float32 f_c would make
    the gain float32 too), a str, or for noise_power the sorted floats of
    one number or a sequence (sweeps run, and are seeded, in ascending
    noise order). A bool is no number. Else raise ConfigError naming ``name``.
    """
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    expected, description = _KIND_TYPES[kind]
    try:
        if kind == "tuple":
            entries = (value,) if np.isscalar(value) else value
            return tuple(sorted(_field_value(name, "float", v) for v in entries))
        if isinstance(value, bool) or not isinstance(value, expected):
            raise TypeError
        if kind == "float":
            value = float(value)
            if not math.isfinite(value):
                raise ValueError
        return int(value) if kind == "int" else value  # int() is exact above 2**53
    except (TypeError, ValueError, OverflowError):  # ConfigError is a ValueError
        raise ConfigError(f"{name} = {_shown(value)} is not {description}") from None


def _shown(value) -> str:
    """``repr(value)`` for an error message; an integer past the digit limit
    of int-to-str conversion (4300 by default) shows as its size in bits."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, numbers.Integral):
            return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"
        return "[" + ", ".join(map(_shown, value)) + "]"


def hyperparameters(config: SimConfig) -> Hyperparameters:
    """The neural detector's training settings, each field from its
    ``dnn_`` key. Each field is built on its own, the others at their
    defaults, so a rejected value raises ConfigError naming its key."""
    values = {f.name: getattr(config, "dnn_" + f.name) for f in fields(Hyperparameters)}
    for name, value in values.items():
        try:
            Hyperparameters(**{name: value})
        except ValueError as exc:
            raise ConfigError(f"dnn_{name} = {_shown(value)}: {exc}") from exc
    return Hyperparameters(**values)


class Link(NamedTuple):
    """What a config implies for every block; see :func:`link`."""

    table: ConstellationTable
    crc_spec: CrcSpec
    gain: float  # large-scale gain: G_override, or else the log-distance model
    n_uses: int  # channel uses per transport block


@functools.lru_cache(maxsize=16)
def link(config: SimConfig) -> Link:
    """What ``config`` implies for every block, built once per config:
    every chunk of its sweep shares one table, which caches its label bits
    and word lookup. Raise ConfigError naming the key that yields no table,
    CRC or gain.
    """
    try:
        table = build_constellation(config.constellation, config.M_constellation)
    except ValueError as exc:
        raise ConfigError(f"constellation = {config.constellation!r}, "
                          f"M_constellation = {_shown(config.M_constellation)}: {exc}") from exc
    try:
        crc_spec = CrcSpec(config.crc_generator)
    except ValueError as exc:
        raise ConfigError(f"crc_generator invalid: {exc}") from exc
    try:
        # the model checks f_c, d and eta, also where G_override replaces its gain
        gain = large_scale_gain(config.f_c, config.d, config.eta)
    except OverflowError:
        gain = math.inf
    except ValueError as exc:
        raise ConfigError(f"link geometry invalid: {exc}") from exc
    if config.G_override is not None:
        gain = config.G_override
    n_uses = block_total_bits(config.codeword_size, crc_spec, table.k, config.N_t) // (table.k * config.N_t)
    return Link(table, crc_spec, gain, n_uses)


def check_file_name(name: str, path: str) -> None:
    """Raise :class:`ConfigError` naming ``name``, the key or flag that gave
    ``path``, when ``path`` names no file: '', '.', '..' and a path ending
    in a separator name a directory."""
    if os.path.basename(path) in ("", ".", ".."):
        raise ConfigError(f"{name} = {path!r} names no file")


def _read_value(name: str, value):
    """Key ``name``'s value as load_config reads it, from text or as given.

    Text is a Python literal, else the text itself: a str key keeps its text
    unless it is a quoted string, an optional key reads none (in any case)
    or an empty value as None, and any other quoted value or noise_power
    entry is read once more. An integer key takes an integral float (1e3,
    2.0). SimConfig converts and checks the result.
    """
    kind = _FIELD_KINDS[name]
    if isinstance(value, str):
        text = value
        try:
            value = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            pass  # bare words such as QAM or output.csv
        if kind.endswith(" | None") and str(value).lower() in ("none", ""):
            return None
        if kind.startswith("str"):
            return value if isinstance(value, str) else text
        if isinstance(value, str) and value != text:
            return _read_value(name, value)
        if kind.startswith("tuple") and isinstance(value, (list, tuple)):
            value = [_read_value(name, v) if isinstance(v, str) else v for v in value]
    if kind == "int" and isinstance(value, (float, np.floating)) and value.is_integer():
        return int(value)
    return value


def _uncommented(line: str) -> tuple[str, str | None]:
    """``line`` up to its first ``#`` outside quotes, and the quote still
    open at its end (None if every quote closes). A backslash inside quotes
    escapes the next character, as in a Python literal."""
    quote, escaped = None, False
    for i, char in enumerate(line):
        if quote is None:
            if char == "#":
                return line[:i], None
            if char in "'\"":
                quote = char
        elif escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == quote:
            quote = None
    return line, quote


def _read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    raw, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line, open_quote = _uncommented(line)
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        if open_quote is not None:
            raise ConfigError(f"{path}:{lineno}: the value of {key.strip()} opens a {open_quote} quote "
                              f"that does not close")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: {key} is already set on line {lines[key]}")
        lines[key] = lineno
        raw[key] = value.strip()
    return raw


def load_config(path=None, overrides: dict | None = None) -> SimConfig:
    """Build a validated configuration from a key = value file plus overrides.

    An empty (or absent) file yields the defaults. Unknown keys are
    rejected rather than silently ignored; overrides set to None are
    skipped, and a string override (a CLI flag's text) is read as the
    key's file text: ``{"seed": "1e3"}`` is ``seed = 1e3``. SimConfig
    derives the noise power N0 * B when ``N0`` is given without ``noise_power``.
    """
    raw = _read_config_file(path) if path is not None else {}
    raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    unknown = sorted(set(raw) - _FIELD_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown parameter(s): {', '.join(unknown)}")
    return SimConfig(**{key: _read_value(key, value) for key, value in raw.items()})
