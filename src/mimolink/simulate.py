"""Deterministic Monte Carlo sweep over noise powers for one MIMO link.

One trial transmits one transport block end to end: payload bits, framing,
Gray mapping, the 1/sqrt(N_t) power scaling, pilot transmission, channel
estimation, equalization, detection, bit recovery and the CRC check. A
fresh channel is drawn per block and fresh noise per channel use.

Every trial derives its own random stream from (seed, noise index, trial
index) through SeedSequence spawn keys, so results are independent of
execution order; rerunning a sweep with the same seed yields a
byte-identical CSV. Trials cross the link in chunks. The trial loop only
draws: each trial opens its stream and draws its payload bits and its
normals into its rows of the chunk's buffers. Framing, the complex
stacks, the link algebra, detection, demapping, the estimation MSE, the
CRC check and the symbol and bit error rates then run once per chunk,
row for row as on one block, so no outcome depends on the chunk size.
"""

from __future__ import annotations

import ast
import functools
import logging
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import atomic, metrics, pool
from .channel import apply_channel, large_scale_gain, sample_channel, sample_noise
from .constellation import ConstellationTable, build_constellation, map_bits_to_symbols, symbols_to_bits
from .estimation import PILOT_MODES, _scaled_correlation, draw_pilot_basis, pilots_from_basis
from .framing import CrcSpec, block_total_bits, build_transport_blocks, extract_and_check, load_payload_bits
from .neural import (
    Hyperparameters,
    Network,
    NetworkSpec,
    TrainingDivergedError,
    init_network,
    predict,
    train,
)
from .receiver import detect_kmeans, detect_ml, equalize_lmmse, equalize_zf

log = logging.getLogger(__name__)

DETECTORS = ("ml", "kmeans", "dnn")
ESTIMATORS = ("ls", "lmmse")
EQUALIZERS = ("zf", "lmmse")
LABEL_SOURCES = ("truth", "ml")

# chosen to span the BLER waterfall of the default 16x16 64-QAM link
DEFAULT_NOISE_GRID = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)

# spawn-key namespaces: trials vs. per-noise-point detector training
_TRIAL_NS = 0
_TRAINING_NS = 1


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
    dnn_learning_rate: float = 0.05
    dnn_batch_size: int = 64
    dnn_epochs: int = 200
    dnn_validation_fraction: float = 0.2
    dnn_patience: int = 10
    dnn_train_samples: int = 10000
    dnn_labels: str = "truth"

    def __post_init__(self):
        # a SimConfig that exists holds each field as its kind and is valid;
        # without noise_power it runs the single point N0 * B, or the default grid
        for name, kind in _FIELD_KINDS.items():
            object.__setattr__(self, name, _field_value(name, kind, getattr(self, name)))
        derived = self.noise_power is None and self.N0 is not None
        if self.noise_power is None:
            object.__setattr__(self, "noise_power", (self.N0 * self.B,) if derived else DEFAULT_NOISE_GRID)
        try:
            validate_config(self)
        except ConfigError as exc:
            if derived and str(exc).startswith("noise_power"):
                raise ConfigError(f"N0 = {self.N0} gives the noise power N0 * B = "
                                  f"{self.noise_power[0]}, which is rejected: {exc}") from None
            raise


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


def _hyperparameters(config: SimConfig) -> Hyperparameters:
    return Hyperparameters(
        learning_rate=config.dnn_learning_rate,
        batch_size=config.dnn_batch_size,
        epochs=config.dnn_epochs,
        validation_fraction=config.dnn_validation_fraction,
        patience=config.dnn_patience,
    )


class _Link(NamedTuple):
    table: ConstellationTable
    crc_spec: CrcSpec
    gain: float  # large-scale gain: G_override, or else the log-distance model
    n_uses: int  # channel uses per transport block


@functools.lru_cache(maxsize=16)
def _link(config: SimConfig) -> _Link:
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
    return _Link(table, crc_spec, gain, n_uses)


def _check_file_name(name: str, path: str) -> None:
    """Raise :class:`ConfigError` naming ``name``, the key or flag that gave
    ``path``, when ``path`` names no file: '', '.', '..' and a path ending
    in a separator name a directory."""
    if os.path.basename(path) in ("", ".", ".."):
        raise ConfigError(f"{name} = {path!r} names no file")


def validate_config(config: SimConfig) -> None:
    """Raise :class:`ConfigError` naming the first parameter out of range or
    inconsistent with another; SimConfig runs it once fields hold their kinds."""
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {_shown(config.seed)}")
    for name in ("N_t", "N_r", "codeword_size", "n_transmissions", "workers",
                 "dnn_depth", "dnn_width", "dnn_train_samples"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {_shown(getattr(config, name))}")
    for name, choices in (("pilot_mode", PILOT_MODES), ("detector", DETECTORS),
                          ("estimator", ESTIMATORS), ("equalizer", EQUALIZERS),
                          ("dnn_labels", LABEL_SOURCES)):
        if getattr(config, name) not in choices:
            raise ConfigError(f"{name} = {getattr(config, name)!r}; expected one of {choices}")
    _check_file_name("output", config.output)
    for name in ("N_t", "codeword_size"):  # the block size and sigma2 * N_t below take them as floats
        if getattr(config, name) > sys.float_info.max:
            raise ConfigError(f"{name} = {_shown(getattr(config, name))} is beyond float range")
    table, crc_spec, gain, _ = _link(config)
    if crc_spec.crc_length != config.crc_length:
        raise ConfigError(f"crc_length = {_shown(config.crc_length)} does not match generator "
                          f"{config.crc_generator!r} (degree {crc_spec.crc_length})")
    if config.n_pilot < config.N_t:
        raise ConfigError(f"n_pilot = {_shown(config.n_pilot)} must be at least N_t = {_shown(config.N_t)}")
    if config.equalizer == "zf" and config.N_r < config.N_t:
        raise ConfigError(
            f"equalizer 'zf' needs N_r >= N_t, got N_r={_shown(config.N_r)}, N_t={_shown(config.N_t)}"
        )
    try:
        _hyperparameters(config)
    except ValueError as exc:
        raise ConfigError(f"dnn hyperparameters invalid: {exc}") from exc
    if config.B <= 0:
        raise ConfigError(f"B must be positive, got {config.B}")
    if config.N0 is not None and config.N0 < 0:
        raise ConfigError(f"N0 must be nonnegative, got {config.N0}")
    # the L-MMSE filters form G * H^* H, which must not overflow
    if not 1e-300 <= gain <= 1e300:
        source = ("G_override" if config.G_override is not None
                  else f"f_c = {config.f_c}, d = {config.d}, eta = {config.eta}")
        raise ConfigError(f"{source} gives a large-scale gain of {gain}; "
                          f"it must lie within 1e-300..1e300 (+-3000 dB)")
    if not config.noise_power or any(v <= 0 for v in config.noise_power):
        raise ConfigError(f"noise_power must be a nonempty list of positive values, got {config.noise_power}")
    for sigma2 in config.noise_power:
        # the SNR columns take log10(sigma2 * N_t * k), and the receiver
        # squares sums of amplitudes of order sqrt(sigma2 / G)
        if not math.isfinite(sigma2 * config.N_t * table.k) or not 1e-300 <= gain / sigma2 <= 1e300:
            raise ConfigError(f"noise_power = {sigma2} is out of range for link gain {gain} (G_override, "
                              f"or f_c, d, eta): G / noise_power must lie within +-3000 dB")


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


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, path) via spawn keys.

    The stream is ``default_rng(SeedSequence(seed, spawn_key=path))`` bit
    for bit, and so are its ``spawn`` children. SeedSequence hashes its
    words in order, so NumPy's own SeedSequence(seed, spawn_key=path[:-1])
    mixes the seed and all but the last key word into the pool; only the
    last word's mix and the state hash run here, for 64 consecutive last
    words in one vectorized pass, cached per block. A key out of that
    form (an empty path, a last entry that is not an int below 2**32, or
    an entry that is not a non-negative integer) goes to SeedSequence.
    """
    word = path[-1] if path else None
    if type(word) is int and 0 <= word <= _MASK32:
        try:
            block = _state_block(seed, *path[:-1], word >> 6)
        except TypeError:  # an unhashable entry, such as a list of words
            block = None
        if block is not None:
            return np.random.Generator(np.random.PCG64(_TrialSeed(seed, path, block[word & 63])))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _hash_constants(const: int, mult: int, n: int) -> list[tuple[int, int]]:
    """A hash constant's (old, new) values over its next n uses: each use
    XORs the old value into a word and multiplies the word by the new one."""
    pairs = []
    for _ in range(n):
        pairs.append((const, const * mult & _MASK32))
        const = pairs[-1][1]
    return pairs


# generate_state(4, uint64) hashes eight words, pool word i % 4 into word i
_STATE_CONSTANTS = tuple(_hash_constants(_INIT_B, _MULT_B, 8))


@functools.lru_cache(maxsize=64, typed=True)
def _state_block(seed, *key):
    """SeedSequence(seed, spawn_key=prefix + (word,)).generate_state(4,
    uint64) for the 64 words 64 * block ... 64 * block + 63, one read-only
    row per word, where key is prefix + (block,). NumPy mixes seed and
    prefix into the pool; here the last word is mixed into it and the
    eight 32-bit state words are hashed, pool word i % 4 into word i,
    pairs joined low word first. None if seed or a prefix entry is not a
    non-negative integer (the word count below covers only those).
    """
    *prefix, block = key
    if not all(isinstance(n, (int, np.integer)) and n >= 0 for n in (seed, *prefix)):
        return None
    # a BitGenerator takes any registered seed sequence; registering on first
    # use keeps numpy.random out of the package import
    from numpy.random.bit_generator import ISpawnableSeedSequence
    ISpawnableSeedSequence.register(_TrialSeed)
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool
    # the hash constant advances once per pool word per entropy word; with a
    # spawn key the seed's words are zero-padded to the pool size
    seed_words, *prefix_words = (max(1, -(-int(n).bit_length() // 32)) for n in (seed, *prefix))
    n_words = max(4, seed_words) + sum(prefix_words)
    last_word = _hash_constants(_INIT_A * pow(_MULT_A, 4 * n_words, 1 << 32) & _MASK32, _MULT_A, 4)
    last_mix = [(_MIX_MULT_L * int(pool[i]) & _MASK32, *last_word[i],
                 *_STATE_CONSTANTS[i], *_STATE_CONSTANTS[i + 4]) for i in range(4)]
    # one (4, 1) column per constant, against the block's (64,) words
    mixed, old, new, low_old, low_new, high_old, high_new = np.array(last_mix, dtype=np.uint64).T[:, :, None]
    words = np.arange(block << 6, block + 1 << 6, dtype=np.uint64)
    value = (words ^ old) * new & _MASK32
    value ^= value >> 16
    value = mixed - _MIX_MULT_R * value & _MASK32
    value ^= value >> 16
    halves = np.concatenate([(value ^ low_old) * low_new & _MASK32, (value ^ high_old) * high_new & _MASK32])
    halves ^= halves >> 16
    state = (halves[0::2] | halves[1::2] << 32).T.copy()
    state.flags.writeable = False
    return state


class _TrialSeed:
    """A substream's seed sequence as PCG64 reads it: the four state words
    of SeedSequence(seed, spawn_key=path). Spawning, other state sizes,
    other attributes and pickling go to that SeedSequence, built on first use.
    """

    __slots__ = ("_seed", "_path", "_state", "_sequence")

    def __init__(self, seed, path, state):
        self._seed, self._path, self._state, self._sequence = seed, path, state, None

    def _seed_sequence(self):
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self._seed, spawn_key=self._path)
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._state.copy()
        return self._seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._seed_sequence().spawn(n_children)

    def __getattr__(self, name):  # entropy, spawn_key, pool, n_children_spawned, ...
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._seed_sequence(), name)

    def __reduce__(self):
        return self._seed_sequence().__reduce__()


@dataclass(frozen=True)
class TrialOutcome:
    """Measures for one transmitted transport block."""

    estimation_mse: float
    ser: float
    ber: float
    crc_ok: bool
    equalization_failed: bool


@dataclass(frozen=True)
class SweepRecord:
    """One output.csv row: aggregated measures for one noise power."""

    noise_power: float
    snr_tx_db: float
    ebn0_tx_db: float
    channel_mse: float
    bler: float
    ser: float
    ber: float
    classification_error: float
    detector: str
    estimator: str
    seed: int


CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord))


# bound on the entries (16 bytes each) that the stacks of one chunk's draws
# hold together. A chunk makes about 40 numpy/LAPACK calls whatever its
# size, so larger chunks share that cost over more blocks: 77 blocks of the
# default 16x16 link (848 entries a block), 15 of the 4x16 link of 257
# channel uses (4320 entries a block). Their buffers outgrow glibc's default
# 128 KiB mmap threshold, which pool.keep_heap_resident raises, so they stay
# in the heap across chunks instead of being faulted in afresh. At 1 << 14
# the long_block benchmark ran at 1370 calibrated trials/s, at this bound
# 2110, for about 3 MB more peak RSS
_CHUNK_ENTRIES = 1 << 16


def _chunk_blocks(config: SimConfig) -> int:
    """Blocks per chunk: as many as keep the draws within _CHUNK_ENTRIES."""
    per_block = config.N_r * (config.N_t + config.n_pilot + _link(config).n_uses) + config.N_t ** 2
    return max(1, _CHUNK_ENTRIES // per_block)


class _LinkDraws:
    """The random draws of a chunk of blocks, one row of standard normals each.

    A block fills its row in its draw order: channel matrix, pilot basis
    (unitary-random pilots), pilot noise, data noise, each as real parts
    then imaginary parts. Each run of normal draws is one standard_normal
    call; the permutation of permutation pilots (after the channel) and
    the transmitted indices of training data (after the pilot noise, when
    ``n_classes`` is given) end a run. At noise power 0 the noise columns
    are not drawn. :meth:`stacks` assembles the complex stacks once per
    chunk; of the n_pilot pilot-noise columns only the first N_t, which
    the signal-carrying pilot columns cross, are assembled: the others
    are drawn, so every stream stays the same, but never read.
    """

    def __init__(self, config: SimConfig, noise_power: float, n_blocks: int, n_classes: int | None = None):
        if not (math.isfinite(noise_power) and noise_power >= 0):
            raise ValueError(f"noise_power must be finite and >= 0, got {noise_power}")
        self.config = config
        self.noise_power = noise_power
        self.link = _link(config)
        unitary = config.pilot_mode == "unitary-random"
        # channel, pilot basis, pilot noise, data noise
        self.shapes = ((config.N_r, config.N_t), (config.N_t, config.N_t) if unitary else (0,),
                       (config.N_r, config.n_pilot), (config.N_r, self.link.n_uses))
        self.bounds = np.cumsum([0] + [2 * math.prod(shape) for shape in self.shapes]).tolist()
        self.drawn = self.bounds[-1] if noise_power > 0 else self.bounds[2]
        self.normals = np.empty((n_blocks, self.bounds[-1]))
        self.pilot_basis = None if unitary else np.empty((n_blocks, config.N_t, config.N_t), dtype=complex)
        self.n_classes = n_classes
        self.tx_indices = None
        if n_classes is not None:
            self.tx_indices = np.empty((n_blocks, self.link.n_uses * config.N_t), dtype=np.int64)

    def draw(self, b: int, rng: np.random.Generator) -> None:
        """Block b's draws from ``rng``, in its order."""
        row, channel_end, pilot_noise_end = self.normals[b], self.bounds[1], self.bounds[3]
        start = 0
        if self.pilot_basis is not None:
            rng.standard_normal(out=row[:channel_end])
            self.pilot_basis[b] = draw_pilot_basis(self.config.N_t, rng, self.config.pilot_mode)
            start = channel_end
        if self.tx_indices is not None:
            # at noise power 0 the run ends before the pilot noise columns
            rng.standard_normal(out=row[start:min(pilot_noise_end, self.drawn)])
            self.tx_indices[b] = rng.integers(0, self.n_classes, size=self.tx_indices.shape[1])
            start = pilot_noise_end
        rng.standard_normal(out=row[start:self.drawn])

    def stacks(self):
        """The chunk's channel, pilot basis, pilot noise (its first N_t
        columns) and data noise stacks."""
        config, n_blocks = self.config, len(self.normals)
        channel, basis, pilot_noise, data_noise = (
            self.normals[:, lo:hi].reshape((n_blocks, 2) + shape)
            for lo, hi, shape in zip(self.bounds, self.bounds[1:], self.shapes))
        if self.pilot_basis is None:
            basis = draw_pilot_basis(config.N_t, basis, config.pilot_mode)
        else:
            basis = self.pilot_basis
        channel_shape, _, _, data_shape = self.shapes
        return (sample_channel(config.N_r, config.N_t, channel), basis,
                sample_noise(channel_shape, self.noise_power, pilot_noise[..., :config.N_t]),
                sample_noise(data_shape, self.noise_power, data_noise))


def _estimate(draws: _LinkDraws, H: np.ndarray, pilot_basis: np.ndarray, pilot_noise: np.ndarray) -> np.ndarray:
    """The chunk's channel estimates from its pilots X_P = Q [I 0].

    Only Q crosses the link, with the pilot noise of its N_t columns, and
    Y_P Q^* is scaled in closed form. The zero columns of X_P add only
    zeros to Y_P X_P^*, and X_P X_P^* = I, so this is, bit for bit,
    ``estimate_ls`` or ``estimate_lmmse`` on the full X_P and pilot noise.
    """
    config, gain = draws.config, draws.link.gain
    q = pilots_from_basis(pilot_basis, config.N_t, config.pilot_mode)
    y_p = apply_channel(H, gain, q, pilot_noise)
    sigma2 = None if config.estimator == "ls" else draws.noise_power
    return _scaled_correlation(y_p @ q.conj().swapaxes(-1, -2), gain, sigma2)


def _equalize(draws: _LinkDraws, h_hat: np.ndarray, gain: float, y: np.ndarray) -> np.ndarray:
    if draws.config.equalizer == "zf":
        return equalize_zf(h_hat, gain, y)
    return equalize_lmmse(h_hat, gain, draws.noise_power, y)


def _link_pass(draws: _LinkDraws, tx_indices: np.ndarray):
    """Send a chunk of blocks through the link: pilots, estimation, data
    symbols and equalization, each stage one stacked call.

    ``tx_indices`` is (n_blocks, n_symbols). Returns the channels, their
    estimates, the equalized symbols at constellation scale (n_blocks,
    n_symbols) and a bool per block that is true where the estimate is
    rank-deficient or the equalized symbols are not all finite; such a
    block's symbols are zeroed.
    """
    config = draws.config
    table, _, gain, _ = draws.link
    H, pilot_basis, pilot_noise, data_noise = draws.stacks()
    h_hat = _estimate(draws, H, pilot_basis, pilot_noise)

    n_blocks = tx_indices.shape[0]
    x = table.points[tx_indices].reshape(n_blocks, -1, config.N_t).swapaxes(-1, -2) / math.sqrt(config.N_t)
    y = apply_channel(H, gain, x, data_noise)
    try:
        s_hat = _equalize(draws, h_hat, gain, y)
    except np.linalg.LinAlgError:
        # one singular system fails the whole stacked solve: solve each on its own
        s_hat = np.empty(x.shape, dtype=complex)
        for b in range(n_blocks):
            try:
                s_hat[b] = _equalize(draws, h_hat[b], gain, y[b])
            except np.linalg.LinAlgError:
                s_hat[b] = np.nan
    failed = ~np.isfinite(s_hat).all(axis=(-2, -1))
    s_flat = (s_hat * math.sqrt(config.N_t)).swapaxes(-1, -2).reshape(n_blocks, -1)
    s_flat[failed] = 0
    return H, h_hat, s_flat, failed


def _payload_bits(rng: np.random.Generator, out: np.ndarray) -> None:
    """Write ``rng.integers(0, 2, size=n, dtype=np.uint8)`` into the n
    uint8 entries of ``out``, leaving ``rng`` to draw on as ``integers``
    leaves it. ``rng`` must be fresh: a PCG64 stream with no 32-bit half
    buffered.

    ``integers`` bounds each byte of its 32-bit draws with Lemire's
    method, which never rejects at range 2 and keeps the byte's top bit,
    so the bits are the top bits of the little-endian bytes of
    ceil(n / 4) / 2 raw words. That holds only where ceil(n / 4) is even,
    since an odd count leaves a half buffered for later draws, and where
    :func:`_raw_payload_matches` finds it; else this calls ``integers``.
    """
    if -(-len(out) // 4) % 2 == 0 and _raw_payload_matches():
        _raw_payload(rng, out)
    else:
        out[:] = rng.integers(0, 2, size=len(out), dtype=np.uint8)


def _raw_payload(rng: np.random.Generator, out: np.ndarray) -> None:
    """The raw-word path of :func:`_payload_bits`, without its checks."""
    raw = rng.bit_generator.random_raw(-(-len(out) // 8))
    np.right_shift(raw.view(np.uint8)[:len(out)], 7, out=out)


@functools.cache
def _raw_payload_matches() -> bool:
    """Whether :func:`_raw_payload` gives ``integers``' bits and state on
    this numpy and byte order, at a few sizes with an even number of
    32-bit words."""
    for n in (5, 8, 16, 61, 4096):
        want_rng, got_rng = (np.random.Generator(np.random.PCG64(n)) for _ in range(2))
        got = np.empty(n, dtype=np.uint8)
        _raw_payload(got_rng, got)
        want = want_rng.integers(0, 2, size=n, dtype=np.uint8)
        got_state, want_state = got_rng.bit_generator.state, want_rng.bit_generator.state
        # integers leaves its last high half in uinteger, which no draw
        # reads while has_uint32 is 0: the next 32-bit draw overwrites it
        got_state["uinteger"] = want_state["uinteger"]
        if not (np.array_equal(got, want) and want_state["has_uint32"] == 0 and got_state == want_state):
            return False
    return True


def _trial_links(config: SimConfig, noise_power: float, noise_index: int, trial_indices,
                 payloads, dnn_model: Network | None = None) -> tuple[np.ndarray, ...]:
    """Run a chunk of trials through the link; detect, demap and score it.

    Each trial draws from its own substream, in the order payload bits
    (where ``payloads`` is None), channel matrix, pilot construction,
    pilot noise, data noise; else ``payloads`` is the chunk's (n_trials, n)
    payload stack. The chunk's blocks are then framed in one call, and
    checked and scored in one call each. Returns the columns of the
    trials' outcomes, one entry per trial each, in the order of the
    :class:`TrialOutcome` fields.
    """
    if config.detector == "dnn" and dnn_model is None:
        raise ValueError(
            "detector 'dnn' needs a trained network; pass dnn_model or use "
            "train_detector_network() / run_sweep()"
        )
    draws = _LinkDraws(config, noise_power, len(trial_indices))
    table, crc_spec, _, _ = draws.link
    payload_bits = payloads
    if payloads is None:
        payload_bits = np.empty((len(trial_indices), config.codeword_size), dtype=np.uint8)
    for b, trial_index in enumerate(trial_indices):
        rng = substream(config.seed, _TRIAL_NS, noise_index, trial_index)
        if payloads is None:
            _payload_bits(rng, payload_bits[b])
        draws.draw(b, rng)
    blocks = build_transport_blocks(payload_bits, config.codeword_size, crc_spec, table.k, config.N_t)
    tx_indices = map_bits_to_symbols(blocks, table).reshape(len(blocks), -1)
    H, h_hat, s_flat, failed = _link_pass(draws, tx_indices)
    if config.detector == "ml":
        rx_indices = detect_ml(s_flat, table)
    elif config.detector == "kmeans":
        rx_indices = detect_kmeans(s_flat, table)
    else:
        rx_indices = predict(dnn_model, _detector_features(s_flat))
    rx_indices = rx_indices.reshape(s_flat.shape)
    rx_bits = symbols_to_bits(rx_indices, table).reshape(len(blocks), -1)
    est_mse = metrics.estimation_mse(metrics.error_vector(H, h_hat), config.N_r, config.N_t)
    payload_rx, crc_ok = extract_and_check(rx_bits, config.codeword_size, crc_spec, table.k, config.N_t)
    ser = metrics.ser(tx_indices, rx_indices)
    ber = metrics.ber(blocks[:, :config.codeword_size], payload_rx)
    # rank-deficient estimate or non-finite symbols: count the whole block as lost
    ser[failed] = 1.0
    ber[failed] = 1.0
    crc_ok &= ~failed
    return est_mse, ser, ber, crc_ok, failed


def _outcomes(columns) -> list[TrialOutcome]:
    """One outcome per trial from the columns that :func:`_trial_links` returns."""
    return [TrialOutcome(*row) for row in zip(*(column.tolist() for column in columns))]


def _detector_features(s_flat: np.ndarray) -> np.ndarray:
    """One feature row [Re s, Im s] per equalized symbol of a stack of blocks."""
    s = s_flat.ravel()
    return np.column_stack([s.real, s.imag])


def run_trial(config: SimConfig, noise_power: float, trial_index: int,
              noise_index: int = 0, *, payload_bits=None, dnn_model: Network | None = None,
              link: TrialOutcome | None = None) -> TrialOutcome:
    """Transmit one transport block end to end and measure it.

    Randomness comes from the substream (seed, noise_index, trial_index);
    within a trial the draw order is fixed: payload bits (when not
    supplied), channel matrix, pilot construction, pilot noise, data noise.
    ``build_transport_blocks`` frames ``payload_bits`` and checks its size
    and its bits.
    Without ``link`` the trial runs the chunk pass as a chunk of one.

    ``link`` is this trial's outcome from run_sweep's chunk pass, returned
    as it is, with no further work. run_sweep makes this call once per
    trial, in the calling process and in noise order, as it reduces each
    noise point's outcomes into its record, also for the points that ran
    in worker processes. The call exists only because the benchmark's
    traced run (perfbench/test_perfbench.py) counts one run_trial span per
    trial, under run_sweep; the call and ``link`` go once that check
    counts chunks.
    """
    if link is not None:
        return link
    payloads = None if payload_bits is None else np.reshape(payload_bits, (1, -1))
    [outcome] = _outcomes(_trial_links(config, noise_power, noise_index, [trial_index], payloads, dnn_model))
    return outcome


def train_detector_network(config: SimConfig, noise_power: float, noise_index: int = 0) -> Network:
    """Train the neural detector for one noise point.

    Training data is generated with a dedicated substream, one fresh
    channel per block, through the same chunk pass the trials use; per
    block the draw order is channel matrix, pilot construction, pilot
    noise, transmitted indices, data noise. A block whose equalization
    fails is skipped and the next one drawn. Labels follow
    ``config.dnn_labels``: the transmitted indices ("truth") or the ML
    detector's decisions ("ml").
    """
    table, _, _, n_uses = _link(config)
    data_rng = substream(config.seed, _TRAINING_NS, noise_index, 0)

    features, labels = [], []
    collected = 0
    while collected < config.dnn_train_samples:
        n_blocks = min(math.ceil((config.dnn_train_samples - collected) / (n_uses * config.N_t)),
                       _chunk_blocks(config))
        draws = _LinkDraws(config, noise_power, n_blocks, n_classes=table.M)
        for b in range(n_blocks):
            draws.draw(b, data_rng)
        tx_indices = draws.tx_indices
        _, _, s_flat, failed = _link_pass(draws, tx_indices)
        if failed.any():
            s_flat, tx_indices = s_flat[~failed], tx_indices[~failed]
        features.append(_detector_features(s_flat))
        if config.dnn_labels == "truth":
            labels.append(tx_indices.ravel())
        else:
            labels.append(detect_ml(s_flat, table))
        collected += tx_indices.size

    X = np.concatenate(features)[:config.dnn_train_samples]
    y_train = np.concatenate(labels)[:config.dnn_train_samples]

    init_seed = int(np.random.SeedSequence(
        config.seed, spawn_key=(_TRAINING_NS, noise_index, 1)).generate_state(1)[0])
    spec = NetworkSpec(depth=config.dnn_depth, width=config.dnn_width,
                       input_dim=X.shape[1], output_dim=table.M, seed=init_seed)
    network = init_network(spec)
    train(network, X, y_train, _hyperparameters(config))
    return network


def run_sweep(config: SimConfig) -> list[SweepRecord]:
    """Run n_transmissions trials at each noise power and aggregate.

    Records come out ordered by noise power ascending. With
    detector = "dnn" the network is trained once per noise point before
    the trials; if that training diverges, the noise point falls back to
    ML detection for the radio measures and its record carries
    classification_error = 1.

    The noise points run in min(workers, noise points, usable cores)
    processes: this one and forked children (see :mod:`mimolink.pool`).
    Every trial and training pass draws from its own substream, so the
    records do not depend on the number of processes.
    """
    pool.keep_heap_resident()
    payload_chunks = None
    if config.payload is not None:
        bits = load_payload_bits(config.payload)
        if bits.size == 0:
            raise ConfigError(f"payload file {config.payload!r} contains no data")
        # the short last chunk gets the zero padding that framing would give it
        payload_chunks = np.pad(bits, (0, -bits.size % config.codeword_size)).reshape(-1, config.codeword_size)
    run_point = functools.partial(_point_trials, config, payload_chunks)
    points = pool.run(run_point, len(config.noise_power), config.workers)

    records = []
    for noise_index, (sigma2, (columns, training_diverged)) in enumerate(zip(config.noise_power, points)):
        outcomes = [run_trial(config, sigma2, t, noise_index, link=outcome)
                    for t, outcome in enumerate(_outcomes(columns))]
        # ordered reduction keyed by trial index; a detector's
        # classification error is its symbol error rate
        ser = float(np.mean([o.ser for o in outcomes]))
        records.append(SweepRecord(
            noise_power=sigma2,
            snr_tx_db=metrics.tx_snr_db(sigma2, config.N_t),
            ebn0_tx_db=metrics.tx_ebn0_db(sigma2, config.N_t, _link(config).table.k),
            channel_mse=float(np.mean([o.estimation_mse for o in outcomes])),
            bler=metrics.bler([o.crc_ok for o in outcomes]),
            ser=ser,
            ber=float(np.mean([o.ber for o in outcomes])),
            classification_error=1.0 if training_diverged else ser,
            detector=config.detector,
            estimator=config.estimator,
            seed=config.seed,
        ))
    return records


def _point_trials(config: SimConfig, payload_chunks: np.ndarray | None, noise_index: int):
    """Train the detector of one noise point (dnn) and run its trials chunk
    by chunk. Returns the trials' outcome columns (see :func:`_trial_links`)
    in trial order, and whether training diverged."""
    sigma2 = config.noise_power[noise_index]
    trial_config, dnn_model, training_diverged = config, None, False
    if config.detector == "dnn":
        try:
            dnn_model = train_detector_network(config, sigma2, noise_index)
        except TrainingDivergedError as exc:
            log.warning(
                "noise point %g: %s; falling back to ML detection and "
                "recording classification_error = 1", sigma2, exc,
            )
            trial_config = replace(config, detector="ml")
            training_diverged = True

    per_chunk = _chunk_blocks(config)
    chunks = []
    for start in range(0, config.n_transmissions, per_chunk):
        trials = range(start, min(start + per_chunk, config.n_transmissions))
        payloads = None
        if payload_chunks is not None:
            payloads = payload_chunks[np.remainder(trials, len(payload_chunks))]
        chunks.append(_trial_links(trial_config, sigma2, noise_index, trials, payloads, dnn_model))
    return tuple(np.concatenate(column) for column in zip(*chunks)), training_diverged


def _format_field(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(records: list[SweepRecord], path) -> None:
    """Write records as UTF-8 CSV with LF endings and round-trip-exact floats."""
    write_extract(records, CSV_COLUMNS, path)


def _checked_columns(columns) -> tuple[str, ...]:
    """The selected output columns as a tuple; raise ``ValueError`` when the
    selection is empty, names a column that is not in ``CSV_COLUMNS``, or
    names one twice (a CSV reader keyed on the header would drop one)."""
    columns = tuple(columns)
    if not columns:
        raise ValueError(f"no columns selected; valid: {', '.join(CSV_COLUMNS)}")
    unknown = [c for c in columns if c not in CSV_COLUMNS]
    if unknown:
        raise ValueError(f"unknown column(s): {', '.join(unknown)}; valid: {', '.join(CSV_COLUMNS)}")
    repeated = [c for c in dict.fromkeys(columns) if columns.count(c) > 1]
    if repeated:
        raise ValueError(f"column(s) selected more than once: {', '.join(repeated)}")
    return columns


def write_extract(records: list[SweepRecord], columns, path) -> None:
    """Write the given columns (e.g. snr_tx_db,bler) of each record as CSV.

    The file is written next to ``path`` under a temporary name and then
    renamed over it, so ``path`` holds either its old bytes or the whole
    new file. An OSError names ``path``, not the temporary name.
    """
    if not records:
        raise ValueError("no records to write")
    columns = _checked_columns(columns)
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(_format_field(getattr(record, col)) for col in columns))
    atomic.write_text(path, "\n".join(lines) + "\n")
