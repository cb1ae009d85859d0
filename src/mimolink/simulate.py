"""Deterministic Monte Carlo sweep over noise powers for one MIMO link.

One trial transmits one transport block end to end: payload bits, framing,
Gray mapping, the 1/sqrt(N_t) power scaling, pilot transmission, channel
estimation, equalization, detection, bit recovery and the CRC check. A
fresh channel is drawn per block and fresh noise per channel use.

Every trial derives its own random stream from (seed, noise index, trial
index) through SeedSequence spawn keys, so results are independent of
execution order; rerunning a sweep with the same seed yields a
byte-identical CSV.
"""

from __future__ import annotations

import ast
import logging
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import metrics
from .channel import ChannelRealization, LinkGeometry, apply_channel, large_scale_gain, sample_channel
from .constellation import ConstellationTable, build_constellation, map_bits_to_symbols, symbols_to_bits
from .estimation import PILOT_MODES, build_pilot_matrix, estimate_lmmse, estimate_ls
from .framing import CrcSpec, block_total_bits, build_transport_blocks, extract_and_check, load_payload_bits
from .neural import (
    Hyperparameters,
    Network,
    NetworkSpec,
    TrainingDivergedError,
    TrainingSet,
    init_network,
    predict,
    train,
)
from .receiver import detect_kmeans, detect_ml, equalize_lmmse, equalize_zf

log = logging.getLogger(__name__)

DETECTORS = ("ml", "kmeans", "dnn")
ESTIMATORS = ("ls", "lmmse")
EQUALIZERS = ("zf", "lmmse")
FEATURE_MODES = ("equalized", "raw")
LABEL_SOURCES = ("truth", "ml")

# chosen to span the BLER waterfall of the default 16x16 64-QAM link
DEFAULT_NOISE_GRID = (1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)

CSV_COLUMNS = (
    "noise_power",
    "snr_tx_db",
    "ebn0_tx_db",
    "channel_mse",
    "bler",
    "ser",
    "ber",
    "classification_error",
    "detector",
    "estimator",
    "seed",
)

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
    noise_power: tuple = DEFAULT_NOISE_GRID
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
    dnn_features: str = "equalized"
    dnn_labels: str = "truth"

    def __post_init__(self):
        # sweeps run (and are seeded) in ascending noise order
        raw = self.noise_power
        if np.isscalar(raw):
            raw = (raw,)
        object.__setattr__(self, "noise_power", tuple(sorted(float(v) for v in raw)))


# annotation text of each field ("int", "float | None", "tuple", ...): it
# drives both the coercion of config text and the finiteness check
_FIELD_KINDS = {f.name: f.type for f in fields(SimConfig)}


def _geometry(config: SimConfig) -> LinkGeometry:
    return LinkGeometry(f_c=config.f_c, d=config.d, eta=config.eta,
                        B=config.B, N0=config.N0 or 0.0)


def _hyperparameters(config: SimConfig) -> Hyperparameters:
    return Hyperparameters(
        learning_rate=config.dnn_learning_rate,
        batch_size=config.dnn_batch_size,
        epochs=config.dnn_epochs,
        validation_fraction=config.dnn_validation_fraction,
        patience=config.dnn_patience,
    )


def validate_config(config: SimConfig) -> None:
    """Raise :class:`ConfigError` naming the first offending parameter."""
    for name, kind in _FIELD_KINDS.items():
        value = getattr(config, name)
        if kind == "tuple" or kind.startswith("float"):
            values = value if kind == "tuple" else (value,)
            if not all(v is None or math.isfinite(v) for v in values):
                raise ConfigError(f"{name} must be finite, got {value}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    for name in ("N_t", "N_r", "codeword_size", "n_transmissions", "workers",
                 "dnn_depth", "dnn_width", "dnn_train_samples"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1, got {getattr(config, name)}")
    for name, choices in (("pilot_mode", PILOT_MODES), ("detector", DETECTORS),
                          ("estimator", ESTIMATORS), ("equalizer", EQUALIZERS),
                          ("dnn_features", FEATURE_MODES), ("dnn_labels", LABEL_SOURCES)):
        if getattr(config, name) not in choices:
            raise ConfigError(f"{name} = {getattr(config, name)!r}; expected one of {choices}")
    try:
        k = build_constellation(config.constellation, config.M_constellation).k
    except ValueError as exc:
        raise ConfigError(f"constellation = {config.constellation!r}, "
                          f"M_constellation = {config.M_constellation}: {exc}") from exc
    try:
        crc = CrcSpec(config.crc_generator)
    except ValueError as exc:
        raise ConfigError(f"crc_generator invalid: {exc}") from exc
    if crc.crc_length != config.crc_length:
        raise ConfigError(
            f"crc_length = {config.crc_length} does not match generator "
            f"{config.crc_generator!r} (degree {crc.crc_length})"
        )
    if config.n_pilot < config.N_t:
        raise ConfigError(f"n_pilot = {config.n_pilot} must be at least N_t = {config.N_t}")
    if config.equalizer == "zf" and config.N_r < config.N_t:
        raise ConfigError(
            f"equalizer 'zf' needs N_r >= N_t, got N_r={config.N_r}, N_t={config.N_t}"
        )
    if config.dnn_features == "raw" and config.N_t != 1:
        raise ConfigError("dnn_features = 'raw' is only supported for N_t = 1")
    try:
        _hyperparameters(config)
    except ValueError as exc:
        raise ConfigError(f"dnn hyperparameters invalid: {exc}") from exc
    try:
        _geometry(config)
    except ValueError as exc:
        raise ConfigError(f"link geometry invalid: {exc}") from exc
    try:
        gain = link_gain(config)
    except OverflowError:
        gain = math.inf
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
        if not math.isfinite(sigma2 * config.N_t * k) or not 1e-300 <= gain / sigma2 <= 1e300:
            raise ConfigError(f"noise_power = {sigma2} is out of range for link gain {gain} (G_override, "
                              f"or f_c, d, eta): G / noise_power must lie within +-3000 dB")


def _coerce(name: str, value):
    kind = _FIELD_KINDS[name]
    if kind == "tuple":
        if isinstance(value, str):
            value = _parse_value(value)
        if np.isscalar(value):
            value = (value,)
        try:
            return tuple(float(v) for v in value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} = {value!r} is not a list of numbers") from exc
    if kind.endswith(" | None"):
        if value is None or (isinstance(value, str) and value.lower() in ("none", "")):
            return None
        kind = kind.removesuffix(" | None")
    if kind == "int":
        if isinstance(value, str):
            value = _parse_value(value)
        if isinstance(value, (int, np.integer)):
            return int(value)  # exact however large; float() would round above 2**53
        try:
            as_float = float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} = {value!r} is not an integer") from exc
        if not math.isfinite(as_float) or as_float != int(as_float):
            raise ConfigError(f"{name} = {value!r} is not an integer")
        return int(as_float)
    if kind == "float":
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name} = {value!r} is not a number") from exc
    return str(value)


def _parse_value(text: str):
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text  # bare strings like QAM or output.csv


def _read_config_file(path) -> dict:
    raw = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = _parse_value(value.strip())
    return raw


def load_config(path=None, overrides: dict | None = None) -> SimConfig:
    """Build a validated configuration from a key = value file plus overrides.

    An empty (or absent) file yields the defaults. Unknown keys are
    rejected rather than silently ignored; overrides set to None are
    skipped. When ``N0`` is given (in the file or as an override) without
    an explicit ``noise_power``, the single noise power N0 * B is used; an
    explicit ``noise_power`` always wins.
    """
    raw = _read_config_file(path) if path is not None else {}
    raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    unknown = sorted(set(raw) - _FIELD_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown parameter(s): {', '.join(unknown)}")
    values = {key: _coerce(key, value) for key, value in raw.items()}
    derived = values.get("N0") is not None and "noise_power" not in values
    if derived:
        values["noise_power"] = (values["N0"] * values.get("B", SimConfig.B),)
    config = SimConfig(**values)
    try:
        validate_config(config)
    except ConfigError as exc:
        if derived and str(exc).startswith("noise_power"):
            raise ConfigError(f"N0 = {config.N0} gives the noise power N0 * B = "
                              f"{config.noise_power[0]}, which is rejected: {exc}") from None
        raise
    return config


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent deterministic stream for (seed, path) via spawn keys."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def link_gain(config: SimConfig) -> float:
    """Large-scale gain: the configured override, or the log-distance model."""
    if config.G_override is not None:
        return float(config.G_override)
    return large_scale_gain(_geometry(config))


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


def _detector_features(config: SimConfig, s_flat: np.ndarray, y: np.ndarray) -> np.ndarray:
    if config.dnn_features == "raw":
        return np.concatenate([y.real.T, y.imag.T], axis=1)
    return np.column_stack([s_flat.real, s_flat.imag])


def _detect_indices(config: SimConfig, s_flat: np.ndarray, y: np.ndarray,
                    table: ConstellationTable, dnn_model: Network | None) -> np.ndarray:
    if config.detector == "ml":
        return detect_ml(s_flat, table)
    if config.detector == "kmeans":
        return detect_kmeans(s_flat, table)
    if dnn_model is None:
        raise ValueError(
            "detector 'dnn' needs a trained network; pass dnn_model or use "
            "train_detector_network() / run_sweep()"
        )
    return predict(dnn_model, _detector_features(config, s_flat, y))


def _estimate_channel(config: SimConfig, gain: float, noise_power: float,
                      rng: np.random.Generator) -> tuple[ChannelRealization, np.ndarray]:
    """Draw the block's channel, send the pilots over it and estimate it.

    Draw order: channel matrix, pilot construction, pilot noise.
    """
    realization = ChannelRealization(sample_channel(config.N_r, config.N_t, rng), gain, noise_power)
    x_p = build_pilot_matrix(config.N_t, config.n_pilot, rng, config.pilot_mode)
    y_p = apply_channel(realization, x_p, rng)
    if config.estimator == "ls":
        return realization, estimate_ls(y_p, x_p, gain)
    return realization, estimate_lmmse(y_p, x_p, gain, noise_power)


def _receive(config: SimConfig, table: ConstellationTable, realization: ChannelRealization,
             h_hat: np.ndarray, tx_indices: np.ndarray,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Send the block's symbols over the channel (drawing the data noise) and
    equalize them with the estimate.

    Returns the equalized symbols at constellation scale, one per
    transmitted index, and the received matrix y. A rank-deficient
    estimate, or equalized symbols that are not all finite, raise
    ``numpy.linalg.LinAlgError``.
    """
    x = table.points[tx_indices].reshape(-1, config.N_t).T / math.sqrt(config.N_t)
    y = apply_channel(realization, x, rng)
    if config.equalizer == "zf":
        s_hat = equalize_zf(h_hat, realization.G, y)
    else:
        s_hat = equalize_lmmse(h_hat, realization.G, realization.sigma2, y)
    if not np.isfinite(s_hat).all():
        raise np.linalg.LinAlgError("equalized symbols are not all finite")
    return (s_hat * math.sqrt(config.N_t)).T.ravel(), y


def run_trial(config: SimConfig, noise_power: float, trial_index: int,
              noise_index: int = 0, *, table: ConstellationTable | None = None,
              crc_spec: CrcSpec | None = None, payload_bits=None,
              dnn_model: Network | None = None) -> TrialOutcome:
    """Transmit one transport block end to end and measure it.

    Randomness comes from the substream (seed, noise_index, trial_index);
    within a trial the draw order is fixed: payload bits (when not
    supplied), channel matrix, pilot construction, pilot noise, data noise.
    ``build_transport_blocks`` frames ``payload_bits`` and checks its size.
    """
    if table is None:
        table = build_constellation(config.constellation, config.M_constellation)
    if crc_spec is None:
        crc_spec = CrcSpec(config.crc_generator)
    rng = substream(config.seed, _TRIAL_NS, noise_index, trial_index)
    if payload_bits is None:
        payload_bits = rng.integers(0, 2, size=config.codeword_size, dtype=np.uint8)
    block = build_transport_blocks(payload_bits, config.codeword_size, crc_spec, table.k, config.N_t)

    realization, h_hat = _estimate_channel(config, link_gain(config), noise_power, rng)
    # the column-major error vector fixes the summation order of the MSE
    est_mse = metrics.estimation_mse(metrics.error_vector(realization.H, h_hat),
                                     config.N_r, config.N_t)

    tx_indices = map_bits_to_symbols(block, table)
    try:
        s_flat, y = _receive(config, table, realization, h_hat, tx_indices, rng)
    except np.linalg.LinAlgError:
        # rank-deficient estimate: count the whole block as lost
        return TrialOutcome(estimation_mse=est_mse, ser=1.0, ber=1.0,
                            crc_ok=False, equalization_failed=True)

    rx_indices = _detect_indices(config, s_flat, y, table, dnn_model)
    payload_rx, crc_ok = extract_and_check(symbols_to_bits(rx_indices, table), config.codeword_size,
                                           crc_spec, table.k, config.N_t)
    return TrialOutcome(
        estimation_mse=est_mse,
        ser=metrics.ser(tx_indices, rx_indices),
        ber=metrics.ber(block[:config.codeword_size], payload_rx),
        crc_ok=crc_ok,
        equalization_failed=False,
    )


def train_detector_network(config: SimConfig, noise_power: float, noise_index: int = 0,
                           *, table: ConstellationTable | None = None) -> Network:
    """Train the neural detector for one noise point.

    Training data is generated with a dedicated substream, one fresh
    channel per block, through the same pilot/estimate/equalize pipeline
    the trials use; per block the draw order is channel matrix, pilot
    construction, pilot noise, transmitted indices, data noise. Labels
    follow ``config.dnn_labels``: the transmitted indices ("truth") or the
    ML detector's decisions ("ml").
    """
    if table is None:
        table = build_constellation(config.constellation, config.M_constellation)
    data_rng = substream(config.seed, _TRAINING_NS, noise_index, 0)
    gain = link_gain(config)
    symbols_per_block = block_total_bits(config.codeword_size, CrcSpec(config.crc_generator),
                                         table.k, config.N_t) // table.k

    features, labels = [], []
    collected = 0
    while collected < config.dnn_train_samples:
        realization, h_hat = _estimate_channel(config, gain, noise_power, data_rng)
        tx_indices = data_rng.integers(0, table.M, size=symbols_per_block)
        try:
            s_flat, y = _receive(config, table, realization, h_hat, tx_indices, data_rng)
        except np.linalg.LinAlgError:
            continue
        features.append(_detector_features(config, s_flat, y))
        if config.dnn_labels == "truth":
            labels.append(tx_indices)
        else:
            labels.append(detect_ml(s_flat, table))
        collected += symbols_per_block

    X = np.concatenate(features)[:config.dnn_train_samples]
    y_train = np.concatenate(labels)[:config.dnn_train_samples]
    training_set = TrainingSet(features=X, labels=y_train)

    init_seed = int(np.random.SeedSequence(
        config.seed, spawn_key=(_TRAINING_NS, noise_index, 1)).generate_state(1)[0])
    spec = NetworkSpec(depth=config.dnn_depth, width=config.dnn_width,
                       input_dim=X.shape[1], output_dim=table.M, seed=init_seed)
    network = init_network(spec)
    train(network, training_set, _hyperparameters(config))
    return network


def run_sweep(config: SimConfig) -> list[SweepRecord]:
    """Run n_transmissions trials at each noise power and aggregate.

    Records come out ordered by noise power ascending. With
    detector = "dnn" the network is trained once per noise point before
    the trials; if that training diverges, the noise point falls back to
    ML detection for the radio measures and its record carries
    classification_error = 1.
    """
    validate_config(config)
    table = build_constellation(config.constellation, config.M_constellation)
    crc_spec = CrcSpec(config.crc_generator)

    payload_chunks = None
    if config.payload is not None:
        bits = load_payload_bits(config.payload)
        if bits.size == 0:
            raise ConfigError(f"payload file {config.payload!r} contains no data")
        payload_chunks = [bits[i:i + config.codeword_size]
                          for i in range(0, bits.size, config.codeword_size)]

    records = []
    for noise_index, sigma2 in enumerate(config.noise_power):
        trial_config = config
        training_diverged = False
        dnn_model = None
        if config.detector == "dnn":
            try:
                dnn_model = train_detector_network(config, sigma2, noise_index, table=table)
            except TrainingDivergedError as exc:
                log.warning(
                    "noise point %g: %s; falling back to ML detection and "
                    "recording classification_error = 1", sigma2, exc,
                )
                trial_config = replace(config, detector="ml")
                training_diverged = True

        outcomes = [
            run_trial(trial_config, sigma2, trial_index, noise_index, table=table,
                      crc_spec=crc_spec, dnn_model=dnn_model,
                      payload_bits=None if payload_chunks is None
                      else payload_chunks[trial_index % len(payload_chunks)])
            for trial_index in range(config.n_transmissions)
        ]

        # ordered reduction keyed by trial index; a detector's
        # classification error is its symbol error rate
        ser = float(np.mean([o.ser for o in outcomes]))
        records.append(SweepRecord(
            noise_power=sigma2,
            snr_tx_db=metrics.tx_snr_db(sigma2, config.N_t),
            ebn0_tx_db=metrics.tx_ebn0_db(sigma2, config.N_t, table.k),
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


def _format_field(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(records: list[SweepRecord], path) -> None:
    """Write records as UTF-8 CSV with LF endings and round-trip-exact floats."""
    write_extract(records, CSV_COLUMNS, path)


def _checked_columns(columns) -> tuple[str, ...]:
    """The selected output columns as a tuple; raise ``ValueError`` when the
    selection is empty or names a column that is not in ``CSV_COLUMNS``."""
    columns = tuple(columns)
    if not columns:
        raise ValueError(f"no columns selected; valid: {', '.join(CSV_COLUMNS)}")
    unknown = [c for c in columns if c not in CSV_COLUMNS]
    if unknown:
        raise ValueError(f"unknown column(s): {', '.join(unknown)}; valid: {', '.join(CSV_COLUMNS)}")
    return columns


def write_extract(records: list[SweepRecord], columns, path) -> None:
    """Write the given columns (e.g. snr_tx_db,bler) of each record as CSV.

    The file is written next to ``path`` under a temporary name and then
    renamed over it, so ``path`` holds either its old bytes or the whole
    new file.
    """
    if not records:
        raise ValueError("no records to write")
    columns = _checked_columns(columns)
    lines = [",".join(columns)]
    for record in records:
        lines.append(",".join(_format_field(getattr(record, col)) for col in columns))
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(temporary, path)
    finally:
        temporary.unlink(missing_ok=True)
