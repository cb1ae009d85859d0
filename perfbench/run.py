"""mimolink benchmark: one run of one workload, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload ml_sweep --seed 1 --seconds 20 --trace 0

The program is driven as a black box through ``load_config`` and
``run_sweep`` on a config file generated from ``workloads/<name>.cfg``
plus ``seed = <seed>``. Untimed sweeps first check the outputs and warm
the caches; then the same sweep repeats for ``--seconds`` and every
repetition must return the records of the first. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
window (see ``tracer.py``) and the tracing overhead. The line before it
is a JSON report with the environment, sample counts and checks. Spans
and generated configs go to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDEN = ROOT / "tests" / "data" / "golden_default_seed7.csv"
WORKLOADS = ("ml_sweep", "kmeans_lmmse_2w", "long_block", "dnn_point")
SETUP_REPEATS = 7
# nominal time of the calibration kernel; timings are scaled to this machine speed
CALIBRATION_REFERENCE_S = 0.075

END_TO_END_UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ser": "ratio"}
PER_LAYER_UNITS = {
    "simulate.trials": "count",
    "simulate.self_us_per_trial": "us",
    "simulate.substream_us_per_trial": "us",
    "simulate.trial_us_p50": "us",
    "simulate.trial_us_p99": "us",
    "simulate.train_data_s": "s",
    "channel.us_per_trial": "us",
    "channel.calls": "count/trial",
    "estimation.us_per_trial": "us",
    "estimation.pilot_build_us_per_trial": "us",
    "estimation.estimate_us_per_trial": "us",
    "framing.us_per_trial": "us",
    "framing.crc_us_per_trial": "us",
    "framing.crc_bits": "count/trial",
    "constellation.us_per_trial": "us",
    "constellation.symbols": "count/trial",
    "receiver.us_per_trial": "us",
    "receiver.equalize_us_per_trial": "us",
    "receiver.detect_us_per_trial": "us",
    "receiver.detect_symbols": "count/trial",
    "receiver.equalize_failed": "count/trial",
    "metrics.us_per_trial": "us",
    "neural.us_per_trial": "us",
    "neural.train_s": "s",
    "neural.epochs": "count",
    "neural.predict_us_per_trial": "us",
    "neural.useful_epoch_ratio": "ratio",
    "trace.trials_per_s": "1/s",
    "trace.untraced_trials_per_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
    "trace.unwrapped": "count",
    "trace.spans": "count",
}

# fresh interpreter: import the package, load the config, build the tables
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mimolink
config = mimolink.load_config(sys.argv[2])
mimolink.build_constellation(config.constellation, config.M_constellation)
mimolink.CrcSpec(config.crc_generator)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
from run import calibration_seconds
print(elapsed, calibration_seconds())
"""

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def calibration_seconds() -> float:
    """Time a fixed kernel of tiny numpy calls and a Python-level loop.

    The machine's speed can swing by 2x over minutes when its cores are
    shared, and the process's own CPU time swings with it, so no amount of
    averaging inside one run removes it. A kernel timed next to each sweep
    tracks the swing; its mix (a 16x16 complex QR and solve, a distance
    argmin, a small sigmoid layer and its gradient product, a random draw
    and an integer bit loop) mirrors the per-trial work of the simulator.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    points = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x, w = rng.standard_normal((64, 16)), rng.standard_normal((16, 16))
    start = time.perf_counter()
    for _ in range(800):
        q, _r = np.linalg.qr(a)
        np.linalg.solve(a, q)
        np.abs(q[:, 0][:, None] - points[None, :]).argmin(axis=1)
        hidden = 1.0 / (1.0 + np.exp(-(x @ w)))
        hidden.T @ x
        rng.standard_normal((16, 16))
        reg = 0
        for bit in range(16):
            reg = ((reg << 1) | (bit & 1)) ^ (reg >> 3)
    return time.perf_counter() - start


def write_config(name: str, base_text: str, seed: int) -> Path:
    """The config file the program receives: a workload's keys plus its seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}.cfg"
    path.write_text(f"{base_text.rstrip()}\nseed = {seed}\n", encoding="utf-8")
    return path


def workload_config(workload: str, seed: int) -> Path:
    text = (BENCH / "workloads" / f"{workload}.cfg").read_text(encoding="utf-8")
    return write_config(workload, text, seed)


def check_records(records, config) -> list[str]:
    """Problems with a sweep's records: one finite row per noise point, rates in [0, 1]."""
    problems = []
    if len(records) != len(config.noise_power):
        problems.append(f"{len(records)} records for {len(config.noise_power)} noise points")
    for record, sigma2 in zip(records, config.noise_power):
        if record.noise_power != sigma2:
            problems.append(f"record for noise power {record.noise_power}, expected {sigma2}")
        values = (record.snr_tx_db, record.ebn0_tx_db, record.channel_mse, record.bler,
                  record.ser, record.ber, record.classification_error)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value at noise power {sigma2}")
        elif not all(0.0 <= v <= 1.0 for v in values[3:]):
            problems.append(f"rate outside [0, 1] at noise power {sigma2}")
        elif record.channel_mse < 0:
            problems.append(f"negative channel MSE at noise power {sigma2}")
    return problems


class Attempts:
    """Counts workload runs (sweeps) and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sweep(self, label: str, config, reference=None, check=None):
        """Run one sweep; return ``(records, seconds)``, records None on failure."""
        from mimolink import simulate  # looked up per call, so a tracer's wrapper is used

        self.attempted += 1
        gc.collect()
        start = time.perf_counter()
        try:
            records = simulate.run_sweep(config)
        except Exception as exc:  # a failed attempt is counted, not fatal
            seconds = time.perf_counter() - start
            traceback.print_exc()
            self._fail(label, [f"raised {type(exc).__name__}: {exc}"])
            return None, seconds
        seconds = time.perf_counter() - start
        problems = check_records(records, config)
        if reference is not None and records != reference:
            problems.append("records differ from the reference sweep")
        if check is not None:
            problems.extend(check(records))
        if problems:
            self._fail(label, problems)
            return None, seconds
        return records, seconds

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{label}: {p}" for p in problems)

    def window(self, config, seconds: float, reference) -> tuple[list[float], list[float]]:
        """Repeat the sweep for ``seconds``.

        Returns each repetition's trials per wall second and the machine's
        slowness next to it: the mean of the calibration times before and
        after the sweep, over ``CALIBRATION_REFERENCE_S``.
        """
        trials = len(config.noise_power) * config.n_transmissions
        rates, slowness = [], []
        deadline = time.perf_counter() + seconds
        before = calibration_seconds()
        while not rates or time.perf_counter() < deadline:
            records, elapsed = self.sweep("timed sweep", config, reference)
            if records is None:
                break
            after = calibration_seconds()
            rates.append(trials / elapsed)
            slowness.append((before + after) / 2 / CALIBRATION_REFERENCE_S)
            before = after
        return rates, slowness


def golden_check(records) -> list[str]:
    from mimolink.simulate import write_csv

    path = OUT / "golden_check.csv"
    write_csv(records, path)
    if path.read_bytes() != GOLDEN.read_bytes():
        return [f"CSV differs from {GOLDEN.relative_to(ROOT)}"]
    return []


def setup_times(config_path: Path) -> tuple[list[float], list[float]]:
    """Seconds to import mimolink, load the config and build its tables in
    a fresh interpreter, each with the slowness that interpreter measured
    right after (the calibration kernel needs numpy, so it cannot run first).
    """
    times, slowness = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path), str(BENCH)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        elapsed, calibration = map(float, done.stdout.split()[-2:])
        times.append(elapsed)
        slowness.append(calibration / CALIBRATION_REFERENCE_S)
    return times, slowness


def environment() -> dict:
    """Machine and build facts that a figure from this run depends on."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps[key].get("name") + " " + str(deps[key].get("version")) for key in ("blas", "lapack")}
    except (KeyError, TypeError, ValueError, AttributeError):
        blas = {"blas": "unknown", "lapack": "unknown"}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mimolink").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _summary(values) -> dict:
    """Sample count, median and quartiles of a list of measurements."""
    if len(values) < 2:
        return {"n": len(values), "median": _median(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Attempts, dict, dict]:
    """Check, then time one workload; return the attempts, metrics and report."""
    from mimolink.simulate import load_config

    attempts = Attempts()
    config_path = workload_config(workload, seed)
    config = load_config(config_path)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "config": config_path.read_text(encoding="utf-8"),
              "trials_per_sweep": len(config.noise_power) * config.n_transmissions}

    # untimed checks; they also warm caches and lazy set-up before timing
    if workload == "ml_sweep":
        attempts.sweep("golden sweep (default config, seed 7)",
                       load_config(write_config("golden", "", 7)), check=golden_check)
    # workers = 1 reference: for the 2-worker workload this is criterion 9 from outside
    reference, _ = attempts.sweep("reference sweep (workers = 1)",
                                  load_config(config_path, {"workers": 1}))
    if reference is not None:
        report["ser_by_noise_point"] = [r.ser for r in reference]

    if not trace:
        rates, slowness = attempts.window(config, seconds, reference)
        setup, setup_slowness = setup_times(config_path)
        scaled_rates = [r * k for r, k in zip(rates, slowness)]
        scaled_setup = [t / k for t, k in zip(setup, setup_slowness)]
        report["trials_per_s"] = _summary(scaled_rates)
        report["wall_trials_per_s"] = _summary(rates)
        report["setup_s"] = _summary(scaled_setup)
        report["wall_setup_s"] = _summary(setup)
        report["samples"] = {"wall_trials_per_s": rates, "slowness": slowness,
                             "wall_setup_s": setup, "setup_slowness": setup_slowness}
        metrics = {
            "trials_per_s": _median(scaled_rates),
            "setup_s": _median(scaled_setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ser": statistics.fmean(r.ser for r in reference) if reference else 1.0,
        }
        return attempts, metrics, report

    from tracer import Tracer, layer_metrics, write_spans

    untraced = [r * k for r, k in zip(*attempts.window(config, seconds / 2, reference))]
    with Tracer() as tracer:
        traced_rates, slowness = attempts.window(config, seconds / 2, reference)
    traced = [r * k for r, k in zip(traced_rates, slowness)]
    # per-layer times are scaled to the reference speed like the end-to-end ones
    speed = 1.0 / _median(slowness) if slowness else 1.0
    metrics = {name: value * speed if PER_LAYER_UNITS[name] in ("us", "s") else value
               for name, value in layer_metrics(tracer.spans).items()}
    write_spans(tracer.spans, OUT / f"spans-{workload}.tsv")
    metrics["trace.trials_per_s"] = _median(traced)
    metrics["trace.untraced_trials_per_s"] = _median(untraced)
    metrics["trace.overhead_pct"] = (
        (_median(untraced) / _median(traced) - 1.0) * 100.0 if traced and untraced else 0.0)
    metrics["trace.unwrapped"] = float(len(tracer.unwrapped))
    report["untraced_trials_per_s"] = _summary(untraced)
    report["traced_trials_per_s"] = _summary(traced)
    report["traced_slowness"] = _summary(slowness)
    report["wrapped"] = tracer.wrapped
    report["unwrapped"] = tracer.unwrapped
    return attempts, metrics, report


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one mimolink benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "mimolink" / "__init__.py", GOLDEN) if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    attempts, metrics, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report["environment"] = environment()
    report["problems"] = attempts.problems
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
