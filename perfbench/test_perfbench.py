"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from tracer import END, NAME, PARENT, START, Tracer, layer_metrics, self_times

from mimolink import simulate


def _span(name, start, end, parent=None, trial=None):
    return [name, start, end, parent, trial, None, None]


def test_self_time_subtracts_nested_children():
    root = _span("simulate.run_sweep", 0.0, 10.0)
    trial = _span("simulate.run_trial", 1.0, 9.0, root)
    pilot = _span("estimation.build_pilot_matrix", 2.0, 5.0, trial)
    draw = _span("channel.complex_gaussian", 3.0, 4.0, pilot)
    crc = _span("framing.crc_compute", 6.0, 8.5, trial)
    spans = [draw, pilot, crc, trial, root]
    assert self_times(spans) == pytest.approx([1.0, 2.0, 2.5, 2.5, 2.0])
    # every instant of the root is attributed to exactly one span
    assert sum(self_times(spans)) == pytest.approx(root[END] - root[START])


def test_self_time_counts_overlapping_children_once():
    # two pool threads running trials under one sweep span
    root = _span("simulate.run_sweep", 0.0, 10.0)
    a = _span("simulate.run_trial", 1.0, 6.0, root)
    b = _span("simulate.run_trial", 4.0, 9.0, root)
    late = _span("simulate.run_trial", 9.5, 12.0, root)  # clipped to the parent
    assert self_times([a, b, late, root]) == pytest.approx([5.0, 5.0, 2.5, 1.5])


def test_layer_metrics_on_synthetic_tree():
    root = _span("simulate.run_sweep", 0.0, 1.0)
    spans = [root]
    for t in range(4):
        trial = _span("simulate.run_trial", 0.1 + 0.2 * t, 0.3 + 0.2 * t, root, (0, t))
        ch = _span("channel.sample_channel", trial[START], trial[START] + 0.05, trial)
        crc = _span("framing.crc_compute", trial[START] + 0.05, trial[START] + 0.15, trial)
        crc[6] = 18
        spans += [ch, crc, trial]
    m = layer_metrics(spans)
    assert m["simulate.trials"] == 4
    assert m["channel.us_per_trial"] == pytest.approx(0.05e6)
    assert m["framing.crc_us_per_trial"] == pytest.approx(0.10e6)
    assert m["framing.crc_bits"] == 18
    assert m["channel.calls"] == 1
    # sweep self 0.2 s plus trial self 4 x 0.05 s, over 4 trials
    assert m["simulate.self_us_per_trial"] == pytest.approx(0.4e6 / 4)
    assert m["trace.coverage"] == pytest.approx(0.6)


SMALL = dict(N_t=2, N_r=2, M_constellation=4, constellation="QPSK", n_pilot=4,
             noise_power=(1e-2, 1e-1), n_transmissions=12)


@pytest.mark.parametrize("extra", [
    {},
    {"workers": 2, "detector": "kmeans", "estimator": "lmmse", "equalizer": "lmmse"},
    {"detector": "dnn", "dnn_train_samples": 200, "dnn_epochs": 3, "dnn_labels": "ml"},
])
def test_traced_run_matches_untraced_run(extra):
    config = simulate.SimConfig(**SMALL, **extra)
    plain = simulate.run_sweep(config)
    with Tracer() as tracer:
        traced = simulate.run_sweep(config)
    assert traced == plain
    assert simulate.run_sweep is not None and not hasattr(simulate.run_sweep, "__wrapped__")
    names = {record[NAME] for record in tracer.spans}
    assert {"simulate.run_trial", "simulate.substream", "framing.crc_compute",
            "channel.sample_channel", "metrics.ser"} <= names
    trials = [r for r in tracer.spans if r[NAME] == "simulate.run_trial"]
    assert len(trials) == len(SMALL["noise_power"]) * SMALL["n_transmissions"]
    assert all(r[PARENT] is not None and r[PARENT][NAME] == "simulate.run_sweep" for r in trials)
    # framing calls its own crc_compute: those calls must be traced as well
    crc = [r for r in tracer.spans if r[NAME] == "framing.crc_compute"]
    assert {r[PARENT][NAME] for r in crc} >= {"framing.build_transport_blocks", "framing.crc_verify"}
    if extra.get("detector") == "dnn":
        m = layer_metrics(tracer.spans)
        assert m["neural.epochs"] > 0 and 0 < m["neural.useful_epoch_ratio"] <= 1
        assert m["simulate.train_data_s"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_configs_load(workload):
    config = simulate.load_config(run.workload_config(workload, 5))
    assert config.seed == 5
    assert run.check_records([], config)  # no records is a problem


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert all(Path(run.ROOT, p).is_dir() for p in spec["paths"])
