"""``BENCHMARK.json`` names exactly the metrics ``run.py`` reports.

Run with ``python -m pytest perfbench``.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_end_to_end_metrics_match():
    spec = _spec()
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    assert listed == list(workloads.END_TO_END)


def test_per_layer_metrics_match():
    spec = _spec()
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == list(layers.PER_LAYER)


def test_workloads_match():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_p90_needs_ten_samples_beyond_it():
    assert workloads.p90([0.1] * 99) is None
    values = [float(i) for i in range(1, 101)]
    assert workloads.p90(values) == 90.0


class _HalfSpeed:
    def factor(self, start, end):
        return 0.5


def test_end_to_end_scales_times_and_divides_the_rate():
    run = workloads.Run()
    run.samples["fit"] = [(0.0, 0.5), (1.0, 1.25)]
    run.samples["warm_generate"] = [(i, i + 0.01 * (1 + i % 10)) for i in range(110)]
    setups = [(0.0, 1.0), (5.0, 8.0)]
    wall = workloads.end_to_end(run, setups)
    scaled = workloads.end_to_end(run, setups, _HalfSpeed())
    assert wall["setup_s"] == pytest.approx(2.0)
    assert wall["warm_generate_s_p50"] == pytest.approx(0.055)
    assert wall["warm_generate_s_p90"] == pytest.approx(0.09)
    assert scaled["setup_s"] == pytest.approx(0.5 * wall["setup_s"])
    assert scaled["warm_generate_s_p50"] == pytest.approx(0.5 * wall["warm_generate_s_p50"])
    # The tail's excess over the median is not scaled.
    assert scaled["warm_generate_s_p90"] == pytest.approx(0.5 * 0.055 + (0.09 - 0.055))
    assert scaled["train_centres_per_s"] == pytest.approx(2.0 * wall["train_centres_per_s"])
    assert scaled["success_rate"] == wall["success_rate"]


def test_speed_factor_uses_the_kernel_timings_nearest_the_interval():
    speed = hostspeed.HostSpeed()
    assert speed.factor(0.0, 1.0) == 1.0
    speed.points = [(float(t), 0.01) for t in range(10)]
    speed.points += [(float(t), 0.02) for t in range(100, 110)]
    assert speed.factor(0.0, 1.0) == pytest.approx(hostspeed.REFERENCE_S / 0.01)
    assert speed.factor(104.0, 105.0) == pytest.approx(hostspeed.REFERENCE_S / 0.02)
    assert speed.factor(200.0, 201.0) == pytest.approx(hostspeed.REFERENCE_S / 0.02)
