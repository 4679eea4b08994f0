"""Checks of the benchmark itself (not part of the repository's Tier-1 suite).

    python3 -m pytest perfbench/test_generators.py
"""

import hashlib
import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, reference_beam  # noqa: E402

import rcasr.network  # noqa: E402
import rcasr.trainer  # noqa: E402
from rcasr import ctc  # noqa: E402


def digests(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(tmp_path, name):
    wl = WORKLOADS[name]
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        wl.setup(str(tmp_path / label), seed)
    a, b, c = (digests(tmp_path / label) for label in "abc")
    assert a and a == b
    assert a != c


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "audio_s_per_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_tracer_restores_every_binding():
    before = (rcasr.trainer.adam_step, rcasr.trainer.build_network,
              rcasr.network.Network.forward)
    with tracing.Tracer():
        assert rcasr.trainer.adam_step.__wrapped__ is before[0]
        assert rcasr.network.Network.forward is not before[2]
    assert (rcasr.trainer.adam_step, rcasr.trainer.build_network,
            rcasr.network.Network.forward) == before


@pytest.mark.parametrize("scale", [0.3, 3.0])
def test_reference_beam_matches_the_program(scale):
    y = ctc.softmax(np.random.default_rng(5).standard_normal((40, 7)) * scale)
    assert reference_beam(y, 4) == ctc.beam_decode(y, width=4)


def test_speed_probe_samples_every_kernel_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(probe.samples)
    assert 0 < probe.probe_s < wall
    assert probe.reference_s(wall) == (wall - probe.probe_s) / probe.slowdown()
