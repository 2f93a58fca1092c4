"""Tests for the speed meter: how many probes it takes and how it scales.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import speed  # noqa: E402


@pytest.fixture
def fake_time(monkeypatch):
    """A clock that only moves when the test or a probe advances it; each
    probe takes `probe_s` and advances the clock by as much."""
    state = {"now": 0.0, "probe_s": 0.002}

    def probe():
        state["now"] += state["probe_s"]
        return state["probe_s"]

    monkeypatch.setattr(speed.time, "perf_counter", lambda: state["now"])
    monkeypatch.setattr(speed, "probe", probe)
    return state


def test_first_gap_takes_the_minimum(fake_time):
    meter = speed.SpeedMeter()
    meter.gap()
    assert len(meter.probes) == speed.SpeedMeter.MIN_PROBES


def test_probes_keep_their_share_of_the_time(fake_time):
    meter = speed.SpeedMeter()
    meter.gap()
    fake_time["now"] += 10.0  # a timed segment
    meter.gap()
    assert sum(meter.probes) >= speed.PROBE_SHARE * 10.0
    assert sum(meter.probes) < speed.PROBE_SHARE * 10.0 + 2 * fake_time["probe_s"]


def test_factor_scales_to_the_reference_speed(fake_time):
    meter = speed.SpeedMeter()
    fake_time["probe_s"] = 2 * speed.REFERENCE_S  # a machine at half speed
    meter.gap()
    assert meter.factor() == pytest.approx(0.5)
    fake_time["probe_s"] = speed.REFERENCE_S / 2
    fake_time["now"] += 100.0
    meter.gap()  # now mostly fast probes: the mean probe time decides
    mean = sum(meter.probes) / len(meter.probes)
    assert meter.factor() == pytest.approx(speed.REFERENCE_S / mean)


def test_probe_times_the_calibration_work():
    assert speed.probe() > 0
