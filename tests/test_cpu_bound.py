"""The ``cpu_bound`` timer that the ladder tests time their calls with."""

from __future__ import annotations

import gc
import re
import time

import pytest

from conftest import cpu_bound


def test_a_block_past_its_bound_fails_with_the_measured_time():
    with pytest.raises(AssertionError) as failure:
        with cpu_bound(0.001):
            start = time.process_time()
            while time.process_time() - start < 0.01:
                pass
    took = re.search(r"took (\S+) s of CPU time; the bound is 0.001 s", str(failure.value))
    assert took and float(took[1]) >= 0.01


def test_a_full_collection_runs_before_the_clock_starts(monkeypatch):
    events = []
    clock = time.process_time
    monkeypatch.setattr(time, "process_time", lambda: events.append("clock") or clock())

    def record(phase, info):
        if info["generation"] == 2:
            events.append(phase)

    gc.callbacks.append(record)
    try:
        with cpu_bound(10.0):
            events.append("block")
    finally:
        gc.callbacks.remove(record)
    assert events == ["start", "stop", "clock", "block", "clock"]
