import threading

import pytest

from hocdvs import synth


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started while the test runs, in start order."""
    started, start = [], threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started


@pytest.fixture
def drawn_on(monkeypatch):
    """The thread of each draw of synthesized noise normals, in order, for the configs
    that draw them chunk by chunk (synth_traces and simulate)."""
    real_draws, threads = synth._draws, []

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, shape):
            threads.append(threading.current_thread())
            return self.rng.standard_normal(shape)

    def draws(cfg, rows=None):
        baseline, sop, rng = real_draws(cfg, rows)
        return baseline, sop, rng if rows is not None else Recorded(rng)

    monkeypatch.setattr(synth, "_draws", draws)
    return threads
