"""The machine-speed probe leaves the process as it found it."""
from __future__ import annotations

import gc
import os

from benchmarks.e2e.speed import Speed


def test_probe_samples_every_cpu_and_restores_the_process():
    cpus = os.sched_getaffinity(0)
    speed = Speed()
    speed.sample(0.01)
    speed.sample(0.01)
    assert os.sched_getaffinity(0) == cpus
    assert gc.isenabled()
    assert speed.passes > 0
    assert speed.seconds >= 2 * 0.01 * len(cpus)
    assert speed.fraction > 0
