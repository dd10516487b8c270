"""How fast the machine ran while the workload ran, to divide spells out.

On a shared 2-vCPU host each vCPU drops to about half speed in spells
lasting from a fraction of a second to minutes, which moves every
timing of a run by up to 40%.  A run therefore samples a fixed probe
next to its workload — before every ``run_study`` call, and on either
side of every serve round and every set-up, on each vCPU in turn — and
reports its timings adjusted by how fast the probe went: a rate is
multiplied, a time divided, by ``REFERENCE_RATE / measured rate``.
Where a number does not follow the probe (the service's median latency,
a cache hit's round trip), it is reported as measured.

The probe is the standard library's ``html.parser`` over a fixed
document: pure-Python tokenizing like the program's own hot path, but no
code of the program, so a change to the program cannot move it.  The
garbage collector is off while it runs, so GC tuning cannot either.
"""
from __future__ import annotations

import gc
import os
import time
from html.parser import HTMLParser

#: probe passes per second on an undisturbed vCPU of the 2-vCPU VM the
#: benchmark was calibrated on; it only sets the scale of the adjusted
#: numbers, so both sides of a comparison share it
REFERENCE_RATE = 390.0

_DOCUMENT = "".join(
    f'<div class="c{i}" id="x{i}"><a href="/p/{i}" title="t {i}">link {i}'
    f"</a><p>text &amp; more {i} <b>bold</b></p></div>\n"
    for i in range(100)
)


class Speed:
    """Probe passes and seconds accumulated over one run's samples."""

    def __init__(self) -> None:
        self.passes = 0
        self.seconds = 0.0

    def sample(self, seconds_per_cpu: float) -> None:
        """Run the probe for ``seconds_per_cpu`` on each allowed CPU."""
        cpus = os.sched_getaffinity(0)
        gc.disable()
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                started = time.perf_counter()
                while True:
                    parser = HTMLParser()
                    parser.feed(_DOCUMENT)
                    parser.close()
                    self.passes += 1
                    elapsed = time.perf_counter() - started
                    if elapsed >= seconds_per_cpu:
                        break
                self.seconds += elapsed
        finally:
            os.sched_setaffinity(0, cpus)
            gc.enable()

    @property
    def fraction(self) -> float:
        """Measured speed as a share of the reference speed."""
        return self.passes / self.seconds / REFERENCE_RATE


def now(seconds_per_cpu: float) -> float:
    """The machine's speed right now, as a share of the reference speed."""
    speed = Speed()
    speed.sample(seconds_per_cpu)
    return speed.fraction


def between(before: float, after: float) -> float:
    """The speed over a stretch of work, from the probes on either side of it.

    Slow spells change within seconds, so one probe before a stretch of a
    few seconds misses half of what happened during it.
    """
    return (before + after) / 2
