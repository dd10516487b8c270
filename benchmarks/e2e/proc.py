"""What the benchmark reads from ``/proc`` and ``getrusage``.

CPU time and peak memory of the program under test, including the
worker processes it forks.  Everything here is Linux-specific.
"""
from __future__ import annotations

import resource
import time
from pathlib import Path


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset VmHWM to the current RSS, so a later peak excludes setup."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of one process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def reaped_children_peak_rss_mb() -> float:
    """Largest peak RSS of any child this process has waited for, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def own_cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def descendants(pid: int) -> list[int]:
    """``pid`` and every live process below it, parents first."""
    found = [pid]
    for parent in found:
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                text = (task / "children").read_text()
            except FileNotFoundError:
                continue  # the thread exited while we listed it
            found.extend(int(child) for child in text.split())
    return found


def cpu_s(pid: int) -> float:
    """CPU seconds of one live process, summed over its threads.

    ``schedstat`` counts nanoseconds; ``stat``'s utime/stime count 10 ms
    ticks, too coarse for a phase of a second or two.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except FileNotFoundError:
            continue  # the thread exited while we listed it
    return total / 1e9


def tree_cpu_s(pid: int) -> float:
    """CPU seconds of ``pid`` and its live descendants."""
    return sum(cpu_s(member) for member in descendants(pid))
