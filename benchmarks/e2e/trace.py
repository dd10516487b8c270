"""Spans around the program's layer boundaries, recorded from outside.

The benchmark never edits the program under test.  A traced run replaces
selected public functions and methods with wrappers that record one span
per call and puts the originals back afterwards; an untraced run
installs nothing, so the end-to-end numbers carry no tracing cost.

A span is ``(span_id, parent_id, group_id, name, start_ns, end_ns)``.
The parent is the span open in the calling context (a ``ContextVar``, so
asyncio tasks keep their own chains); the group is the id of the
outermost span, so every span of one page check or one request shares
it.  Spans stay in memory until :meth:`Tracer.write_spans`.

Pool workers are forked from a traced parent and inherit the wrappers.
A worker drops whatever it inherited at its first span, and after every
call into a layer marked ``flush`` (the pool's task functions) it writes
its per-name totals to ``worker-<pid>.json`` in the trace directory,
because nothing else of a worker outlives the pool.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import time
from collections import Counter
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

#: (span_id, group_id, pid) of the innermost open span in this context
_CURRENT: ContextVar[tuple[int, int, int] | None] = ContextVar(
    "e2e_trace_span", default=None
)

#: observer(tracer, args, result, error, duration_ns) after each call
Observer = Callable[["Tracer", tuple, object, BaseException | None, int], None]


@dataclass(frozen=True, slots=True)
class Layer:
    """One wrapped entry point."""

    #: ``"package.module"`` or ``"package.module:Class"``
    target: str
    attr: str
    #: span name; layer metrics aggregate spans by name
    span: str
    observe: Observer | None = None
    #: a pool task function: flush per-pid totals after each call
    flush: bool = False
    #: the callable returns an iterator; time each ``next`` instead
    iterator: bool = False


class Tracer:
    """Installs :class:`Layer` wrappers and keeps their spans."""

    def __init__(self, trace_dir: str | Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.main_pid = self.pid
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self, layers: list[Layer]) -> None:
        for layer in layers:
            module_name, _, class_name = layer.target.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[layer.attr]
            setattr(owner, layer.attr, self._wrap(original, layer))
            self._patches.append((owner, layer.attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, layers: list[Layer]) -> Iterator["Tracer"]:
        self.install(layers)
        try:
            yield self
        finally:
            self.uninstall()

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()

    # -------------------------------------------------------------- spans

    def count(self, name: str, amount: int | float = 1) -> None:
        self.counters[name] += amount

    def _start(self) -> tuple:
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: the parent's records are not ours
            self.pid = pid
            self.reset()
        current = _CURRENT.get()
        span_id = next(self._ids)
        if current is None or current[2] != pid:
            parent_id, group_id = 0, span_id
        else:
            parent_id, group_id = current[0], current[1]
        token = _CURRENT.set((span_id, group_id, pid))
        return token, span_id, parent_id, group_id, time.perf_counter_ns()

    def _finish(self, handle: tuple, name: str) -> int:
        end = time.perf_counter_ns()
        token, span_id, parent_id, group_id, start = handle
        _CURRENT.reset(token)
        self.spans.append((span_id, parent_id, group_id, name, start, end))
        return end - start

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. around one run)."""
        handle = self._start()
        try:
            yield
        finally:
            self._finish(handle, name)

    def _after(self, layer: Layer, args, result, error, duration: int) -> None:
        if layer.observe is not None:
            layer.observe(self, args, result, error, duration)
        if layer.flush and self.pid != self.main_pid:
            self.flush_worker()

    def _wrap(self, func, layer: Layer):
        tracer = self
        name = layer.span
        if inspect.iscoroutinefunction(func):
            async def wrapper(*args, **kwargs):
                handle = tracer._start()
                try:
                    result = await func(*args, **kwargs)
                except BaseException as exc:
                    duration = tracer._finish(handle, name)
                    tracer._after(layer, args, None, exc, duration)
                    raise
                duration = tracer._finish(handle, name)
                tracer._after(layer, args, result, None, duration)
                return result
        elif layer.iterator:
            def wrapper(*args, **kwargs):
                return tracer._timed_iter(func(*args, **kwargs), name)
        else:
            def wrapper(*args, **kwargs):
                handle = tracer._start()
                try:
                    result = func(*args, **kwargs)
                except BaseException as exc:
                    duration = tracer._finish(handle, name)
                    tracer._after(layer, args, None, exc, duration)
                    raise
                duration = tracer._finish(handle, name)
                tracer._after(layer, args, result, None, duration)
                return result
        functools.update_wrapper(wrapper, func)
        wrapper.__e2e_traced__ = func
        return wrapper

    def _timed_iter(self, iterator, name: str):
        while True:
            handle = self._start()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._finish(handle, name)
            yield item

    # ------------------------------------------------------------ results

    def totals(self) -> dict[str, list[int]]:
        """``{span name: [calls, inclusive ns]}`` over this process's spans."""
        totals: dict[str, list[int]] = {}
        for _sid, _parent, _group, name, start, end in self.spans:
            entry = totals.setdefault(name, [0, 0])
            entry[0] += 1
            entry[1] += end - start
        return totals

    def flush_worker(self) -> None:
        """Write this worker's totals, replacing its previous flush."""
        path = self.trace_dir / f"worker-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "pid": self.pid,
            "spans": self.totals(),
            "counters": dict(self.counters),
        }))
        tmp.replace(path)

    def collect_workers(self) -> tuple[dict[str, list[int]], Counter]:
        """Merge and remove every worker flush: (totals, counters)."""
        totals: dict[str, list[int]] = {}
        counters: Counter[str] = Counter()
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            flushed = json.loads(path.read_text())
            for name, (calls, ns) in flushed["spans"].items():
                entry = totals.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += ns
            counters.update(flushed["counters"])
            path.unlink()
        return totals, counters

    def write_spans(self, path: str | Path) -> None:
        """Dump this process's spans as NDJSON, one span per line."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, group, name, start, end in self.spans:
                out.write(json.dumps({
                    "id": sid, "parent": parent, "group": group,
                    "name": name, "start_ns": start, "end_ns": end,
                }) + "\n")


def exclusive_ns(spans: list[tuple[int, int, int, str, int, int]]) -> dict[str, int]:
    """Per-name self time: each span's duration minus its children's."""
    child_ns: Counter[int] = Counter()
    for _sid, parent, _group, _name, start, end in spans:
        if parent:
            child_ns[parent] += end - start
    self_ns: Counter[str] = Counter()
    for sid, _parent, _group, name, start, end in spans:
        self_ns[name] += end - start - child_ns[sid]
    return dict(self_ns)


def is_traced(func) -> bool:
    return hasattr(func, "__e2e_traced__")
