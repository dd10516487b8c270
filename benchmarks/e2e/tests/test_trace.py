"""Trace wrappers are transparent, removable, and absent from untraced runs."""
from __future__ import annotations

import asyncio
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from benchmarks.e2e import study
from benchmarks.e2e.layers import SERVE_LAYERS, STUDY_LAYERS
from benchmarks.e2e.trace import Layer, Tracer, exclusive_ns, is_traced
from benchmarks.e2e.workloads import SMOKE

THIS = __name__


def double(value):
    return 2 * value


def fail(message):
    raise KeyError(message)


async def later(value):
    await asyncio.sleep(0)
    return value + 1


def count_up(limit):
    yield from range(limit)


def outer(value):
    return double(value) + 1


def task(value):
    """A pool task: flushes the worker's totals after each call."""
    return outer(value)


LAYERS = [
    Layer(THIS, "double", "t.double"),
    Layer(THIS, "fail", "t.fail"),
    Layer(THIS, "later", "t.later"),
    Layer(THIS, "count_up", "t.count", iterator=True),
    Layer(THIS, "outer", "t.outer"),
    Layer(THIS, "task", "t.task", flush=True),
]


def _module_attr(name):
    return getattr(sys.modules[THIS], name)


def test_wrappers_pass_results_and_exceptions_through(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.installed(LAYERS):
        assert is_traced(_module_attr("double"))
        assert _module_attr("double")(21) == 42
        with pytest.raises(KeyError, match="boom"):
            _module_attr("fail")("boom")
        assert asyncio.run(_module_attr("later")(1)) == 2
        assert list(_module_attr("count_up")(3)) == [0, 1, 2]
    names = [span[3] for span in tracer.spans]
    assert names.count("t.double") == 1
    assert names.count("t.fail") == 1
    assert names.count("t.later") == 1
    # one span per next(), the exhausting one included
    assert names.count("t.count") == 4


def test_uninstall_restores_the_originals(tmp_path):
    originals = {layer.attr: _module_attr(layer.attr) for layer in LAYERS}
    tracer = Tracer(tmp_path)
    with tracer.installed(LAYERS):
        assert all(is_traced(_module_attr(attr)) for attr in originals)
    assert all(_module_attr(attr) is func for attr, func in originals.items())


def test_nested_spans_link_to_their_parent_and_share_a_group(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.installed(LAYERS):
        with tracer.span("root"):
            _module_attr("outer")(1)
            _module_attr("outer")(2)
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span[3], []).append(span)
    (root,) = by_name["root"]
    outers = by_name["t.outer"]
    assert all(span[1] == root[0] and span[2] == root[0] for span in outers)
    for inner in by_name["t.double"]:
        assert inner[1] in {span[0] for span in outers}
    self_ns = exclusive_ns(tracer.spans)
    assert sum(self_ns.values()) == root[5] - root[4]


def test_forked_workers_flush_their_own_totals(tmp_path):
    tracer = Tracer(tmp_path)
    with tracer.installed(LAYERS):
        _module_attr("double")(1)  # a parent span the worker must not report
        # forked like the production pools, so the worker inherits the wrappers
        with ProcessPoolExecutor(
            max_workers=1, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            assert list(pool.map(_module_attr("task"), [1, 2, 3])) == [3, 5, 7]
    assert len(list(tmp_path.glob("worker-*.json"))) == 1
    spans, _counters = tracer.collect_workers()
    assert spans["t.task"][0] == 3
    assert spans["t.outer"][0] == 3
    assert spans["t.double"][0] == 3
    assert not list(tmp_path.glob("worker-*.json"))


def _owner(layer):
    module, _, cls = layer.target.partition(":")
    owner = sys.modules[module]
    return getattr(owner, cls) if cls else owner


def test_every_layer_target_exists(tmp_path):
    layers = STUDY_LAYERS + SERVE_LAYERS
    with Tracer(tmp_path).installed(layers):
        assert all(is_traced(getattr(_owner(l), l.attr)) for l in layers)
    assert not any(is_traced(getattr(_owner(l), l.attr)) for l in layers)


def test_traced_study_layers_reconcile_with_its_wall(tmp_path):
    spec = SMOKE.studies[2]  # incremental: every study layer but the pool
    result = study.run(spec, 11, 0.1, trace=True, setups=1, expected={},
                       work=tmp_path)
    assert result.correct
    assert 0 <= result.metrics["trace.unaccounted_frac"] < 0.05
    assert result.metrics["core.checker.parse_calls"] > 0
    assert result.metrics["core.rules.findings"] > 0
    assert result.metrics["incremental.content_index.lookups"] > 0


def test_untraced_runs_install_nothing(tmp_path, monkeypatch):
    def refuse(self, layers):
        raise AssertionError("an untraced run installed trace wrappers")

    monkeypatch.setattr(Tracer, "install", refuse)
    spec = SMOKE.studies[0]
    result = study.run(spec, 11, 0.1, trace=False, setups=1, expected={},
                       work=tmp_path)
    assert result.correct
    assert not any(is_traced(getattr(_owner(l), l.attr)) for l in STUDY_LAYERS)
