"""Inputs are a pure function of the seed, and expected.json pins them."""
from __future__ import annotations

import statistics

from repro.study import build_archive

from benchmarks.e2e import serve
from benchmarks.e2e.metrics import BENCHMARK
from benchmarks.e2e.oracle import input_digests, load
from benchmarks.e2e.workloads import FULL, SMOKE

SPEC = FULL.serve


def test_same_seed_same_schedule_and_documents():
    for phase, rate in (("A0", SPEC.rate_a), ("B2", SPEC.rate_b)):
        first = serve.schedule(SPEC, 11, phase, rate, 2.0, 0)
        assert first == serve.schedule(SPEC, 11, phase, rate, 2.0, 0)
        assert first != serve.schedule(SPEC, 23, phase, rate, 2.0, 0)
    assert serve.document(11, "fresh", 5) == serve.document(11, "fresh", 5)
    assert serve.document(11, "fresh", 5) != serve.document(23, "fresh", 5)
    first = serve.plan(SPEC, 11, 2.0)
    assert first.rounds == serve.plan(SPEC, 11, 2.0).rounds
    assert serve.input_digests(SPEC, first.docs) == serve.input_digests(
        SPEC, serve.plan(SPEC, 11, 2.0).docs)


def test_pinned_documents_are_every_document_a_run_sends():
    seconds = BENCHMARK["run_seconds"]
    planned = serve.plan(SPEC, 11, seconds)
    pinned = load()["serve"][SPEC.key(11, seconds)]
    sent = {doc for arrivals in planned.rounds for phase in arrivals
            for _offset, doc in phase if doc >= SPEC.popular}
    assert pinned["fresh_documents"] == len(sent)
    assert pinned == serve.input_digests(SPEC, planned.docs)


def test_popular_share_is_the_measured_carried_share():
    shares = [entry["carried_share"] for entry in load()["corpora"].values()
              if "carried_share" in entry]
    assert shares
    assert abs(SPEC.p_popular - statistics.mean(shares)) < 0.01


def test_schedule_mixes_popular_and_never_seen_documents():
    arrivals = serve.schedule(SPEC, 11, "A0", SPEC.rate_a, 4.0, 100)
    offsets = [offset for offset, _doc in arrivals]
    assert offsets == sorted(offsets) and offsets[-1] < 4.0
    assert abs(len(arrivals) - SPEC.rate_a * 4.0) < 0.1 * SPEC.rate_a * 4.0
    fresh = [doc for _offset, doc in arrivals if doc >= SPEC.popular]
    assert fresh == list(range(SPEC.popular + 100, SPEC.popular + 100 + len(fresh)))
    share = len(fresh) / len(arrivals)
    assert abs(share - (1 - SPEC.p_popular)) < 0.05


def test_rebuilt_archive_has_the_same_inputs(tmp_path):
    config = SMOKE.studies[0].config(11, 0)
    first = input_digests(build_archive(config, tmp_path / "a"))
    second = input_digests(build_archive(config, tmp_path / "b"))
    assert first == second
    other = input_digests(build_archive(SMOKE.studies[0].config(23, 0), tmp_path / "c"))
    assert other != first
