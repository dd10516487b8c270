"""The study workloads: exactly what ``repro-study run`` executes, timed.

A run builds one corpus per set-up (``repro.study.build_archive``, each
timed), then calls ``run_study(config, force=True)`` — a file-backed
SQLite results store, ``Checker()`` in DOM mode, the sequential,
parallel or incremental runner — over the corpora in turn for
``--seconds``.  The timing metrics sum whole cycles of calls and divide
out the machine speed that the probe (``speed.py``) measured before
every call; each set-up is adjusted by the probes on either side of it.

A traced run alternates untraced and traced calls: the untraced ones
give the tracing overhead, the traced ones the per-layer numbers.

Correctness: every call over a corpus must produce the same result
digest, equal to the pinned one in ``expected.json`` for pinned seeds,
and otherwise equal to the digest the *other* runner produces on the
same corpus (computed after the measured phase, so it costs no
measured time).
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.study import build_archive, run_study

from . import proc, speed
from .layers import STUDY_LAYERS
from .metrics import PER_LAYER_NAMES, RunResult
from .oracle import input_digests
from .speed import Speed
from .trace import Tracer, exclusive_ns
from .workloads import StudySpec


@dataclass(slots=True)
class Call:
    """One timed ``run_study`` call."""

    wall_s: float
    cpu_s: float
    pages: int
    aggregate_sha256: str
    layers: dict[str, float] | None = None
    #: which of the run's corpora the call ran over
    corpus: int = 0


def _run_study(config, cache: Path, *, workers: int,
               incremental: bool) -> Call:
    cpu = proc.own_cpu_s()
    started = time.perf_counter()
    study = run_study(config, cache_dir=cache, force=True, workers=workers,
                      incremental=incremental)
    wall = time.perf_counter() - started
    cpu = proc.own_cpu_s() - cpu
    study.close()
    results = json.loads(study.manifest_path.read_text())["results"]
    return Call(wall, cpu, results["pages_checked"], results["aggregate_sha256"])


def _traced_call(spec: StudySpec, config, cache: Path, tracer: Tracer) -> Call:
    tracer.reset()
    with tracer.installed(STUDY_LAYERS):
        with tracer.span("bench.run_study"):
            call = _run_study(config, cache, workers=spec.workers,
                              incremental=spec.incremental)
    root = next(span for span in tracer.spans if span[3] == "bench.run_study")
    call.wall_s = (root[5] - root[4]) / 1e9
    call.layers = _layer_metrics(spec, tracer, root[5] - root[4])
    return call


#: probe seconds per CPU before every set-up and every run_study call
PROBE_S = 0.04

#: spans whose time a per-layer busy metric reports
_REPORTED = frozenset({
    "pipeline.metadata", "pipeline.crawler", "html.encoding",
    "core.checker.parse", "core.rules", "core.features",
    "pipeline.storage.write", "pipeline.storage.commit",
    "incremental.content_index.lookup", "incremental.content_index.stage",
    "incremental.content_index.commit", "pipeline.checker_stage.content_key",
    "incremental.manifest.digest", "pipeline.parallel.parent_wait",
})


def _layer_metrics(spec: StudySpec, tracer: Tracer, wall_ns: int) -> dict:
    """Per-layer numbers of one traced call (bench process + pool workers)."""
    main = tracer.totals()
    spans, counters = tracer.collect_workers()
    for name, (calls, ns) in main.items():
        entry = spans.setdefault(name, [0, 0])
        entry[0] += calls
        entry[1] += ns
    counters.update(tracer.counters)

    def busy(name: str) -> float:
        return spans.get(name, [0, 0])[1] / 1e9

    def calls(name: str) -> int:
        return spans.get(name, [0, 0])[0]

    lookups = calls("incremental.content_index.lookup")
    out = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    out.update({
        "pipeline.metadata.busy_s": busy("pipeline.metadata"),
        "pipeline.crawler.busy_s": busy("pipeline.crawler"),
        "pipeline.crawler.failed": counters["crawler.failed"],
        "pipeline.crawler.payload_mb": counters["crawler.payload_bytes"] / 1e6,
        "html.encoding.busy_s": busy("html.encoding"),
        "core.checker.parse_s": busy("core.checker.parse"),
        "core.checker.parse_calls": calls("core.checker.parse"),
        "core.checker.non_utf8": counters["checker.non_utf8"],
        "core.rules.busy_s": busy("core.rules"),
        "core.rules.findings": counters["rules.findings"],
        "core.features.busy_s": busy("core.features"),
        "pipeline.storage.write_s": busy("pipeline.storage.write"),
        "pipeline.storage.rows": counters["storage.rows"],
        "pipeline.storage.commit_s": busy("pipeline.storage.commit"),
        "incremental.content_index.lookup_s":
            busy("incremental.content_index.lookup"),
        "incremental.content_index.lookups": lookups,
        "incremental.content_index.hit_ratio":
            counters["content_index.hits"] / lookups if lookups else 0.0,
        "incremental.content_index.stage_s":
            busy("incremental.content_index.stage"),
        "incremental.content_index.commit_s":
            busy("incremental.content_index.commit"),
        "pipeline.checker_stage.content_key_s":
            busy("pipeline.checker_stage.content_key"),
        "incremental.manifest.digest_s": busy("incremental.manifest.digest"),
    })
    if spec.workers > 1:
        worker_busy = busy("pipeline.parallel.worker_task")
        runner_s = main["pipeline.runner"][1] / 1e9
        out.update({
            "pipeline.parallel.worker_busy_s": worker_busy,
            "pipeline.parallel.worker_util":
                worker_busy / (spec.workers * runner_s),
            "pipeline.parallel.parent_wait_s":
                busy("pipeline.parallel.parent_wait"),
            "pipeline.parallel.parent_store_s":
                main.get("pipeline.store_domain", [0, 0])[1] / 1e9,
            "pipeline.parallel.result_kb":
                counters["parallel.result_bytes"] / 1024,
        })
    # reconcile the bench process's wall: the layers above plus the
    # runner's own time should cover it; what they leave over is the self
    # time of wrapped calls no metric reports (check_page's own glue)
    self_ns = exclusive_ns(tracer.spans)
    runner_ns = self_ns.get("pipeline.runner", 0) + self_ns["bench.run_study"]
    reported = _REPORTED | ({"pipeline.store_domain"} if spec.workers > 1 else set())
    covered = runner_ns + sum(self_ns.get(name, 0) for name in reported)
    out["pipeline.runner.self_s"] = runner_ns / 1e9
    out["trace.unaccounted_frac"] = (wall_ns - covered) / wall_ns
    return out


def run(spec: StudySpec, seed: int, seconds: float, *, trace: bool,
        setups: int, expected: dict, work: Path) -> RunResult:
    problems: list[str] = []
    notes: list[str] = []
    pinned = expected.get("corpora", {})

    # one corpus per set-up; each set-up is timed on its own and adjusted
    # by the probes on either side of it
    corpora: list[tuple[object, Path]] = []
    archives: list[Path] = []
    setup_raw: list[float] = []
    setup_s: list[float] = []
    before = speed.now(PROBE_S)
    for corpus in range(setups):
        config = spec.config(seed, corpus)
        cache = work / f"corpus-{corpus}"
        started = time.perf_counter()
        archives.append(build_archive(config, cache))
        setup_raw.append(time.perf_counter() - started)
        after = speed.now(PROBE_S)
        setup_s.append(setup_raw[-1] * speed.between(before, after))
        before = after
        corpora.append((config, cache))
    for (config, _cache), archive in zip(corpora, archives):
        entry = pinned.get(config.key())
        if entry is not None and entry["inputs"] != input_digests(archive):
            problems.append(f"inputs of {config.key()} differ from expected.json")

    proc.reset_peak_rss()
    tracer = Tracer(work / "trace") if trace else None
    if tracer is not None:
        tracer.trace_dir.mkdir(parents=True, exist_ok=True)
    calls: list[Call] = []
    machine = Speed()
    started = time.perf_counter()
    # whole cycles over the corpora; a traced run alternates untraced and
    # traced cycles and needs one of each
    while (time.perf_counter() - started < seconds
           or len(calls) % setups
           or len(calls) < (2 if trace else 1) * setups):
        machine.sample(PROBE_S)
        cycle, corpus = divmod(len(calls), setups)
        config, cache = corpora[corpus]
        if tracer is not None and cycle % 2 == 1:
            call = _traced_call(spec, config, cache, tracer)
        else:
            call = _run_study(config, cache, workers=spec.workers,
                              incremental=spec.incremental)
        call.corpus = corpus
        calls.append(call)
    peak_rss = max(proc.peak_rss_mb(), proc.reaped_children_peak_rss_mb())

    # the other runner over the same archive checks seeds expected.json
    # does not pin: sequential vs parallel, the full path for incremental
    reference_workers = 2 if spec.workers == 1 else 1
    for corpus, (config, cache) in enumerate(corpora):
        mine = [call for call in calls if call.corpus == corpus]
        digests = {call.aggregate_sha256 for call in mine}
        if len(digests) != 1 or len({call.pages for call in mine}) != 1:
            problems.append(f"{config.key()}: run_study calls disagree")
        digest = mine[0].aggregate_sha256
        entry = pinned.get(config.key())
        if entry is not None:
            want, source = entry["aggregate_sha256"], "expected.json"
        else:
            want = _run_study(config, cache, workers=reference_workers,
                              incremental=False).aggregate_sha256
            source = f"the {reference_workers}-worker full path"
        if digest != want:
            problems.append(f"{config.key()}: aggregate_sha256 {digest} !="
                            f" {want} from {source}")
    notes.append("oracle: " + ("expected.json" if all(
        pinned.get(config.key()) for config, _cache in corpora)
        else f"{reference_workers}-worker full-path runs"))

    untraced = [call for call in calls if call.layers is None]
    traced = [call for call in calls if call.layers is not None]
    metrics: dict[str, float] = {}
    if trace:
        for name in PER_LAYER_NAMES:
            metrics[name] = sum(call.layers[name] for call in traced) / len(traced)
        metrics["trace.overhead_frac"] = (
            _wall_per_page(traced) / _wall_per_page(untraced) - 1
        )
        tracer.write_spans(tracer.trace_dir / "trace.ndjson")
        notes.append(f"trace: {len(traced)} traced, {len(untraced)} untraced"
                     " calls")
    else:
        # the calls cover every corpus equally often, so the sums are one
        # study's worth of work, timed across the whole measured phase;
        # the machine's speed over the same phase is divided out
        pages = sum(call.pages for call in untraced)
        wall = sum(call.wall_s for call in untraced)
        cpu = sum(call.cpu_s for call in untraced)
        throughput = pages / wall / machine.fraction
        metrics.update({
            "throughput_per_s": throughput,
            "cpu_ms_per_item": cpu * 1e3 / pages * machine.fraction,
            # a study call is a batch: no page is answered before the call
            # returns, so its only latency is wall per page, 1000 /
            # throughput.  Both latency metrics carry it, and compare
            # gives them no verdict of their own
            "p50_ms": 1e3 / throughput,
            "p90_ms": 1e3 / throughput,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss,
        })
        notes.append(
            f"machine at {machine.fraction:.0%} of reference speed;"
            f" unadjusted {pages / wall:.1f} pages/s,"
            f" {cpu * 1e3 / pages:.4f} ms CPU per page, set-up"
            f" {statistics.median(setup_raw):.3f} s"
        )
    notes.append(f"{len(calls)} run_study calls over {setups} corpora of"
                 f" {', '.join(str(calls[c].pages) for c in range(setups))}"
                 " pages")
    return RunResult(
        workload=spec.name, seed=seed, trace=trace,
        attempted=sum(call.pages for call in calls), failed=0,
        metrics=metrics, problems=problems, notes=notes,
    )


def _wall_per_page(calls: list[Call]) -> float:
    return sum(call.wall_s for call in calls) / sum(call.pages for call in calls)
