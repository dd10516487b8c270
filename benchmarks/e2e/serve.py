"""The serve-mix workload: ``repro-study serve`` under open-loop traffic.

The server is a subprocess started exactly as a user would start it
(``python -m repro.cli serve --port 0 --workers 1 --shared-cache
--no-access-log``).  The load comes from this process: an asyncio client
over ``connections`` keep-alive connections, fed by a seeded Poisson
schedule.  It is an *open* loop — requests are offered at their
scheduled instants however the server is doing, and each latency is
timed from the scheduled instant, so a stall is charged to every request
queued behind it.

Phase A offers ``rate_a`` (below the knee) for ``share_a`` of
``--seconds``: latency and server CPU per request.  Phase B offers
``rate_b`` (past the knee) for the rest: completions per second inside
the phase window.  Past the knee the client's queue is capped at
``queue_cap``; requests beyond it are shed, counted, and neither sent
nor failed.

Each request carries one of ``popular`` documents with ``p_popular``,
otherwise a document never sent before, so hits (cache path) and misses
(worker parse + rules) mix in a fixed ratio.  The mix is synthetic; the
ratio is the share of pages the incremental study carries forward
(``workloads.P_POPULAR``).  Every response body is
compared byte for byte (by sha256) with what the inline service —
``ServiceApp(executor=None)`` — answers for the same document.
"""
from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.commoncrawl.templates import INJECTORS, build_page
from repro.service.app import ServiceApp, ServiceConfig, post

from . import proc, speed
from .metrics import PER_LAYER_NAMES, RunResult
from .oracle import documents_sha256
from .stats import percentile
from .trace import Tracer
from .workloads import ROOT, ServeSpec

SERVER_ARGS = ("--host", "127.0.0.1", "--port", "0", "--workers", "1",
               "--shared-cache", "--no-access-log")
#: probe seconds per CPU before every set-up and every round
PROBE_S = 0.1


# ------------------------------------------------------------------ inputs


def document(seed: int, kind: str, index: int) -> bytes:
    """A template page plus 0-3 injected violations, a pure function."""
    rng = random.Random(f"e2e-serve:{seed}:{kind}:{index}")
    draft = build_page(f"{kind}{index}.example", f"/{kind}/{index}", rng)
    names = rng.sample(sorted(INJECTORS), rng.randint(0, 3))
    # injectors that swallow the rest of the document go last
    names.sort(key=lambda name: INJECTORS[name].terminal)
    for name in names:
        INJECTORS[name].apply(draft, rng)
    return draft.render().encode("utf-8")


def schedule(spec: ServeSpec, seed: int, phase: str, rate: float,
             duration: float, first_fresh: int) -> list[tuple[float, int]]:
    """Poisson arrivals ``[(offset_s, doc_id)]`` for one phase.

    ``doc_id < spec.popular`` names a popular document; larger ids are
    fresh documents numbered from ``first_fresh``.
    """
    rng = random.Random(f"e2e-serve:{seed}:schedule:{phase}:{rate}:{duration}")
    arrivals = []
    offset = 0.0
    fresh = first_fresh
    while True:
        offset += rng.expovariate(rate)
        if offset >= duration:
            return arrivals
        if rng.random() < spec.p_popular:
            arrivals.append((offset, rng.randrange(spec.popular)))
        else:
            arrivals.append((offset, spec.popular + fresh))
            fresh += 1


def doc_bytes(spec: ServeSpec, seed: int, doc_id: int) -> bytes:
    if doc_id < spec.popular:
        return document(seed, "popular", doc_id)
    return document(seed, "fresh", doc_id - spec.popular)


def input_digests(spec: ServeSpec, docs: dict[int, bytes]) -> dict:
    """Digests of every popular and every fresh document a run sends."""
    fresh = sorted(doc for doc in docs if doc >= spec.popular)
    return {
        "popular_sha256": documents_sha256(
            [docs[doc] for doc in range(spec.popular)]),
        "fresh_sha256": documents_sha256([docs[doc] for doc in fresh]),
        "fresh_documents": len(fresh),
    }


def inline_digest(app: ServiceApp, body: bytes) -> bytes:
    """sha256 of the body the in-process service answers for ``body``."""
    return hashlib.sha256(app.handle_sync(post("/check", body)).body).digest()


# ------------------------------------------------------------------ server


class Server:
    """One ``repro-study serve`` subprocess on an ephemeral port."""

    def __init__(self, work: Path, label: str, trace_dir: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # the shared cache segment is a temp file: keep it in the work dir
        env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *SERVER_ARGS]
        else:
            cmd = [sys.executable, "-m", "benchmarks.e2e.traced_serve",
                   str(trace_dir), *SERVER_ARGS]
        self.log = open(work / f"server-{label}.log", "w")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=env, cwd=ROOT,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}"
                               f" (log: {self.log.name})")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ------------------------------------------------------------------ client


@dataclass(slots=True)
class Reply:
    doc: int
    #: 0 for a transport error or timeout
    status: int
    digest: bytes
    due: float
    done: float


@dataclass(slots=True)
class Phase:
    replies: list[Reply] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    shed: int = 0
    epoch: float = 0.0
    duration: float = 0.0


def _frame(body: bytes) -> bytes:
    return (b"POST /check HTTP/1.1\r\nhost: e2e\r\ncontent-length: %d\r\n\r\n"
            % len(body)) + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, dict, bytes]:
    status_line = await reader.readline()
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise EOFError(f"bad status line {status_line!r}")
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise EOFError("connection closed inside headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return int(parts[1]), headers, body


async def _close(writer: asyncio.StreamWriter | None) -> None:
    if writer is not None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def _connection(port: int, queue: asyncio.Queue, docs: dict[int, bytes],
                      phase: Phase, timeout: float) -> None:
    loop = asyncio.get_running_loop()
    reader = writer = None
    try:
        while (item := await queue.get()) is not None:
            due, doc = item
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                writer.write(_frame(docs[doc]))
                await writer.drain()
                status, headers, body = await asyncio.wait_for(
                    _read_response(reader), timeout)
            except (OSError, EOFError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                phase.replies.append(Reply(doc, 0, b"", due, loop.time()))
                await _close(writer)
                reader = writer = None
                continue
            phase.replies.append(Reply(
                doc, status, hashlib.sha256(body).digest(), due, loop.time()))
            if headers.get("connection") == "close":
                await _close(writer)
                reader = writer = None
    finally:
        await _close(writer)


async def offer(spec: ServeSpec, port: int, arrivals: list[tuple[float, int]],
                docs: dict[int, bytes], duration: float) -> Phase:
    """Offer one phase's schedule open-loop and wait for every reply."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    phase = Phase(duration=duration)
    workers = [
        asyncio.create_task(_connection(port, queue, docs, phase, spec.timeout_s))
        for _ in range(spec.connections)
    ]
    phase.epoch = loop.time()
    for offset, doc in arrivals:
        due = phase.epoch + offset
        # always yield, so the connections run even when the schedule is late
        await asyncio.sleep(max(0.0, due - loop.time()))
        phase.lags_ms.append((loop.time() - due) * 1e3)
        if queue.qsize() >= spec.queue_cap:
            phase.shed += 1
            continue
        queue.put_nowait((due, doc))
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    return phase


async def warm(port: int, docs: list[bytes], expected: list[bytes]) -> list[str]:
    """Send each popular document once; returns mismatch descriptions."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    problems = []
    try:
        for index, body in enumerate(docs):
            writer.write(_frame(body))
            await writer.drain()
            status, _headers, reply = await _read_response(reader)
            if status != 200 or hashlib.sha256(reply).digest() != expected[index]:
                problems.append(f"warm-up reply {index} differs from inline")
    finally:
        await _close(writer)
    return problems


async def scrape_metrics(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(b"GET /metrics HTTP/1.1\r\nhost: e2e\r\n"
                     b"connection: close\r\n\r\n")
        await writer.drain()
        _status, _headers, body = await _read_response(reader)
        return json.loads(body)
    finally:
        await _close(writer)


# -------------------------------------------------------------------- run


@dataclass(slots=True)
class _Inputs:
    docs: dict[int, bytes]
    #: (phase A arrivals, phase B arrivals) per round
    rounds: list[tuple[list[tuple[float, int]], list[tuple[float, int]]]]
    duration_a: float
    duration_b: float
    #: sha256 of the inline answer, filled for popular docs at set-up and
    #: for fresh docs once their replies are in
    expected: dict[int, bytes] = field(default_factory=dict)


def plan(spec: ServeSpec, seed: int, seconds: float) -> _Inputs:
    """The schedule of a run of ``seconds`` and every document it sends."""
    duration_a = seconds * spec.share_a / spec.rounds
    duration_b = seconds * (1 - spec.share_a) / spec.rounds
    rounds = []
    fresh = 0
    for index in range(spec.rounds):
        pair = []
        for phase, rate, duration in (("A", spec.rate_a, duration_a),
                                      ("B", spec.rate_b, duration_b)):
            arrivals = schedule(spec, seed, f"{phase}{index}", rate, duration,
                                fresh)
            fresh += sum(1 for _offset, doc in arrivals if doc >= spec.popular)
            pair.append(arrivals)
        rounds.append(tuple(pair))
    ids = set(range(spec.popular))
    for arrivals_a, arrivals_b in rounds:
        ids.update(doc for _offset, doc in arrivals_a + arrivals_b)
    docs = {doc: doc_bytes(spec, seed, doc) for doc in sorted(ids)}
    return _Inputs(docs, rounds, duration_a, duration_b)


def _start_warm(work: Path, label: str, inputs: _Inputs, spec: ServeSpec,
                trace_dir: Path | None = None) -> tuple[Server, list[str]]:
    server = Server(work, label, trace_dir)
    popular = [inputs.docs[doc] for doc in range(spec.popular)]
    expected = [inputs.expected[doc] for doc in range(spec.popular)]
    try:
        problems = asyncio.run(warm(server.port, popular, expected))
    except BaseException:
        server.stop()
        raise
    return server, problems


@dataclass(slots=True)
class _Round:
    """One fixed-rate phase and one saturation phase, back to back."""

    a: Phase
    #: server + worker CPU seconds phase A cost
    cpu_a: float
    b: Phase | None = None

    def ok_a(self) -> list[Reply]:
        return [reply for reply in self.a.replies if reply.status == 200]

    def cpu_ms_per_request(self) -> float:
        return self.cpu_a * 1e3 / len(self.ok_a())

    def latencies_ms(self) -> list[float]:
        return [(reply.done - reply.due) * 1e3 for reply in self.ok_a()]

    def saturated_rps(self) -> float:
        end = self.b.epoch + self.b.duration
        done = sum(1 for r in self.b.replies if r.status == 200 and r.done <= end)
        return done / self.b.duration


def _round(spec: ServeSpec, server: Server, inputs: _Inputs, index: int,
           *, saturate: bool = True) -> _Round:
    arrivals_a, arrivals_b = inputs.rounds[index]
    cpu = proc.tree_cpu_s(server.pid)
    phase_a = asyncio.run(offer(spec, server.port, arrivals_a, inputs.docs,
                                inputs.duration_a))
    measured = _Round(phase_a, proc.tree_cpu_s(server.pid) - cpu)
    if saturate:
        measured.b = asyncio.run(offer(spec, server.port, arrivals_b,
                                       inputs.docs, inputs.duration_b))
    return measured


def _verify(inputs: _Inputs, phases: list[Phase],
            app: ServiceApp) -> tuple[int, int, list[str]]:
    """(attempted, failed, mismatches) over every measured reply."""
    attempted = failed = 0
    mismatches = 0
    for phase in phases:
        for reply in phase.replies:
            attempted += 1
            if reply.status != 200:
                failed += 1
                continue
            expected = inputs.expected.get(reply.doc)
            if expected is None:
                expected = inputs.expected[reply.doc] = inline_digest(
                    app, inputs.docs[reply.doc])
            if reply.digest != expected:
                mismatches += 1
    problems = []
    if mismatches:
        problems.append(f"{mismatches} response bodies differ from the inline"
                        " service")
    return attempted, failed, problems


def run(spec: ServeSpec, seed: int, seconds: float, *, trace: bool,
        setups: int, expected: dict, work: Path) -> RunResult:
    problems: list[str] = []
    notes: list[str] = []
    app = ServiceApp(ServiceConfig(cache_size=0), executor=None)
    inputs = plan(spec, seed, seconds)
    inputs.expected = {doc: inline_digest(app, inputs.docs[doc])
                       for doc in range(spec.popular)}
    pinned = expected.get("serve", {}).get(spec.key(seed, seconds))
    if pinned is not None and pinned != input_digests(spec, inputs.docs):
        problems.append("serve documents differ from expected.json")

    # each set-up is adjusted by the probes on either side of it
    setup_raw: list[float] = []
    setup_s: list[float] = []
    server = None
    for index in range(setups):
        if server is not None:
            server.stop()
        before = speed.now(PROBE_S)
        started = time.perf_counter()
        server, warm_problems = _start_warm(work, f"setup-{index}", inputs, spec)
        setup_raw.append(time.perf_counter() - started)
        setup_s.append(setup_raw[-1] * speed.between(before,
                                                     speed.now(PROBE_S)))
        problems.extend(warm_problems)

    phases: list[Phase] = []
    try:
        if trace:
            # the untraced baseline for the tracing overhead: round 0's
            # fixed-rate phase, which the traced server then repeats
            baseline = _round(spec, server, inputs, 0, saturate=False)
            phases.append(baseline.a)
            server.stop()
            trace_dir = work / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            server, warm_problems = _start_warm(work, "traced", inputs, spec,
                                                trace_dir)
            problems.extend(warm_problems)
        else:
            for pid in proc.descendants(server.pid):
                proc.reset_peak_rss(pid)
        # the probe runs before every round and after the last one
        probes: list[float] = []
        rounds = []
        for index in range(spec.rounds):
            probes.append(speed.now(PROBE_S))
            rounds.append(_round(spec, server, inputs, index))
        probes.append(speed.now(PROBE_S))
        if trace:
            server_metrics = asyncio.run(scrape_metrics(server.port))
        else:
            peak_rss = max(proc.peak_rss_mb(pid)
                           for pid in proc.descendants(server.pid))
    finally:
        server.stop()
    for measured in rounds:
        phases += [measured.a, measured.b]

    attempted, failed, mismatches = _verify(inputs, phases, app)
    problems.extend(mismatches)
    if trace:
        metrics = _layer_metrics(
            trace_dir, server_metrics,
            lags_ms=[lag for phase in phases for lag in phase.lags_ms],
            shed=sum(measured.b.shed for measured in rounds),
            overhead=rounds[0].cpu_ms_per_request()
            / baseline.cpu_ms_per_request() - 1,
        )
    else:
        # each round's CPU-bound numbers are adjusted by the probes on
        # either side of it; p50 is a cache hit's round trip, which tracks
        # the probe poorly (across ten runs on a 2-vCPU VM it spread twice
        # as wide adjusted as unadjusted), so it is reported as measured.
        # Latencies come from the least-disturbed round: a host stall only
        # adds latency, inflating a round's percentiles several-fold for
        # seconds to minutes, while a change to the program moves every
        # round alike
        fractions = [speed.between(before, after)
                     for before, after in zip(probes, probes[1:])]
        machine = statistics.mean(probes)
        p50 = min(statistics.median(m.latencies_ms()) for m in rounds)
        p90 = [percentile(m.latencies_ms(), 0.9) for m in rounds]
        rps = [m.saturated_rps() for m in rounds]
        cpu = [m.cpu_ms_per_request() for m in rounds]
        metrics = {
            "throughput_per_s": statistics.mean(
                value / f for value, f in zip(rps, fractions)),
            "cpu_ms_per_item": statistics.mean(
                value * f for value, f in zip(cpu, fractions)),
            "p50_ms": p50,
            "p90_ms": min(p.value for p in p90) * machine,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss,
        }
        notes.append(f"p90_ms is the lowest of {', '.join(p.label() for p in p90)}"
                     " phase-A requests")
        notes.append(
            f"machine at {machine:.0%} of reference speed;"
            f" unadjusted {statistics.mean(rps):.1f}/s,"
            f" {statistics.mean(cpu):.4f} ms CPU per request, set-up"
            f" {statistics.median(setup_raw):.3f} s"
        )
    notes.append(
        f"{spec.rounds} rounds of phase A ({spec.rate_a:g}/s for"
        f" {inputs.duration_a:g} s) + phase B ({spec.rate_b:g}/s for"
        f" {inputs.duration_b:g} s); {attempted} requests sent,"
        f" {sum(m.b.shed for m in rounds)} shed"
    )
    return RunResult(
        workload=spec.name, seed=seed, trace=trace, attempted=attempted,
        failed=failed, metrics=metrics, problems=problems, notes=notes,
    )


def _layer_metrics(trace_dir: Path, server_metrics: dict, *,
                   lags_ms: list[float], shed: int,
                   overhead: float) -> dict[str, float]:
    server = json.loads((trace_dir / "server.json").read_text())
    spans = server["spans"]
    counters = server["counters"]
    worker_spans, _counters = Tracer(trace_dir).collect_workers()

    def mean_us(totals: dict, name: str) -> float:
        calls, ns = totals.get(name, [0, 0])
        return ns / calls / 1e3 if calls else 0.0

    def per(prefix: str) -> float:
        calls = counters.get(f"{prefix}_n", 0)
        return counters.get(f"{prefix}_ns", 0) / calls / 1e3 if calls else 0.0

    gets = spans.get("service.shared_cache.get", [0, 0])[0]
    get_us = mean_us(spans, "service.shared_cache.get")
    put_us = mean_us(spans, "service.shared_cache.put")
    run_check_us = mean_us(worker_spans, "service.workers.run_check")
    out = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    out.update({
        "service.app.handle_us_mean": mean_us(spans, "service.app.handle"),
        "service.app.hit_us_mean": per("app.hit"),
        "service.app.miss_us_mean": per("app.miss"),
        "service.app.roundtrip_us_mean":
            per("app.miss") - run_check_us - get_us - put_us,
        "service.app.rejects": server_metrics["rejected_overload"]
            + server_metrics["deadline_timeouts"],
        "service.shared_cache.get_us_mean": get_us,
        "service.shared_cache.put_us_mean": put_us,
        "service.shared_cache.hit_ratio":
            counters.get("shared_cache.hits", 0) / gets if gets else 0.0,
        "service.workers.run_check_us_mean": run_check_us,
        "loadgen.lag_ms_p99": percentile(lags_ms, 0.99).value,
        "loadgen.shed": shed,
        "trace.overhead_frac": overhead,
    })
    return out
