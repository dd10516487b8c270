"""Which public entry points a traced run wraps, and what each counts.

Layers are named after the modules they live in.  A function that other
modules import by name (``from .checker_stage import check_page``) is
wrapped where it is *looked up*, i.e. in every importing module;
methods are wrapped once on their class.
"""
from __future__ import annotations

import pickle

from .trace import Layer


def _fetched(tracer, _args, result, error, _ns) -> None:
    if error is not None:
        return
    if result is None:
        tracer.count("crawler.failed")
    else:
        tracer.count("crawler.payload_bytes", len(result.payload))


def _rows(tracer, _args, result, error, _ns) -> None:
    if error is None:
        # add_page returns one row id, add_pages the list of them
        tracer.count("storage.rows", 1 if isinstance(result, int) else len(result))


def _parsed(tracer, _args, _result, error, _ns) -> None:
    # the section 4.1 filter: checker_stage records such a page as non-UTF-8
    if isinstance(error, UnicodeDecodeError):
        tracer.count("checker.non_utf8")


def _checked(tracer, _args, result, error, _ns) -> None:
    if error is None:
        # check_parse returns the report, check_parse_with_mitigations a pair
        report = result[0] if isinstance(result, tuple) else result
        tracer.count("rules.findings", len(report.findings))


def _looked_up(tracer, _args, result, error, _ns) -> None:
    if error is None and result is not None:
        tracer.count("content_index.hits")


def _shipped(tracer, _args, result, error, _ns) -> None:
    if error is None:
        tracer.count("parallel.result_bytes", len(pickle.dumps(result)))


def _cache_get(tracer, _args, result, error, _ns) -> None:
    if error is None and result is not None:
        tracer.count("shared_cache.hits")


def _single(tracer, _args, result, error, ns) -> None:
    state = getattr(result, "cache_state", "")
    if error is None and state:
        tracer.count(f"app.{state}_n")
        tracer.count(f"app.{state}_ns", ns)


_BY_NAME = ("repro.pipeline.runner", "repro.pipeline.parallel",
            "repro.incremental.dedup")

_STORAGE = "repro.pipeline.storage:Storage"
_INDEX = "repro.incremental.content_index:ContentIndex"

STUDY_LAYERS: list[Layer] = [
    Layer("repro.pipeline.runner:StudyRunner", "run", "pipeline.runner"),
    Layer("repro.pipeline.parallel:ParallelStudyRunner", "run",
          "pipeline.runner"),
    *(Layer(module, "collect_metadata", "pipeline.metadata")
      for module in _BY_NAME),
    # fetch_pages reaches fetch_one through the crawler module's globals
    Layer("repro.pipeline.crawler", "fetch_one", "pipeline.crawler",
          observe=_fetched),
    Layer("repro.incremental.dedup", "fetch_one", "pipeline.crawler",
          observe=_fetched),
    *(Layer(module, "check_page", "pipeline.checker_stage")
      for module in _BY_NAME),
    Layer("repro.pipeline.checker_stage", "sniff_encoding", "html.encoding"),
    Layer("repro.core.checker:Checker", "parse_page_bytes",
          "core.checker.parse", observe=_parsed),
    Layer("repro.core.checker:Checker", "check_parse_with_mitigations",
          "core.rules", observe=_checked),
    Layer("repro.core.checker:Checker", "check_parse", "core.rules",
          observe=_checked),
    Layer("repro.pipeline.checker_stage", "measure_features",
          "core.features"),
    Layer("repro.incremental.dedup", "page_content_key",
          "pipeline.checker_stage.content_key"),
    *(Layer(_STORAGE, name, "pipeline.storage.write")
      for name in ("add_snapshot", "add_domain", "set_domain_status",
                   "add_findings", "add_findings_rows", "add_mitigations",
                   "add_mitigations_rows", "add_page_features",
                   "add_page_features_rows")),
    Layer(_STORAGE, "add_page", "pipeline.storage.write", observe=_rows),
    Layer(_STORAGE, "add_pages", "pipeline.storage.write", observe=_rows),
    Layer(_STORAGE, "commit", "pipeline.storage.commit"),
    *(Layer(_INDEX, name, "incremental.content_index.lookup",
            observe=_looked_up)
      for name in ("lookup_digest", "lookup_key", "lookup_near")),
    Layer(_INDEX, "stage", "incremental.content_index.stage"),
    Layer(_INDEX, "commit_snapshot", "incremental.content_index.commit"),
    # the parallel runner calls these through its module's globals; the
    # sequential incremental runner imports store_domain_result at call time
    Layer("repro.pipeline.parallel", "process_domain",
          "pipeline.parallel.worker_task", observe=_shipped, flush=True),
    Layer("repro.pipeline.parallel", "process_domain_dedup",
          "pipeline.parallel.worker_task", observe=_shipped, flush=True),
    Layer("repro.pipeline.parallel", "streamed_map",
          "pipeline.parallel.parent_wait", iterator=True),
    Layer("repro.pipeline.parallel", "store_domain_result",
          "pipeline.store_domain"),
    Layer("repro.incremental.replay", "archive_digests",
          "incremental.manifest.digest"),
    Layer(_STORAGE, "aggregate_sha256", "incremental.manifest.digest"),
]

SERVE_LAYERS: list[Layer] = [
    Layer("repro.service.app:ServiceApp", "handle", "service.app.handle"),
    Layer("repro.service.app:ServiceApp", "run_single",
          "service.app.run_single", observe=_single),
    Layer("repro.service.shared_cache:SharedResultCache", "get",
          "service.shared_cache.get", observe=_cache_get),
    Layer("repro.service.shared_cache:SharedResultCache", "put",
          "service.shared_cache.put"),
    # ServiceApp looks run_check up on the workers module per request and
    # the pool pickles it by that name, so forked workers run the wrapper
    Layer("repro.service.workers", "run_check", "service.workers.run_check",
          flush=True),
]
