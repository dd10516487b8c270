"""The study orchestrator: runs the full Figure 6 pipeline.

For every snapshot and every study domain: collect CDX metadata (stage 1),
fetch the documents (stage 2), filter + check them (stage 3), and store
results (stage 4).  Deterministic, but not resumable: the store commits
once per snapshot, and a second :meth:`StudyRunner.run` into the same
:class:`Storage` adds every row again (pages carry no uniqueness key and
committed snapshots are not skipped).  ``run_study`` therefore deletes
an unfinished results database and starts over (ROADMAP item 3(a)).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..commoncrawl import CommonCrawlClient
from ..core import Checker
from .checker_stage import check_page
from .crawler import CrawlStats, fetch_pages
from .metadata import collect_metadata
from .storage import Storage

if TYPE_CHECKING:  # runtime imports stay lazy: pipeline → incremental is
    # a one-way street (repro.incremental imports this package)
    from ..incremental.content_index import ContentIndex
    from ..incremental.dedup import DedupConfig, DedupCounters


@dataclass(slots=True)
class RunStats:
    """Progress counters for one study run."""

    snapshots: int = 0
    domains_processed: int = 0
    pages_fetched: int = 0
    pages_checked: int = 0
    pages_filtered_non_utf8: int = 0
    fetch_failures: int = 0
    seconds: float = 0.0
    per_snapshot: dict[str, int] = field(default_factory=dict)
    #: dedup accounting when the incremental path ran; None otherwise
    dedup: "DedupCounters | None" = None

    @property
    def pages_per_second(self) -> float:
        return self.pages_checked / self.seconds if self.seconds else 0.0


class StudyRunner:
    """Run the longitudinal violation study over an archive.

    ``max_pages`` is the per-domain page cap (the paper used 100; scale it
    down with the corpus).  ``progress`` is an optional callback
    ``(snapshot_name, domains_done, domains_total)``.

    With ``dedup`` set, the run goes through the incremental ingest path
    (:mod:`repro.incremental.dedup`): each page is resolved against
    ``content_index`` (an in-memory index is created when none is given),
    carried pages skip parse+check, fresh outcomes are staged in store
    order and committed at snapshot boundaries, and
    ``progress_dedup``/``stats.dedup`` expose the live counters.
    """

    def __init__(
        self,
        client: CommonCrawlClient,
        storage: Storage,
        *,
        checker: Checker | None = None,
        max_pages: int = 100,
        measure_mitigations: bool = True,
        fetch_retries: int = 2,
        progress: Callable[[str, int, int], None] | None = None,
        dedup: "DedupConfig | None" = None,
        content_index: "ContentIndex | None" = None,
        progress_dedup: Callable[[str, int, int, "DedupCounters"], None] | None = None,
    ) -> None:
        self.client = client
        self.storage = storage
        self.checker = checker or Checker()
        self.max_pages = max_pages
        self.measure_mitigations = measure_mitigations
        self.fetch_retries = fetch_retries
        self.progress = progress
        self.dedup = dedup
        self.content_index = content_index
        self.progress_dedup = progress_dedup
        #: per-stage seconds for the run manifest; incremental runs only
        self.stage_seconds: dict[str, float] = {}

    def run(
        self,
        domains: list[tuple[str, float]],
        *,
        snapshot_ids: list[str] | None = None,
    ) -> RunStats:
        """Process ``domains`` (name, avg_rank) over the given snapshots."""
        stats = RunStats()
        started = time.monotonic()
        collections = self.client.collections()
        if snapshot_ids is not None:
            collections = [c for c in collections if c.id in snapshot_ids]
        domain_ids = {
            name: self.storage.add_domain(name, rank) for name, rank in domains
        }
        if self.dedup is not None:
            self._run_incremental(collections, domains, domain_ids, stats)
            stats.seconds = time.monotonic() - started
            return stats
        for collection in collections:
            snapshot_row_id = self.storage.add_snapshot(
                collection.id, collection.year
            )
            for index, (name, _rank) in enumerate(domains):
                self._process_domain(
                    collection.id, snapshot_row_id, name, domain_ids[name], stats
                )
                if self.progress is not None:
                    self.progress(collection.id, index + 1, len(domains))
            self.storage.commit()
            stats.snapshots += 1
        stats.seconds = time.monotonic() - started
        return stats

    def _run_incremental(
        self,
        collections: list,
        domains: list[tuple[str, float]],
        domain_ids: dict[str, int],
        stats: RunStats,
    ) -> None:
        """The dedup ingest path, sequentially.

        Identical store order and write batching as the incremental
        parallel path (``store_domain_result``), so sequential and
        parallel incremental runs are bit-identical end to end.
        """
        from ..incremental.content_index import ContentIndex
        from ..incremental.dedup import (
            DedupCounters,
            dedup_meta,
            process_domain_incremental,
        )
        from .parallel import store_domain_result

        index = self.content_index
        if index is None:
            index = ContentIndex(
                ":memory:",
                meta=dedup_meta(measure_mitigations=self.measure_mitigations),
            )
        counters = DedupCounters()
        stats.dedup = counters
        self.stage_seconds = {
            "index": 0.0, "fetch": 0.0, "check": 0.0, "store": 0.0,
        }
        for collection in collections:
            snapshot_row_id = self.storage.add_snapshot(
                collection.id, collection.year
            )
            for position, (name, _rank) in enumerate(domains):
                result = process_domain_incremental(
                    self.client, self.checker, index, self.dedup,
                    collection.id, name, self.max_pages,
                    fetch_retries=self.fetch_retries,
                    measure_mitigations=self.measure_mitigations,
                )
                for stage, seconds in result.timings.items():
                    self.stage_seconds[stage] += seconds
                store_started = time.perf_counter()
                store_domain_result(
                    self.storage, result, snapshot_row_id, domain_ids[name],
                    stats, index=index, counters=counters,
                )
                self.stage_seconds["store"] += (
                    time.perf_counter() - store_started
                )
                stats.pages_fetched += sum(
                    1 for page in result.pages if page.carry_tier != "cdx"
                )
                analyzed = result.analyzed_pages
                stats.per_snapshot[collection.id] = (
                    stats.per_snapshot.get(collection.id, 0) + analyzed
                )
                if self.progress_dedup is not None:
                    self.progress_dedup(
                        collection.id, position + 1, len(domains), counters
                    )
                elif self.progress is not None:
                    self.progress(collection.id, position + 1, len(domains))
            self.storage.commit()
            index.commit_snapshot()
            stats.snapshots += 1

    def _process_domain(
        self,
        snapshot_id: str,
        snapshot_row_id: int,
        domain: str,
        domain_row_id: int,
        stats: RunStats,
    ) -> None:
        metadata = collect_metadata(
            self.client, snapshot_id, domain, max_pages=self.max_pages
        )
        stats.domains_processed += 1
        if not metadata.found:
            self.storage.set_domain_status(
                snapshot_row_id, domain_row_id, found=False, analyzed=False, pages=0
            )
            return
        crawl_stats = CrawlStats()
        analyzed_pages = 0
        for page in fetch_pages(
            self.client, metadata, stats=crawl_stats,
            retries=self.fetch_retries,
        ):
            stats.pages_fetched += 1
            checked = check_page(
                page, self.checker,
                measure_mitigation_signals=self.measure_mitigations,
            )
            page_row_id = self.storage.add_page(
                snapshot_row_id, domain_row_id, page.url,
                utf8=checked.utf8, checked=checked.report is not None,
                declared_encoding=checked.declared_encoding,
            )
            if checked.report is None:
                stats.pages_filtered_non_utf8 += 1
                continue
            analyzed_pages += 1
            stats.pages_checked += 1
            counts = checked.report.counts
            if counts:
                self.storage.add_findings(page_row_id, dict(counts))
            if checked.features is not None and (
                checked.features.uses_math or checked.features.uses_svg
            ):
                self.storage.add_page_features(
                    page_row_id,
                    math_elements=checked.features.math_elements,
                    svg_elements=checked.features.svg_elements,
                )
            if checked.mitigation is not None:
                mitigation = checked.mitigation
                if (
                    mitigation.script_in_attr
                    or mitigation.urls_with_newline
                    or mitigation.urls_with_newline_and_lt
                ):
                    self.storage.add_mitigations(
                        page_row_id,
                        script_in_attr=len(mitigation.script_in_attr),
                        nonced=sum(
                            1
                            for hit in mitigation.script_in_attr
                            if hit.is_nonced_script
                        ),
                        urls_nl=mitigation.urls_with_newline,
                        urls_nl_lt=mitigation.urls_with_newline_and_lt,
                    )
        stats.fetch_failures += crawl_stats.failed
        stats.per_snapshot[snapshot_id] = (
            stats.per_snapshot.get(snapshot_id, 0) + analyzed_pages
        )
        self.storage.set_domain_status(
            snapshot_row_id,
            domain_row_id,
            found=True,
            analyzed=analyzed_pages > 0,
            pages=analyzed_pages,
        )
