"""Shared study-run engine + manifest replay.

:func:`execute_study_run` is the one place a study run actually happens:
it wires the archive, the results store, the (optional) content index
and the right runner together, and emits the ``repro-manifest/1``
record.  ``repro-study run`` and ``repro-study replay`` both go through
it, which is what makes replay an honest re-execution rather than a
parallel implementation that could drift.

Replay contract: re-execute with the manifest's recorded configuration
against digest-verified inputs, then require the canonical aggregate
dump (provenance-excluded) to be byte-identical to the recorded digest.
When the original run started from a fresh content index
(``run.index_fresh``), the provenance column is itself deterministic and
the *full* dump digest must match too.  A pre-warmed index makes
provenance reference snapshots outside the run, so only the aggregate
digest is asserted there — the analyses read nothing else.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..commoncrawl import CommonCrawlClient
from ..pipeline import ParallelStudyRunner, Storage, StudyRunner
from .content_index import ContentIndex
from .dedup import DedupConfig, dedup_meta
from .manifest import (
    MANIFEST_SCHEMA,
    archive_digests,
    code_version,
    load_manifest,
    registry_hash,
    write_manifest,
)

__all__ = ["ReplayReport", "execute_study_run", "replay_manifest"]


def execute_study_run(
    *,
    archive_root: str | Path,
    db_path: str | Path,
    domains: list[tuple[str, float]],
    max_pages: int,
    workers: int = 1,
    seed: int = 0,
    snapshot_ids: list[str] | None = None,
    measure_mitigations: bool = True,
    fetch_retries: int = 2,
    dedup: DedupConfig | None = None,
    index_path: str | Path | None = None,
    manifest_path: str | Path | None = None,
    on_stale: str = "error",
    progress=None,
    progress_dedup=None,
):
    """Run one study; return ``(manifest, stats)``.

    ``seed`` is the single run seed: the one the corpus/archive was
    generated under, recorded so replay (and any downstream fuzz or
    benchmark harness) can regenerate the exact inputs.  ``dedup``
    switches on the incremental path; ``index_path`` persists the
    content index across runs (required when ``workers > 1`` so worker
    processes can open it read-only; an in-memory index is used when
    omitted on sequential runs).
    """
    archive_root = str(archive_root)
    catalog_client = CommonCrawlClient(archive_root)
    collections = catalog_client.collections()
    catalog_client.close()
    if snapshot_ids is not None:
        wanted = set(snapshot_ids)
        collections = [c for c in collections if c.id in wanted]
    run_snapshot_ids = [c.id for c in collections]

    index: ContentIndex | None = None
    index_fresh = True
    if dedup is not None:
        meta = dedup_meta(measure_mitigations=measure_mitigations)
        if index_path is None:
            if workers > 1:
                raise ValueError(
                    "parallel incremental run needs index_path (workers"
                    " open the content index read-only)"
                )
            index = ContentIndex(":memory:", meta=meta, on_stale=on_stale)
        else:
            index = ContentIndex(str(index_path), meta=meta, on_stale=on_stale)
        index_fresh = index.entry_count() == 0

    storage = Storage(db_path)
    started = time.monotonic()
    try:
        if workers > 1:
            runner = ParallelStudyRunner(
                archive_root,
                storage,
                max_pages=max_pages,
                workers=workers,
                fetch_retries=fetch_retries,
                measure_mitigations=measure_mitigations,
                progress=progress,
                dedup=dedup,
                content_index=index,
                progress_dedup=progress_dedup,
            )
            stats = runner.run(domains, snapshot_ids=run_snapshot_ids)
        else:
            client = CommonCrawlClient(archive_root)
            try:
                runner = StudyRunner(
                    client,
                    storage,
                    max_pages=max_pages,
                    fetch_retries=fetch_retries,
                    measure_mitigations=measure_mitigations,
                    progress=progress,
                    dedup=dedup,
                    content_index=index,
                    progress_dedup=progress_dedup,
                )
                stats = runner.run(domains, snapshot_ids=run_snapshot_ids)
            finally:
                client.close()
        total_seconds = time.monotonic() - started
        timings = dict(runner.stage_seconds) or {}
        timings["total"] = total_seconds
        counters = getattr(stats, "dedup", None)
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "code_version": code_version(),
            "registry_hash": registry_hash(),
            "run": {
                "seed": seed,
                "domains": [[name, rank] for name, rank in domains],
                "max_pages": max_pages,
                "workers": workers,
                "snapshot_ids": run_snapshot_ids,
                "measure_mitigations": measure_mitigations,
                "fetch_retries": fetch_retries,
                "incremental": dedup is not None,
                "dedup": None if dedup is None else dedup.as_dict(),
                "index_fresh": index_fresh,
            },
            "archive": archive_digests(archive_root, run_snapshot_ids),
            "results": {
                "aggregate_sha256": storage.aggregate_sha256(
                    include_provenance=False
                ),
                "full_sha256": storage.aggregate_sha256(
                    include_provenance=True
                ),
                "pages_checked": stats.pages_checked,
                "snapshots": stats.snapshots,
                "domains_processed": stats.domains_processed,
            },
            "timings": timings,
            "dedup_counters": None if counters is None else counters.as_dict(),
        }
        if manifest_path is not None:
            write_manifest(manifest, manifest_path)
    finally:
        storage.commit()
        storage.close()
        if index is not None:
            index.close()
    return manifest, stats


@dataclass(slots=True)
class ReplayReport:
    """Outcome of one manifest replay."""

    ok: bool
    #: human-readable mismatch descriptions, empty when ok
    mismatches: list[str] = field(default_factory=list)
    #: digests recomputed by the replay run
    replayed: dict = field(default_factory=dict)
    #: which digest comparisons ran ("aggregate" always, "full" when the
    #: original run started from a fresh content index)
    compared: list[str] = field(default_factory=list)


def _verify_archive(manifest: dict, mismatches: list[str]) -> None:
    recorded = manifest["archive"]
    root = Path(recorded["root"])
    if not root.is_dir():
        mismatches.append(f"archive root missing: {root}")
        return
    current = archive_digests(root, manifest["run"]["snapshot_ids"])
    if current["collinfo_sha256"] != recorded["collinfo_sha256"]:
        mismatches.append("collinfo.json digest changed since the run")
    for snapshot_id, digests in recorded["snapshots"].items():
        now = current["snapshots"].get(snapshot_id)
        if now is None:
            mismatches.append(f"snapshot {snapshot_id} missing from archive")
            continue
        if now["cdx_sha256"] != digests["cdx_sha256"]:
            mismatches.append(f"{snapshot_id}: CDX index digest changed")
        if now["warc_sha256"] != digests["warc_sha256"]:
            mismatches.append(f"{snapshot_id}: WARC file digests changed")


def replay_manifest(
    manifest: dict | str | Path,
    *,
    workdir: str | Path | None = None,
    workers: int | None = None,
) -> ReplayReport:
    """Re-execute a recorded run and compare result digests.

    ``workers`` may override the recorded worker count — bit-identity
    across worker counts is part of what replay proves.  Scratch files
    land in ``workdir`` (a temp directory by default).
    """
    if not isinstance(manifest, dict):
        manifest = load_manifest(manifest)
    mismatches: list[str] = []
    if manifest["registry_hash"] != registry_hash():
        mismatches.append(
            "rule-pack registry hash changed since the run (results are"
            " not expected to reproduce under different rules)"
        )
    _verify_archive(manifest, mismatches)
    if mismatches:
        return ReplayReport(ok=False, mismatches=mismatches)

    run = manifest["run"]
    replay_workers = run["workers"] if workers is None else workers
    dedup = None
    if run["incremental"]:
        dedup = DedupConfig(**run["dedup"])

    def _replay_in(scratch: Path) -> ReplayReport:
        replayed, _stats = execute_study_run(
            archive_root=manifest["archive"]["root"],
            db_path=scratch / "replay.sqlite",
            domains=[(name, rank) for name, rank in run["domains"]],
            max_pages=run["max_pages"],
            workers=replay_workers,
            seed=run["seed"],
            snapshot_ids=run["snapshot_ids"],
            measure_mitigations=run["measure_mitigations"],
            fetch_retries=run["fetch_retries"],
            dedup=dedup,
            index_path=(
                scratch / "replay-index.sqlite" if dedup is not None else None
            ),
        )
        compared = ["aggregate"]
        for key in ("aggregate_sha256",):
            if replayed["results"][key] != manifest["results"][key]:
                mismatches.append(
                    f"results.{key}: replay {replayed['results'][key]}"
                    f" != recorded {manifest['results'][key]}"
                )
        if run["index_fresh"]:
            compared.append("full")
            if (
                replayed["results"]["full_sha256"]
                != manifest["results"]["full_sha256"]
            ):
                mismatches.append(
                    "results.full_sha256: replay"
                    f" {replayed['results']['full_sha256']} != recorded"
                    f" {manifest['results']['full_sha256']}"
                )
        return ReplayReport(
            ok=not mismatches,
            mismatches=mismatches,
            replayed=replayed["results"],
            compared=compared,
        )

    if workdir is not None:
        return _replay_in(Path(workdir))
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as scratch:
        return _replay_in(Path(scratch))
