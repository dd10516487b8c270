"""Archive builder + client tests: layout, indexing, fetch round trips."""
from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.commoncrawl import (
    ArchiveBuilder,
    CommonCrawlClient,
    CorpusConfig,
    CorpusPlanner,
    snapshot_name,
)
from repro.commoncrawl import snapshot as snapshot_module
from repro.html import decode_bytes
from repro.study import StudyConfig, build_archive, run_study


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    root = tmp_path_factory.mktemp("archive")
    config = CorpusConfig(
        num_domains=40, max_pages=3, seed=21, years=(2015, 2022)
    )
    plan = CorpusPlanner(config).plan()
    built = ArchiveBuilder(root).build(plan)
    return root, plan, built


class TestLayout:
    def test_collinfo_lists_snapshots(self, archive):
        root, plan, built = archive
        collinfo = json.loads((root / "collinfo.json").read_text())
        assert [c["id"] for c in collinfo] == [
            snapshot_name(2015), snapshot_name(2022)
        ]

    def test_warc_parts_exist(self, archive):
        root, _plan, built = archive
        for snapshot in built:
            for part in snapshot.warc_parts:
                assert (root / part).exists()

    def test_cdx_indexes_exist(self, archive):
        root, _plan, built = archive
        for snapshot in built:
            assert (root / snapshot.cdx_path).exists()

    def test_ground_truth_saved(self, archive):
        root, plan, _built = archive
        truth = json.loads((root / "ground_truth.json").read_text())
        assert truth["num_domains"] == plan.config.num_domains
        assert set(truth["succeeded"]) == {"2015", "2022"}

    def test_record_count_matches_plan(self, archive):
        _root, plan, built = archive
        for snapshot in built:
            page_records = sum(
                len(plan.pages.get((domain, snapshot.year), ()))
                for domain in plan.succeeded[snapshot.year]
            )
            failed_domains = len(plan.present[snapshot.year]) - len(
                plan.succeeded[snapshot.year]
            )
            assert snapshot.records == (
                page_records + failed_domains + snapshot.revisits
            )

    def test_failed_domains_have_error_captures(self, archive):
        root, plan, _built = archive
        client = CommonCrawlClient(root)
        for snapshot in _built:
            failed = set(plan.present[snapshot.year]) - set(
                plan.succeeded[snapshot.year]
            )
            for domain in failed:
                entries = list(client.query(snapshot.name, domain))
                assert entries, "failed domains are still found on the index"
                assert all(entry.status == 503 for entry in entries)
                return  # one is enough
        pytest.skip("plan has no failed domains")


class TestClient:
    def test_rejects_non_archive_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CommonCrawlClient(tmp_path)

    def test_collections(self, archive):
        root, _plan, _built = archive
        client = CommonCrawlClient(root)
        assert [c.year for c in client.collections()] == [2015, 2022]

    def test_query_respects_limit_and_mime(self, archive):
        root, plan, _built = archive
        client = CommonCrawlClient(root)
        domain = plan.succeeded[2015][0]
        entries = list(client.query(snapshot_name(2015), domain, limit=2))
        assert len(entries) <= 2
        assert all(entry.mime == "text/html" for entry in entries)

    def test_query_unknown_domain_empty(self, archive):
        root, _plan, _built = archive
        client = CommonCrawlClient(root)
        assert list(client.query(snapshot_name(2015), "nope.example")) == []

    def test_fetch_roundtrip(self, archive):
        root, plan, _built = archive
        client = CommonCrawlClient(root)
        domain = plan.succeeded[2015][0]
        entry = next(client.query(snapshot_name(2015), domain))
        record = client.fetch(entry)
        assert record.target_uri == entry.url
        text = decode_bytes(record.payload)
        assert text is not None and text.startswith("<!DOCTYPE html>")

    def test_fetched_digest_matches_index(self, archive):
        root, plan, _built = archive
        client = CommonCrawlClient(root)
        domain = plan.succeeded[2022][0]
        entry = next(client.query(snapshot_name(2022), domain))
        record = client.fetch(entry)
        assert record.payload_digest == entry.digest

    def test_json_pages_visible_without_mime_filter(self, archive):
        root, plan, _built = archive
        client = CommonCrawlClient(root)
        mimes = set()
        for domain in plan.succeeded[2022]:
            for entry in client.query(snapshot_name(2022), domain, mime=None):
                mimes.add(entry.mime)
        assert "text/html" in mimes


class TestInterruptedBuild:
    """collinfo.json is build_archive's completion marker: an interrupted
    build must not leave it behind, or the half-built archive is reused."""

    CONFIG = StudyConfig(num_domains=4, max_pages=2, seed=7, years=(2021, 2022))

    def test_failed_ground_truth_write_is_rebuilt(self, tmp_path, monkeypatch):
        write_ground_truth = ArchiveBuilder._write_ground_truth
        failures = []

        def fail_once(self, plan):
            if not failures:
                failures.append(plan)
                raise OSError("disk full")
            write_ground_truth(self, plan)

        monkeypatch.setattr(ArchiveBuilder, "_write_ground_truth", fail_once)
        with pytest.raises(OSError, match="disk full"):
            build_archive(self.CONFIG, tmp_path)
        archive = build_archive(self.CONFIG, tmp_path)
        truth = json.loads((archive / "ground_truth.json").read_text())
        assert truth["seed"] == 7
        study = run_study(self.CONFIG, cache_dir=tmp_path)
        try:
            assert study.table2().rows
        finally:
            study.close()

    def test_marker_written_last_and_whole(self, tmp_path, monkeypatch):
        def interrupted(source, target):
            raise OSError("killed before the rename")

        monkeypatch.setattr(
            snapshot_module, "os", SimpleNamespace(replace=interrupted)
        )
        with pytest.raises(OSError, match="killed"):
            build_archive(self.CONFIG, tmp_path)
        archive = tmp_path / f"archive-{self.CONFIG.key()}"
        assert (archive / "ground_truth.json").exists()
        assert not (archive / "collinfo.json").exists()
        monkeypatch.undo()
        build_archive(self.CONFIG, tmp_path)
        assert json.loads((archive / "collinfo.json").read_text())
        assert not list(archive.glob("*.partial"))
