"""Storage layer tests: schema, writes, and every aggregation query."""
from __future__ import annotations

import pytest

from repro.pipeline import Storage


@pytest.fixture()
def populated():
    """Two snapshots, three domains, hand-written findings."""
    storage = Storage(":memory:")
    snap15 = storage.add_snapshot("CC-MAIN-2015-14", 2015)
    snap22 = storage.add_snapshot("CC-MAIN-2022-05", 2022)
    alpha = storage.add_domain("alpha.com", 10)
    beta = storage.add_domain("beta.com", 20)
    gamma = storage.add_domain("gamma.com", 30)

    # 2015: alpha violates FB2+HF4 on one page; beta clean; gamma absent
    storage.set_domain_status(snap15, alpha, found=True, analyzed=True, pages=2)
    storage.set_domain_status(snap15, beta, found=True, analyzed=True, pages=1)
    storage.set_domain_status(snap15, gamma, found=False, analyzed=False, pages=0)
    page = storage.add_page(snap15, alpha, "http://alpha.com/", utf8=True, checked=True)
    storage.add_findings(page, {"FB2": 2, "HF4": 1})
    storage.add_mitigations(page, script_in_attr=1, nonced=0, urls_nl=2, urls_nl_lt=1)
    storage.add_page(snap15, alpha, "http://alpha.com/2", utf8=True, checked=True)
    storage.add_page(snap15, beta, "http://beta.com/", utf8=True, checked=True)

    # 2022: alpha clean; beta violates FB2 only; gamma violates DM3
    storage.set_domain_status(snap22, alpha, found=True, analyzed=True, pages=1)
    storage.set_domain_status(snap22, beta, found=True, analyzed=True, pages=1)
    storage.set_domain_status(snap22, gamma, found=True, analyzed=True, pages=1)
    storage.add_page(snap22, alpha, "http://alpha.com/", utf8=True, checked=True)
    page = storage.add_page(snap22, beta, "http://beta.com/", utf8=True, checked=True)
    storage.add_findings(page, {"FB2": 1})
    page = storage.add_page(snap22, gamma, "http://gamma.com/", utf8=False, checked=False)
    page = storage.add_page(snap22, gamma, "http://gamma.com/2", utf8=True, checked=True)
    storage.add_findings(page, {"DM3": 3})
    storage.commit()
    yield storage
    storage.close()


class TestWrites:
    def test_snapshot_idempotent(self, populated):
        first = populated.add_snapshot("CC-MAIN-2015-14", 2015)
        second = populated.add_snapshot("CC-MAIN-2015-14", 2015)
        assert first == second

    def test_domain_idempotent(self, populated):
        assert populated.add_domain("alpha.com") == populated.add_domain("alpha.com")

    def test_snapshot_lookup_by_year(self, populated):
        assert populated.snapshot_id_by_year(2015)
        with pytest.raises(KeyError):
            populated.snapshot_id_by_year(1999)


class TestAggregations:
    def test_dataset_stats(self, populated):
        rows = populated.dataset_stats()
        assert [row["year"] for row in rows] == [2015, 2022]
        assert rows[0]["found"] == 2
        assert rows[0]["analyzed"] == 2
        assert rows[0]["avg_pages"] == 1.5
        assert rows[1]["found"] == 3

    def test_total_domains_analyzed(self, populated):
        assert populated.total_domains_analyzed() == 3

    def test_analyzed_domains_per_year(self, populated):
        assert populated.analyzed_domains(2015) == 2
        assert populated.analyzed_domains(2022) == 3

    def test_violation_domain_counts_union(self, populated):
        counts = populated.violation_domain_counts()
        assert counts["FB2"] == 2      # alpha (2015) + beta (2022)
        assert counts["HF4"] == 1
        assert counts["DM3"] == 1

    def test_violation_domain_counts_per_year(self, populated):
        assert populated.violation_domain_counts(2015)["FB2"] == 1
        assert populated.violation_domain_counts(2022)["FB2"] == 1
        assert "HF4" not in populated.violation_domain_counts(2022)

    def test_domains_with_any_violation(self, populated):
        assert populated.domains_with_any_violation() == 3
        assert populated.domains_with_any_violation(2015) == 1
        assert populated.domains_with_any_violation(2022) == 2

    def test_domains_with_violations_in(self, populated):
        assert populated.domains_with_violations_in(("FB2", "FB1"), 2022) == 1
        assert populated.domains_with_violations_in(("DM3",), 2022) == 1
        assert populated.domains_with_violations_in((), 2022) == 0

    def test_domain_violation_sets(self, populated):
        sets_2022 = populated.domain_violation_sets(2022)
        assert sorted(map(sorted, sets_2022.values())) == [["DM3"], ["FB2"]]

    def test_mitigation_domain_counts(self, populated):
        counts = populated.mitigation_domain_counts(2015)
        assert counts["script_in_attr"] == 1
        assert counts["nonced_script_in_attr"] == 0
        assert counts["nl_in_url"] == 1
        assert counts["nl_lt_in_url"] == 1
        assert populated.mitigation_domain_counts(2022)["nl_in_url"] == 0

    def test_utf8_filter_stats(self, populated):
        utf8, non_utf8 = populated.utf8_filter_stats()
        assert utf8 == 6
        assert non_utf8 == 1

    def test_declared_encoding_distribution(self, populated):
        distribution = populated.declared_encoding_distribution()
        # the fixture writes pages without declarations
        assert distribution == {"(undeclared)": 7}

    def test_total_pages_checked(self, populated):
        assert populated.total_pages_checked() == 6


class TestPersistence:
    def test_on_disk_roundtrip(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with Storage(path) as storage:
            snap = storage.add_snapshot("S", 2020)
            domain = storage.add_domain("x.com")
            storage.set_domain_status(snap, domain, found=True, analyzed=True, pages=1)
            page = storage.add_page(snap, domain, "http://x.com/", utf8=True, checked=True)
            storage.add_findings(page, {"FB1": 1})
            storage.commit()
        with Storage(path) as storage:
            assert storage.violation_domain_counts()["FB1"] == 1


class TestTuning:
    def test_tuned_on_disk_uses_wal_and_normal_sync(self, tmp_path):
        with Storage(tmp_path / "tuned.sqlite") as storage:
            journal = storage.conn.execute("PRAGMA journal_mode").fetchone()[0]
            sync = storage.conn.execute("PRAGMA synchronous").fetchone()[0]
            assert journal == "wal"
            assert sync == 1  # NORMAL

    def test_indexes_exist_only_when_tuned(self, tmp_path):
        def index_names(storage):
            rows = storage.conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
                " AND name LIKE 'idx_%'"
            ).fetchall()
            return {row[0] for row in rows}

        with Storage(tmp_path / "tuned.sqlite") as storage:
            names = index_names(storage)
            assert "idx_findings_violation_page" in names
            assert "idx_findings_page" in names
