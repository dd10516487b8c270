"""Results storage: the PostgresDB box of Figure 6, on SQLite.

Schema mirrors what the analyses need: per-snapshot domain status
(found / analyzed / page counts → Table 2), per-page findings (→ Figures
8–10 and 16–21), and per-page mitigation measurements (→ section 4.5).
All aggregation queries used by :mod:`repro.analysis` live here as
methods, so analyses are SQL-backed exactly as in the paper's framework.
"""
from __future__ import annotations

import hashlib
import sqlite3
from collections import Counter
from pathlib import Path
from typing import Iterable

from .migrations import ensure_schema

#: schema generation of ``_SCHEMA`` below.  Generation 1 is the
#: pre-versioning layout (no ``pages.carried_from``); generation 2 added
#: the carry-forward provenance column for the incremental engine.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    year INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS domains (
    id INTEGER PRIMARY KEY,
    name TEXT NOT NULL UNIQUE,
    avg_rank REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS domain_status (
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    domain_id INTEGER NOT NULL REFERENCES domains(id),
    found INTEGER NOT NULL,
    analyzed INTEGER NOT NULL,
    pages INTEGER NOT NULL,
    PRIMARY KEY (snapshot_id, domain_id)
);
CREATE TABLE IF NOT EXISTS pages (
    id INTEGER PRIMARY KEY,
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    domain_id INTEGER NOT NULL REFERENCES domains(id),
    url TEXT NOT NULL,
    utf8 INTEGER NOT NULL,
    checked INTEGER NOT NULL,
    declared_encoding TEXT NOT NULL DEFAULT '',
    -- carry-forward provenance: '' for a freshly checked page, otherwise
    -- "<snapshot> <url>" of the source page whose findings were carried
    -- (prefixed with '~' for a simhash near-duplicate carry)
    carried_from TEXT NOT NULL DEFAULT ''
);
CREATE TABLE IF NOT EXISTS findings (
    id INTEGER PRIMARY KEY,
    page_id INTEGER NOT NULL REFERENCES pages(id),
    violation TEXT NOT NULL,
    count INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS mitigations (
    page_id INTEGER PRIMARY KEY REFERENCES pages(id),
    script_in_attr INTEGER NOT NULL,
    nonced_script_in_attr INTEGER NOT NULL,
    urls_nl INTEGER NOT NULL,
    urls_nl_lt INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS page_features (
    page_id INTEGER PRIMARY KEY REFERENCES pages(id),
    math_elements INTEGER NOT NULL,
    svg_elements INTEGER NOT NULL
);
"""

#: secondary indexes backing the aggregation queries; kept out of
#: ``_SCHEMA`` so a store created before they existed gains them on open
_INDEXES = """
CREATE INDEX IF NOT EXISTS idx_findings_page ON findings(page_id);
CREATE INDEX IF NOT EXISTS idx_pages_snapshot ON pages(snapshot_id, domain_id);
-- covering index for violation_domain_counts / domains_with_violations_in:
-- both group or filter on violation and only then reach for page_id, so
-- the pair satisfies them without touching the findings table itself
CREATE INDEX IF NOT EXISTS idx_findings_violation_page
    ON findings(violation, page_id);
"""

#: per-generation upgrade steps consumed by
#: :func:`repro.pipeline.migrations.ensure_schema`; key = target version
_MIGRATIONS: dict[int, tuple[str, ...]] = {
    2: (
        "ALTER TABLE pages ADD COLUMN carried_from TEXT NOT NULL DEFAULT ''",
    ),
}

#: every table that feeds an aggregation query, in schema order; the
#: canonical dump below walks exactly these
AGGREGATE_TABLES = (
    "snapshots",
    "domains",
    "domain_status",
    "pages",
    "findings",
    "mitigations",
    "page_features",
)

#: write-path pragmas: WAL keeps readers unblocked during the runner's
#: batched inserts and turns fsync-per-commit into fsync-per-checkpoint;
#: NORMAL is durable through application crashes (the study can always
#: re-run a snapshot, so power-loss durability is the wrong trade);
#: temp_store keeps GROUP BY spill files in memory
_TUNING_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA temp_store=MEMORY",
    "PRAGMA cache_size=-8192",
)


class Storage:
    """SQLite-backed results store with the study's aggregation queries."""

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self.conn = sqlite3.connect(self.path)
        for pragma in _TUNING_PRAGMAS:
            self.conn.execute(pragma)
        self.schema_version_found = ensure_schema(
            self.conn,
            latest=SCHEMA_VERSION,
            create=_SCHEMA,
            migrations=_MIGRATIONS,
            label="results store",
        )
        self.conn.executescript(_INDEXES)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "Storage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --------------------------------------------------------------- writes

    def add_snapshot(self, name: str, year: int) -> int:
        cursor = self.conn.execute(
            "INSERT OR IGNORE INTO snapshots(name, year) VALUES (?, ?)",
            (name, year),
        )
        if cursor.rowcount:
            return cursor.lastrowid
        row = self.conn.execute(
            "SELECT id FROM snapshots WHERE name = ?", (name,)
        ).fetchone()
        return row[0]

    def add_domain(self, name: str, avg_rank: float = 0.0) -> int:
        cursor = self.conn.execute(
            "INSERT OR IGNORE INTO domains(name, avg_rank) VALUES (?, ?)",
            (name, avg_rank),
        )
        if cursor.rowcount:
            return cursor.lastrowid
        row = self.conn.execute(
            "SELECT id FROM domains WHERE name = ?", (name,)
        ).fetchone()
        return row[0]

    def set_domain_status(
        self, snapshot_id: int, domain_id: int, *, found: bool, analyzed: bool,
        pages: int,
    ) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO domain_status(snapshot_id, domain_id, "
            "found, analyzed, pages) VALUES (?, ?, ?, ?, ?)",
            (snapshot_id, domain_id, int(found), int(analyzed), pages),
        )

    def add_page(
        self, snapshot_id: int, domain_id: int, url: str, *, utf8: bool,
        checked: bool, declared_encoding: str = "", carried_from: str = "",
    ) -> int:
        cursor = self.conn.execute(
            "INSERT INTO pages(snapshot_id, domain_id, url, utf8, checked, "
            "declared_encoding, carried_from) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (snapshot_id, domain_id, url, int(utf8), int(checked),
             declared_encoding, carried_from),
        )
        return cursor.lastrowid

    def add_pages(
        self,
        snapshot_id: int,
        domain_id: int,
        rows: list[tuple[str, bool, bool, str, str]],
    ) -> list[int]:
        """Bulk insert ``(url, utf8, checked, declared_encoding,
        carried_from)`` rows, returning their page ids in input order.

        ``cursor.lastrowid`` is undefined after ``executemany``, so the ids
        are recovered from ``last_insert_rowid()``: this connection is the
        study's single writer, ``pages`` rows are never deleted, and SQLite
        assigns ``max(rowid)+1`` per insert — so one statement's batch is a
        contiguous ascending run ending at ``last_insert_rowid()``.  The
        sequential-vs-parallel bit-identity test machine-checks this.
        """
        if not rows:
            return []
        self.conn.executemany(
            "INSERT INTO pages(snapshot_id, domain_id, url, utf8, checked, "
            "declared_encoding, carried_from) VALUES (?, ?, ?, ?, ?, ?, ?)",
            [
                (snapshot_id, domain_id, url, int(utf8), int(checked),
                 encoding, carried)
                for url, utf8, checked, encoding, carried in rows
            ],
        )
        last = self.conn.execute("SELECT last_insert_rowid()").fetchone()[0]
        return list(range(last - len(rows) + 1, last + 1))

    def add_findings(self, page_id: int, counts: dict[str, int]) -> None:
        self.conn.executemany(
            "INSERT INTO findings(page_id, violation, count) VALUES (?, ?, ?)",
            [(page_id, violation, count) for violation, count in counts.items()],
        )

    def add_findings_rows(self, rows: list[tuple[int, str, int]]) -> None:
        """Bulk insert ``(page_id, violation, count)`` across many pages."""
        self.conn.executemany(
            "INSERT INTO findings(page_id, violation, count) VALUES (?, ?, ?)",
            rows,
        )

    def add_mitigations_rows(
        self, rows: list[tuple[int, int, int, int, int]]
    ) -> None:
        """Bulk variant of :meth:`add_mitigations`; rows are
        ``(page_id, script_in_attr, nonced, urls_nl, urls_nl_lt)``."""
        self.conn.executemany(
            "INSERT OR REPLACE INTO mitigations VALUES (?, ?, ?, ?, ?)", rows
        )

    def add_page_features_rows(self, rows: list[tuple[int, int, int]]) -> None:
        """Bulk variant of :meth:`add_page_features`; rows are
        ``(page_id, math_elements, svg_elements)``."""
        self.conn.executemany(
            "INSERT OR REPLACE INTO page_features VALUES (?, ?, ?)", rows
        )

    def add_mitigations(
        self, page_id: int, *, script_in_attr: int, nonced: int,
        urls_nl: int, urls_nl_lt: int,
    ) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO mitigations VALUES (?, ?, ?, ?, ?)",
            (page_id, script_in_attr, nonced, urls_nl, urls_nl_lt),
        )

    def add_page_features(
        self, page_id: int, *, math_elements: int, svg_elements: int
    ) -> None:
        self.conn.execute(
            "INSERT OR REPLACE INTO page_features VALUES (?, ?, ?)",
            (page_id, math_elements, svg_elements),
        )

    def commit(self) -> None:
        self.conn.commit()

    # -------------------------------------------------------------- queries

    def snapshots(self) -> list[tuple[int, str, int]]:
        return list(
            self.conn.execute("SELECT id, name, year FROM snapshots ORDER BY year")
        )

    def snapshot_id_by_year(self, year: int) -> int:
        row = self.conn.execute(
            "SELECT id FROM snapshots WHERE year = ?", (year,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no snapshot for year {year}")
        return row[0]

    def dataset_stats(self) -> list[dict]:
        """Table 2 rows: per snapshot, found/analyzed domains + avg pages."""
        rows = self.conn.execute(
            """
            SELECT s.name, s.year,
                   SUM(ds.found) AS found,
                   SUM(ds.analyzed) AS analyzed,
                   AVG(CASE WHEN ds.analyzed THEN ds.pages END) AS avg_pages
            FROM domain_status ds JOIN snapshots s ON s.id = ds.snapshot_id
            GROUP BY s.id ORDER BY s.year
            """
        ).fetchall()
        return [
            {
                "name": name, "year": year, "found": found or 0,
                "analyzed": analyzed or 0, "avg_pages": avg_pages or 0.0,
            }
            for name, year, found, analyzed, avg_pages in rows
        ]

    def total_domains_analyzed(self) -> int:
        """Domains analyzed at least once across all snapshots."""
        row = self.conn.execute(
            "SELECT COUNT(DISTINCT domain_id) FROM domain_status WHERE analyzed"
        ).fetchone()
        return row[0]

    def total_pages_checked(self) -> int:
        row = self.conn.execute(
            "SELECT COUNT(*) FROM pages WHERE checked"
        ).fetchone()
        return row[0]

    def analyzed_domains(self, year: int | None = None) -> int:
        if year is None:
            return self.total_domains_analyzed()
        row = self.conn.execute(
            """
            SELECT COUNT(*) FROM domain_status ds
            JOIN snapshots s ON s.id = ds.snapshot_id
            WHERE ds.analyzed AND s.year = ?
            """,
            (year,),
        ).fetchone()
        return row[0]

    def violation_domain_counts(self, year: int | None = None) -> Counter:
        """Per violation id: number of distinct domains with ≥1 finding.

        ``year=None`` pools all snapshots (the Figure 8 union view);
        a specific year gives one point of Figures 16–21.
        """
        if year is None:
            rows = self.conn.execute(
                """
                SELECT f.violation, COUNT(DISTINCT p.domain_id)
                FROM findings f JOIN pages p ON p.id = f.page_id
                GROUP BY f.violation
                """
            )
        else:
            rows = self.conn.execute(
                """
                SELECT f.violation, COUNT(DISTINCT p.domain_id)
                FROM findings f
                JOIN pages p ON p.id = f.page_id
                JOIN snapshots s ON s.id = p.snapshot_id
                WHERE s.year = ?
                GROUP BY f.violation
                """,
                (year,),
            )
        return Counter(dict(rows))

    def domains_with_any_violation(self, year: int | None = None) -> int:
        """Figure 9 numerator (or the 92% all-time figure for year=None)."""
        if year is None:
            row = self.conn.execute(
                """
                SELECT COUNT(DISTINCT p.domain_id)
                FROM findings f JOIN pages p ON p.id = f.page_id
                """
            ).fetchone()
        else:
            row = self.conn.execute(
                """
                SELECT COUNT(DISTINCT p.domain_id)
                FROM findings f
                JOIN pages p ON p.id = f.page_id
                JOIN snapshots s ON s.id = p.snapshot_id
                WHERE s.year = ?
                """,
                (year,),
            ).fetchone()
        return row[0]

    def domains_with_violations_in(
        self, violation_ids: Iterable[str], year: int
    ) -> int:
        """Domains with ≥1 finding among ``violation_ids`` in ``year``."""
        ids = tuple(violation_ids)
        if not ids:
            return 0
        placeholders = ",".join("?" for _ in ids)
        row = self.conn.execute(
            f"""
            SELECT COUNT(DISTINCT p.domain_id)
            FROM findings f
            JOIN pages p ON p.id = f.page_id
            JOIN snapshots s ON s.id = p.snapshot_id
            WHERE s.year = ? AND f.violation IN ({placeholders})
            """,
            (year, *ids),
        ).fetchone()
        return row[0]

    def domain_violation_sets(self, year: int) -> dict[int, set[str]]:
        """domain_id → set of violation ids (section 4.4 classification)."""
        rows = self.conn.execute(
            """
            SELECT p.domain_id, f.violation
            FROM findings f
            JOIN pages p ON p.id = f.page_id
            JOIN snapshots s ON s.id = p.snapshot_id
            WHERE s.year = ?
            """,
            (year,),
        )
        result: dict[int, set[str]] = {}
        for domain_id, violation in rows:
            result.setdefault(domain_id, set()).add(violation)
        return result

    def mitigation_domain_counts(self, year: int) -> dict[str, int]:
        """Section 4.5 aggregates: distinct domains per mitigation signal."""
        row = self.conn.execute(
            """
            SELECT
                COUNT(DISTINCT CASE WHEN m.script_in_attr > 0
                      THEN p.domain_id END),
                COUNT(DISTINCT CASE WHEN m.nonced_script_in_attr > 0
                      THEN p.domain_id END),
                COUNT(DISTINCT CASE WHEN m.urls_nl > 0 THEN p.domain_id END),
                COUNT(DISTINCT CASE WHEN m.urls_nl_lt > 0
                      THEN p.domain_id END)
            FROM mitigations m
            JOIN pages p ON p.id = m.page_id
            JOIN snapshots s ON s.id = p.snapshot_id
            WHERE s.year = ?
            """,
            (year,),
        ).fetchone()
        return {
            "script_in_attr": row[0],
            "nonced_script_in_attr": row[1],
            "nl_in_url": row[2],
            "nl_lt_in_url": row[3],
        }

    def element_usage_counts(self, year: int) -> dict[str, int]:
        """Domains using math / svg elements in ``year`` (section 4.2)."""
        row = self.conn.execute(
            """
            SELECT
                COUNT(DISTINCT CASE WHEN f.math_elements > 0
                      THEN p.domain_id END),
                COUNT(DISTINCT CASE WHEN f.svg_elements > 0
                      THEN p.domain_id END)
            FROM page_features f
            JOIN pages p ON p.id = f.page_id
            JOIN snapshots s ON s.id = p.snapshot_id
            WHERE s.year = ?
            """,
            (year,),
        ).fetchone()
        return {"math": row[0], "svg": row[1]}

    def utf8_filter_stats(self) -> tuple[int, int]:
        """(utf8 pages, non-utf8 pages) — the section 4.1 encoding filter."""
        row = self.conn.execute(
            "SELECT SUM(utf8), SUM(1 - utf8) FROM pages"
        ).fetchone()
        return (row[0] or 0, row[1] or 0)

    def declared_encoding_distribution(self) -> dict[str, int]:
        """Pages per declared encoding (section 4.1: '>90% of webpages are
        UTF-8 encoded, and the rest is distributed over more than 45
        encodings')."""
        rows = self.conn.execute(
            "SELECT declared_encoding, COUNT(*) FROM pages "
            "GROUP BY declared_encoding ORDER BY COUNT(*) DESC"
        )
        return {encoding or "(undeclared)": count for encoding, count in rows}

    # ---------------------------------------------------- canonical dumps

    def aggregate_dump(self, *, include_provenance: bool = True) -> str:
        """Canonical text dump of every aggregate table, in rowid order.

        This is the bit-parity currency of the equivalence suites:
        two stores whose dumps are byte-equal answer every aggregation
        query above identically.  Values are rendered with SQLite's own
        ``quote()`` so the text is exact (no float reformatting).

        ``include_provenance=False`` drops the ``pages.carried_from``
        column, which is the one column where an incremental run
        *legitimately* differs from the full reference path — everything
        the analyses read must still match byte for byte.  (A custom
        dump rather than ``iterdump`` because the ``filter=`` parameter
        landed after this interpreter's sqlite3.)
        """
        lines: list[str] = []
        for table in AGGREGATE_TABLES:
            columns = [
                row[1]
                for row in self.conn.execute(f"PRAGMA table_info({table})")
            ]
            if table == "pages" and not include_provenance:
                columns = [c for c in columns if c != "carried_from"]
            selected = ", ".join(f"quote({column})" for column in columns)
            lines.append(f"-- {table}({', '.join(columns)})")
            for row in self.conn.execute(
                f"SELECT {selected} FROM {table} ORDER BY rowid"
            ):
                lines.append(f"INSERT INTO {table} VALUES({','.join(row)});")
        return "\n".join(lines) + "\n"

    def aggregate_sha256(self, *, include_provenance: bool = True) -> str:
        """sha256 hex digest of :meth:`aggregate_dump` (manifest currency)."""
        dump = self.aggregate_dump(include_provenance=include_provenance)
        return hashlib.sha256(dump.encode("utf-8")).hexdigest()
