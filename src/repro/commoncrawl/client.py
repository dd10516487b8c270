"""Client API over a local Common-Crawl-compatible archive.

Mirrors the two-step workflow the paper's framework uses against the real
Common Crawl (section 3.3): query the index service for a domain's
captures ("collect CC metadata"), then fetch individual records by
``(filename, offset, length)`` — the S3 range-read, served here from local
WARC files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..warc import CDXEntry, MMapCDXIndex, WARCFileCache, WARCRecord


@dataclass(frozen=True, slots=True)
class Collection:
    """One crawl snapshot as advertised by ``collinfo.json``."""

    id: str
    year: int
    records: int
    cdx_api: str


class CommonCrawlClient:
    """Read-only access to a local archive built by :class:`ArchiveBuilder`.

    Index queries binary-search each snapshot's memory-mapped CDX file
    (:class:`MMapCDXIndex`); :meth:`fetch` range-reads records through an
    LRU of open WARC file handles.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        if not (self.root / "collinfo.json").exists():
            raise FileNotFoundError(
                f"{self.root} is not a Common Crawl archive (no collinfo.json)"
            )
        self._collections: list[Collection] | None = None
        self._indexes: dict[str, MMapCDXIndex] = {}
        self._handles = WARCFileCache()

    # -------------------------------------------------------------- catalog

    def collections(self) -> list[Collection]:
        if self._collections is None:
            raw = json.loads((self.root / "collinfo.json").read_text())
            self._collections = [
                Collection(
                    id=item["id"],
                    year=item["year"],
                    records=item["records"],
                    cdx_api=item["cdx-api"],
                )
                for item in raw
            ]
        return self._collections

    def collection(self, snapshot_id: str) -> Collection:
        for collection in self.collections():
            if collection.id == snapshot_id:
                return collection
        raise KeyError(f"unknown snapshot {snapshot_id!r}")

    # ---------------------------------------------------------------- index

    def index(self, snapshot_id: str) -> MMapCDXIndex:
        if snapshot_id not in self._indexes:
            collection = self.collection(snapshot_id)
            self._indexes[snapshot_id] = MMapCDXIndex.open(
                self.root / collection.cdx_api
            )
        return self._indexes[snapshot_id]

    def query(
        self,
        snapshot_id: str,
        domain: str,
        *,
        mime: str | None = "text/html",
        limit: int | None = None,
        page: int = 0,
        page_size: int | None = None,
    ) -> Iterator[CDXEntry]:
        """Domain-prefix index query with MIME filtering and pagination.

        ``mime='text/html'`` reproduces the paper's constraint of only
        requesting HTML documents (the reason the study starts at the
        2015-14 snapshot, the first with MIME metadata).  ``page`` and
        ``page_size`` mirror the real index server's paged API for large
        domains.

        Precedence when both are given: ``limit`` caps the mime-filtered
        capture stream first, then ``page``/``page_size`` window into that
        capped stream — so no page ever extends past ``limit``, and a
        ``limit`` spanning several pages truncates exactly the last page
        that crosses it.
        """
        passed = 0  # position within the limit-capped, mime-filtered stream
        yielded = 0  # captures yielded from the current page
        skip = page * page_size if page_size else 0
        for entry in self.index(snapshot_id).domain_query(domain):
            if mime is not None and entry.mime != mime:
                continue
            if limit is not None and passed >= limit:
                return
            passed += 1
            if skip:
                skip -= 1
                continue
            yield entry
            yielded += 1
            if page_size is not None and yielded >= page_size:
                return

    # ---------------------------------------------------------------- fetch

    def fetch(self, entry: CDXEntry) -> WARCRecord:
        """Range-read one record (the S3 fetch in the real pipeline)."""
        return self._handles.read_record_at(
            self.root / entry.filename, entry.offset, entry.length
        )

    # -------------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release cached WARC handles and mapped indexes."""
        self._handles.close()
        for index in self._indexes.values():
            index.close()
        self._indexes.clear()

    def __enter__(self) -> "CommonCrawlClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def resolve_revisit(
        self, snapshot_id: str, record: WARCRecord
    ) -> WARCRecord | None:
        """Resolve a ``revisit`` record to the original response.

        Looks the referred URI up in the snapshot index and returns the
        capture whose payload digest matches; None when the original is
        not in this snapshot.
        """
        if not record.is_revisit:
            return record
        digest = record.headers.get("WARC-Payload-Digest", "")
        for entry in self.index(snapshot_id).lookup(record.refers_to_uri):
            if entry.digest == digest and entry.mime != "warc/revisit":
                return self.fetch(entry)
        return None
