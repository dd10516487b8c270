"""Local Common-Crawl-compatible archive layout and builder.

Directory layout mirrors the real thing closely enough that the pipeline
code reads it the same way it would read Common Crawl:

    <root>/collinfo.json                                  # snapshot list
    <root>/cc-index/<CC-MAIN-...>.cdxj                    # per-snapshot index
    <root>/crawl-data/<CC-MAIN-...>/warc/part-NNNNN.warc.gz

The builder takes a :class:`~repro.commoncrawl.corpusgen.CorpusPlan`,
renders every planned page, wraps it in an HTTP response inside a gzipped
WARC record, and indexes it in the snapshot's CDXJ file.  The ground-truth
plan is also saved (``ground_truth.json``) so integration tests can verify
that the measurement pipeline recovers the injected rates.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from ..warc import CDXEntry, CDXWriter, WARCRecord, WARCWriter, surt
from . import calibration as cal

if TYPE_CHECKING:
    # the planner loads numpy and scipy; the naming helpers here do not
    # need it (the fuzz harness imports them)
    from .corpusgen import CorpusPlan, PageSpec

#: max records per WARC part file (keeps parts small, exercises multi-part)
RECORDS_PER_PART = 2000


def snapshot_name(year: int) -> str:
    return cal.SNAPSHOT_BY_YEAR[year].name


def _warc_date(year: int, counter: int) -> str:
    month = 3 if year in (2015,) else 1
    day = 15 + (counter % 10)
    hour = counter % 24
    minute = (counter * 7) % 60
    return f"{year}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:00Z"


def _cdx_timestamp(warc_date: str) -> str:
    return (
        warc_date.replace("-", "").replace(":", "").replace("T", "").rstrip("Z")
    )


@dataclass(slots=True)
class BuiltSnapshot:
    name: str
    year: int
    records: int
    warc_parts: list[str]
    cdx_path: str
    #: deduplicated repeat captures included in ``records``
    revisits: int = 0


class ArchiveBuilder:
    """Write a plan out as a browsable local Common Crawl archive."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def build(self, plan: CorpusPlan) -> list[BuiltSnapshot]:
        self.root.mkdir(parents=True, exist_ok=True)
        built = []
        for year in plan.config.years:
            built.append(self._build_snapshot(plan, year))
        self._write_ground_truth(plan)
        collinfo = [
            {
                "id": snapshot.name,
                "name": f"Synthetic crawl {snapshot.year}",
                "year": snapshot.year,
                "cdx-api": snapshot.cdx_path,
                "records": snapshot.records,
            }
            for snapshot in built
        ]
        # collinfo.json marks the archive complete (build_archive checks
        # it), so it goes last and whole: a build interrupted anywhere
        # before os.replace leaves no marker, and the next one starts over.
        marker = self.root / "collinfo.json"
        partial = marker.with_name(marker.name + ".partial")
        partial.write_text(json.dumps(collinfo, indent=2))
        os.replace(partial, marker)
        return built

    def _build_snapshot(self, plan: CorpusPlan, year: int) -> BuiltSnapshot:
        name = snapshot_name(year)
        warc_dir = self.root / "crawl-data" / name / "warc"
        warc_dir.mkdir(parents=True, exist_ok=True)
        index_dir = self.root / "cc-index"
        index_dir.mkdir(parents=True, exist_ok=True)

        cdx = CDXWriter()
        parts: list[str] = []
        part_index = 0
        records_in_part = 0
        total = 0
        writer: WARCWriter | None = None
        stream = None

        def open_part() -> None:
            nonlocal writer, stream, part_index, records_in_part
            part_name = f"part-{part_index:05d}.warc.gz"
            parts.append(str(Path("crawl-data") / name / "warc" / part_name))
            stream = open(warc_dir / part_name, "wb")
            writer = WARCWriter(stream)
            info = WARCRecord.warcinfo(
                part_name, _warc_date(year, 0),
                {"software": "repro-synthetic-crawler/1.0", "isPartOf": name},
            )
            writer.write_record(info)
            records_in_part = 0

        open_part()
        counter = 0
        revisits = 0
        succeeded = set(plan.succeeded[year])

        def write(record: WARCRecord, url: str, mime: str, status: int) -> None:
            nonlocal counter, total, records_in_part, part_index
            assert writer is not None and stream is not None
            if records_in_part >= RECORDS_PER_PART:
                stream.close()
                part_index += 1
                open_part()
            offset, length = writer.write_record(record)
            # A response carries its payload digest as a header.  A
            # revisit's header names the original's digest, but its CDX
            # line has always held the digest of its own empty body.
            digest = (
                record.payload_digest
                if record.is_revisit
                else record.headers["WARC-Payload-Digest"]
            )
            cdx.add(
                CDXEntry(
                    urlkey=surt(url),
                    timestamp=_cdx_timestamp(record.date),
                    url=url,
                    mime=mime,
                    status=status,
                    digest=digest,
                    length=length,
                    offset=offset,
                    filename=parts[-1],
                )
            )
            counter += 1
            total += 1
            records_in_part += 1

        for domain in plan.present[year]:
            if domain in succeeded:
                first_capture: tuple[str, str, str] | None = None
                for spec in plan.pages.get((domain, year), ()):
                    date = _warc_date(year, counter)
                    record = _record_for(spec, date, plan.config.seed)
                    mime = "text/html" if spec.html else "application/json"
                    write(record, spec.url, mime, 200)
                    if first_capture is None and spec.html and spec.utf8:
                        first_capture = (
                            spec.url, date, record.headers["WARC-Payload-Digest"]
                        )
                # A small share of domains gets a deduplicated repeat
                # capture, as Common Crawl stores identical content.
                if first_capture is not None and random.Random(
                    f"{plan.config.seed}:revisit:{domain}:{year}"
                ).random() < 0.05:
                    url, original_date, digest = first_capture
                    revisit = WARCRecord.revisit(
                        url,
                        _warc_date(year, counter),
                        refers_to_uri=url,
                        refers_to_date=original_date,
                        payload_digest=digest,
                    )
                    write(revisit, url, "warc/revisit", 200)
                    revisits += 1
            else:
                # present on Common Crawl but the capture failed — the
                # found-but-not-analyzed slice of Table 2
                url = f"https://{domain}/"
                record = WARCRecord.response(
                    url,
                    b"Service Unavailable",
                    _warc_date(year, counter),
                    status_code=503,
                    content_type="text/html",
                )
                write(record, url, "text/html", 503)
        assert stream is not None
        stream.close()
        cdx_path = index_dir / f"{name}.cdxj"
        cdx.write(cdx_path)
        return BuiltSnapshot(
            name=name, year=year, records=total,
            warc_parts=parts, cdx_path=str(cdx_path.relative_to(self.root)),
            revisits=revisits,
        )

    def _write_ground_truth(self, plan: CorpusPlan) -> None:
        truth = {
            "seed": plan.config.seed,
            "num_domains": plan.config.num_domains,
            "max_pages": plan.config.max_pages,
            "rho_fixable": plan.loadings.fixable,
            "rho_manual": plan.loadings.manual,
            "domains": [
                {"name": name, "avg_rank": rank} for name, rank in plan.domains
            ],
            "present": {str(year): sorted(v) for year, v in plan.present.items()},
            "succeeded": {
                str(year): sorted(v) for year, v in plan.succeeded.items()
            },
            "active": {
                f"{domain}:{year}": list(names)
                for (domain, year), names in plan.active.items()
            },
        }
        (self.root / "ground_truth.json").write_text(json.dumps(truth, indent=1))


def _record_for(spec: PageSpec, date: str, seed: int) -> WARCRecord:
    from .corpusgen import render_page

    payload = render_page(spec, seed)
    if spec.html:
        charset = "UTF-8" if spec.utf8 else "ISO-8859-1"
        content_type = f"text/html; charset={charset}"
    else:
        content_type = "application/json"
    return WARCRecord.response(
        spec.url, payload, date, content_type=content_type
    )
