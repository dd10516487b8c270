"""CDXJ index: the lookup layer between a URL and its WARC record.

Common Crawl's index service maps a URL (in SURT form) to the WARC file,
byte offset and length holding its capture.  This module implements the
same contract locally: :func:`surt` canonicalization, a writer that emits
sorted CDXJ lines, and two readers supporting exact-URL and domain-prefix
queries — the two lookups the paper's metadata-collection stage performs
("collect CC metadata" in Figure 6).

Two index implementations share one contract:

* :class:`CDXIndex` — the reference: eagerly parses every line into
  :class:`CDXEntry` objects and answers queries by linear scan.  Simple
  enough to be obviously correct, and kept for exactly that reason (the
  same role the per-character ``Tokenizer`` base plays for the bytes
  scanner).
* :class:`MMapCDXIndex` — the production index: memory-maps the file,
  scans newline offsets once, and binary-searches the sorted urlkey space
  with lazily-decoded keys.  Entries are parsed on demand, so opening is
  O(bytes) with no JSON work and each query is O(log n + matches).

``tests/warc/test_cdx_equivalence.py`` machine-checks that the two return
identical results over generated corpora and adversarial key layouts —
the equivalence is tested, not argued.
"""
from __future__ import annotations

import json
import mmap
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator
from urllib.parse import urlsplit


class CDXFormatError(ValueError):
    """Raised when a line does not parse as a CDXJ entry.

    The one typed rejection the index layer is allowed: malformed lines
    (wrong field count, non-object JSON, missing or non-numeric fields)
    must surface as this error, never as a bare ``KeyError``/``TypeError``
    from the JSON plumbing.
    """


def surt(url: str) -> str:
    """Sort-friendly URI Reordering Transform.

    ``http://www.example.com/path?q=1`` → ``com,example)/path?q=1``.
    Matches the canonicalization Common Crawl's index uses (simplified:
    no query-parameter reordering).
    """
    parts = urlsplit(url if "://" in url else "http://" + url)
    host = parts.hostname or ""
    if host.startswith("www."):
        host = host[4:]
    key = ",".join(reversed(host.split("."))) + ")"
    path = parts.path or "/"
    key += path.lower()
    if parts.query:
        key += "?" + parts.query.lower()
    return key


@dataclass(slots=True)
class CDXEntry:
    """One capture: where to find one URL's record in a WARC file."""

    urlkey: str
    timestamp: str
    url: str
    mime: str
    status: int
    digest: str
    length: int
    offset: int
    filename: str

    def to_line(self) -> str:
        fields = {
            "url": self.url,
            "mime": self.mime,
            "status": str(self.status),
            "digest": self.digest,
            "length": str(self.length),
            "offset": str(self.offset),
            "filename": self.filename,
        }
        return f"{self.urlkey} {self.timestamp} {json.dumps(fields)}"

    @classmethod
    def from_line(cls, line: str) -> "CDXEntry":
        """Parse one CDXJ line; raises :class:`CDXFormatError` on any
        malformed input (wrong field count, bad JSON, missing fields)."""
        try:
            urlkey, timestamp, payload = line.split(" ", 2)
            fields = json.loads(payload)
            if not isinstance(fields, dict):
                raise ValueError(f"payload is {type(fields).__name__}, not object")
            return cls(
                urlkey=urlkey,
                timestamp=timestamp,
                url=fields["url"],
                mime=fields.get("mime", ""),
                status=int(fields.get("status", 0)),
                digest=fields.get("digest", ""),
                length=int(fields["length"]),
                offset=int(fields["offset"]),
                filename=fields["filename"],
            )
        except (ValueError, KeyError, TypeError) as exc:
            # json.JSONDecodeError is a ValueError subclass; KeyError covers
            # missing required fields, TypeError non-string/number values
            raise CDXFormatError(f"bad CDXJ line {line[:80]!r}: {exc}") from exc


#: the exact line shape :meth:`CDXEntry.to_line` emits (json.dumps with
#: this key order and no escaped characters).  Lines matching it can be
#: field-sliced without a JSON parse; anything else — escapes, reordered
#: keys, third-party writers — falls back to :meth:`CDXEntry.from_line`.
#: ``[^"\\]*`` is deliberate: a value containing a quote or backslash was
#: escaped by json.dumps, so the fast path refuses it rather than
#: mis-slicing.
_CANONICAL_LINE = re.compile(
    r'^(\S+) (\S+) \{"url": "([^"\\]*)", "mime": "([^"\\]*)", '
    r'"status": "(\d+)", "digest": "([^"\\]*)", "length": "(\d+)", '
    r'"offset": "(\d+)", "filename": "([^"\\]*)"\}$'
)


def parse_cdx_line(line: str) -> CDXEntry:
    """Parse one CDXJ line, fast-pathing the canonical writer format.

    Returns exactly what :meth:`CDXEntry.from_line` returns (the
    equivalence suite diffs the two); the fast path only fires on lines
    the regex proves unambiguous, so malformed input takes the reference
    path and raises its :class:`CDXFormatError`.
    """
    match = _CANONICAL_LINE.match(line)
    if match is None:
        return CDXEntry.from_line(line)
    (urlkey, timestamp, url, mime, status, digest, length, offset,
     filename) = match.groups()
    return CDXEntry(
        urlkey=urlkey,
        timestamp=timestamp,
        url=url,
        mime=mime,
        status=int(status),
        digest=digest,
        length=int(length),
        offset=int(offset),
        filename=filename,
    )


class CDXWriter:
    """Accumulate entries and write a sorted CDXJ file."""

    def __init__(self) -> None:
        self.entries: list[CDXEntry] = []

    def add(self, entry: CDXEntry) -> None:
        self.entries.append(entry)

    def write(self, path: str | Path) -> int:
        self.entries.sort(key=lambda entry: (entry.urlkey, entry.timestamp))
        with open(path, "w", encoding="utf-8") as stream:
            for entry in self.entries:
                stream.write(entry.to_line())
                stream.write("\n")
        return len(self.entries)


class CDXIndex:
    """In-memory CDXJ index with exact and domain-prefix lookup."""

    def __init__(self, entries: list[CDXEntry]) -> None:
        self.entries = sorted(entries, key=lambda entry: (entry.urlkey, entry.timestamp))

    @classmethod
    def load(cls, path: str | Path) -> "CDXIndex":
        entries = []
        with open(path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    entries.append(CDXEntry.from_line(line))
        return cls(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, url: str) -> list[CDXEntry]:
        """All captures of an exact URL."""
        key = surt(url)
        return [entry for entry in self.entries if entry.urlkey == key]

    def domain_query(self, domain: str, *, limit: int | None = None) -> Iterator[CDXEntry]:
        """All captures under a domain (the ``example.com/*`` index query)."""
        prefix = domain_prefix(domain)
        count = 0
        for entry in self.entries:
            if entry.urlkey.startswith(prefix):
                yield entry
                count += 1
                if limit is not None and count >= limit:
                    return


def domain_prefix(domain: str) -> str:
    """The urlkey prefix shared by every capture under ``domain``.

    Ends with the ``)`` host terminator, so ``example.com`` never matches
    ``examples.com`` captures (``com,example)`` is not a prefix of
    ``com,examples)/...``).
    """
    return surt(f"http://{domain}/").split(")")[0] + ")"


class _UrlKeyView:
    """Read-only sequence of an :class:`MMapCDXIndex`'s urlkeys.

    Exists so :func:`bisect.bisect_left` can binary-search the index
    without materializing the key column — each probe decodes exactly one
    key straight out of the mapped file.
    """

    __slots__ = ("_index",)

    def __init__(self, index: "MMapCDXIndex") -> None:
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, position: int) -> str:
        return self._index.key_at(position)


class MMapCDXIndex:
    """mmap-backed CDXJ index: binary search over the sorted urlkey space.

    Opening scans the mapping once for line offsets (no decoding, no JSON);
    every query then bisects the urlkey column, decoding only the O(log n)
    keys it probes, and parses :class:`CDXEntry` objects on demand for the
    matching lines.  Precondition: the file is sorted by
    ``(urlkey, timestamp)`` — exactly what :class:`CDXWriter` emits.
    (urlkeys never contain a space, the field separator, so byte-sorted
    lines and tuple-sorted entries agree.)

    Processes share the OS page cache for the mapped file, so a pool of
    workers pays for one copy of the index instead of one fully-parsed
    copy each — the memory behavior the pipeline's scheduling layer
    relies on.
    """

    def __init__(self, buffer: "mmap.mmap | bytes", path: str = "") -> None:
        self.path = path
        self._buffer = buffer
        self._starts = array("q")
        self._ends = array("q")
        self._scan_lines()

    @classmethod
    def open(cls, path: str | Path) -> "MMapCDXIndex":
        with open(path, "rb") as stream:
            stream.seek(0, 2)
            if stream.tell() == 0:
                # mmap rejects empty files; an empty index is still valid
                return cls(b"", path=str(path))
            buffer = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
        return cls(buffer, path=str(path))

    def _scan_lines(self) -> None:
        """One pass recording the [start, end) span of every non-blank line."""
        buffer = self._buffer
        size = len(buffer)
        position = 0
        while position < size:
            newline = buffer.find(b"\n", position)
            end = size if newline < 0 else newline
            raw = bytes(buffer[position:end])
            span = raw.strip()
            if span:
                # record the stripped span so CRLF files and padded lines
                # parse identically to the reference loader
                lead = raw.index(span[:1])
                self._starts.append(position + lead)
                self._ends.append(position + lead + len(span))
            position = end + 1

    # ------------------------------------------------------------ accessors

    def __len__(self) -> int:
        return len(self._starts)

    def close(self) -> None:
        if isinstance(self._buffer, mmap.mmap):
            self._buffer.close()
        self._buffer = b""
        self._starts = array("q")
        self._ends = array("q")

    def __enter__(self) -> "MMapCDXIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _line_at(self, position: int) -> str:
        start, end = self._starts[position], self._ends[position]
        return bytes(self._buffer[start:end]).decode("utf-8")

    def key_at(self, position: int) -> str:
        """Line ``position``'s urlkey (the field before the first space)."""
        start, end = self._starts[position], self._ends[position]
        space = self._buffer.find(b" ", start, end)
        if space < 0:
            space = end
        return bytes(self._buffer[start:space]).decode("utf-8")

    def entry_at(self, position: int) -> CDXEntry:
        """Parse line ``position`` (raises :class:`CDXFormatError` when
        malformed — deferred from open to first touch, by design)."""
        return parse_cdx_line(self._line_at(position))

    def entries(self) -> Iterator[CDXEntry]:
        """Every entry in file order (parsing the whole index; test use)."""
        for position in range(len(self)):
            yield self.entry_at(position)

    # -------------------------------------------------------------- queries

    def lookup(self, url: str) -> list[CDXEntry]:
        """All captures of an exact URL."""
        key = surt(url)
        position = bisect_left(_UrlKeyView(self), key)
        hits = []
        while position < len(self) and self.key_at(position) == key:
            hits.append(self.entry_at(position))
            position += 1
        return hits

    def domain_query(self, domain: str, *, limit: int | None = None) -> Iterator[CDXEntry]:
        """All captures under a domain (the ``example.com/*`` index query).

        Any key ≥ the prefix that does not start with it is greater than
        every key that does, so the matching lines are one contiguous run
        beginning at ``bisect_left(keys, prefix)`` — found in O(log n) and
        walked in O(matches).
        """
        prefix = domain_prefix(domain)
        position = bisect_left(_UrlKeyView(self), prefix)
        count = 0
        while position < len(self) and self.key_at(position).startswith(prefix):
            yield self.entry_at(position)
            position += 1
            count += 1
            if limit is not None and count >= limit:
                return
