"""WARC/1.0 reader: sequential iteration and CDX-style random access.

Handles both plain and per-record-gzipped WARC files (multi-member gzip
streams, the Common Crawl layout).  :func:`read_record_at` mirrors how the
paper's crawler fetches individual documents: a CDX entry supplies
``(filename, offset, length)`` and the reader decompresses exactly that
member — the local equivalent of an S3 range request.
"""
from __future__ import annotations

import gzip
import io
import struct
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import BinaryIO, Iterator

from .record import WARCRecord, canonical_header

_GZIP_MAGIC = b"\x1f\x8b"


class WARCFormatError(ValueError):
    """Raised when a stream does not parse as WARC."""


def _read_exact(stream: BinaryIO, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise WARCFormatError(f"truncated record: wanted {size}, got {len(data)}")
    return data


def _parse_record(stream: BinaryIO) -> WARCRecord | None:
    """Parse one record from a plain (decompressed) stream, or None at EOF."""
    # Skip inter-record blank lines.
    line = stream.readline()
    while line in (b"\r\n", b"\n"):
        line = stream.readline()
    if not line:
        return None
    version = line.strip().decode("latin-1")
    if not version.startswith("WARC/"):
        raise WARCFormatError(f"bad version line: {version!r}")
    headers: dict[str, str] = {}
    while True:
        line = stream.readline()
        if not line:
            raise WARCFormatError("EOF inside record headers")
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[canonical_header(name.strip())] = value.strip()
    try:
        length = int(headers.get("Content-Length", "0"))
    except ValueError as exc:
        raise WARCFormatError("bad Content-Length") from exc
    content = _read_exact(stream, length)
    return WARCRecord(headers=headers, content=content)


def iter_records(stream: BinaryIO) -> Iterator[WARCRecord]:
    """Iterate records from a WARC stream (gzipped or plain)."""
    head = stream.read(2)
    stream.seek(-len(head), io.SEEK_CUR)
    if head == _GZIP_MAGIC:
        yield from _iter_gzip_members(stream)
        return
    while True:
        record = _parse_record(stream)
        if record is None:
            return
        yield record


def _iter_gzip_members(stream: BinaryIO) -> Iterator[WARCRecord]:
    """Iterate records across concatenated gzip members.

    All decompression failures — truncated members (EOFError), corrupt
    headers (BadGzipFile), CRC/stream errors (zlib.error) — surface as
    :class:`WARCFormatError`, so callers handling damaged archives catch
    one typed error instead of the gzip module's internals.
    """
    # gzip.GzipFile transparently reads across members; records may also
    # span member boundaries in pathological files, so parse the joined
    # stream rather than member-by-member.
    try:
        with gzip.GzipFile(fileobj=stream, mode="rb") as plain:
            buffered = io.BufferedReader(plain)  # type: ignore[arg-type]
            while True:
                record = _parse_record(buffered)
                if record is None:
                    return
                yield record
    except (EOFError, gzip.BadGzipFile, zlib.error, struct.error) as exc:
        raise WARCFormatError(f"corrupt gzip member: {exc}") from exc


def iter_warc_file(path: str | Path) -> Iterator[WARCRecord]:
    """Iterate all records in a WARC file on disk."""
    with open(path, "rb") as stream:
        yield from iter_records(stream)


def _record_from_slice(blob: bytes) -> WARCRecord:
    """Decode one record from its raw (possibly gzipped) byte slice."""
    if blob[:2] == _GZIP_MAGIC:
        try:
            blob = zlib.decompress(blob, wbits=zlib.MAX_WBITS | 16)
        except zlib.error as exc:
            raise WARCFormatError(f"corrupt gzip member: {exc}") from exc
    record = _parse_record(io.BytesIO(blob))
    if record is None:
        raise WARCFormatError("empty record slice")
    return record


def read_record_at(path: str | Path, offset: int, length: int) -> WARCRecord:
    """Random access: read the single record stored at (offset, length).

    This is the Common Crawl fetch path — a CDX hit gives the member's byte
    range inside the WARC file; only that slice is read and decompressed.
    """
    with open(path, "rb") as stream:
        stream.seek(offset)
        blob = _read_exact(stream, length)
    return _record_from_slice(blob)


class WARCFileCache:
    """Bounded LRU of open WARC file handles for repeated range reads.

    The fetch loop reads many records from few files (a snapshot's captures
    cluster into a handful of WARC files), so re-opening the file per record
    — what bare :func:`read_record_at` does — pays open/close syscalls for
    every page.  The cache keeps up to ``maxsize`` handles open, evicting
    the least recently used.

    Not thread-safe; each pipeline worker owns its own cache (handles can't
    be shared across fork anyway).
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._handles: OrderedDict[str, BinaryIO] = OrderedDict()

    def __len__(self) -> int:
        return len(self._handles)

    def _handle(self, path: str | Path) -> BinaryIO:
        key = str(path)
        handle = self._handles.get(key)
        if handle is not None:
            self._handles.move_to_end(key)
            return handle
        handle = open(key, "rb")
        self._handles[key] = handle
        if len(self._handles) > self.maxsize:
            _, evicted = self._handles.popitem(last=False)
            evicted.close()
        return handle

    def read_record_at(self, path: str | Path, offset: int, length: int) -> WARCRecord:
        """Cached variant of :func:`read_record_at` (same contract)."""
        stream = self._handle(path)
        stream.seek(offset)
        blob = _read_exact(stream, length)
        return _record_from_slice(blob)

    def close(self) -> None:
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "WARCFileCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
