"""WARC record model (ISO 28500 / WARC 1.0).

A record is a set of named headers plus a content block.  For ``response``
records the block is an HTTP message; :attr:`WARCRecord.payload` strips the
HTTP envelope, which is what the crawler feeds to the checker.
"""
from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass, field

WARC_VERSION = "WARC/1.0"

#: Header names in canonical casing (headers are case-insensitive on read).
_CANONICAL = {
    "warc-type": "WARC-Type",
    "warc-record-id": "WARC-Record-ID",
    "warc-date": "WARC-Date",
    "warc-target-uri": "WARC-Target-URI",
    "warc-payload-digest": "WARC-Payload-Digest",
    "warc-block-digest": "WARC-Block-Digest",
    "warc-ip-address": "WARC-IP-Address",
    "warc-concurrent-to": "WARC-Concurrent-To",
    "warc-warcinfo-id": "WARC-Warcinfo-ID",
    "content-type": "Content-Type",
    "content-length": "Content-Length",
}


def canonical_header(name: str) -> str:
    return _CANONICAL.get(name.lower(), name)


@dataclass(slots=True)
class HTTPResponse:
    """Minimal parsed HTTP response envelope inside a WARC response block."""

    status_code: int
    reason: str
    headers: list[tuple[str, str]]
    body: bytes

    def get_header(self, name: str, default: str | None = None) -> str | None:
        lowered = name.lower()
        for header, value in self.headers:
            if header.lower() == lowered:
                return value
        return default

    @property
    def content_type(self) -> str:
        return self.get_header("Content-Type", "") or ""

    def to_bytes(self) -> bytes:
        lines = [f"HTTP/1.1 {self.status_code} {self.reason}".encode("latin-1")]
        lines.extend(
            f"{name}: {value}".encode("latin-1") for name, value in self.headers
        )
        return b"\r\n".join(lines) + b"\r\n\r\n" + self.body


def parse_http_response(block: bytes) -> HTTPResponse | None:
    """Parse the HTTP envelope of a response block; None if malformed."""
    separator = block.find(b"\r\n\r\n")
    if separator == -1:
        return None
    head = block[:separator].decode("latin-1", "replace")
    body = block[separator + 4 :]
    lines = head.split("\r\n")
    status_line = lines[0].split(None, 2)
    if len(status_line) < 2 or not status_line[0].startswith("HTTP/"):
        return None
    try:
        status_code = int(status_line[1])
    except ValueError:
        return None
    reason = status_line[2] if len(status_line) > 2 else ""
    headers: list[tuple[str, str]] = []
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name:
            headers.append((name.strip(), value.strip()))
    return HTTPResponse(status_code, reason, headers, body)


@dataclass(slots=True)
class WARCRecord:
    """One WARC record: headers + raw content block."""

    headers: dict[str, str] = field(default_factory=dict)
    content: bytes = b""

    # ---------------------------------------------------------- accessors

    @property
    def record_type(self) -> str:
        return self.headers.get("WARC-Type", "")

    @property
    def target_uri(self) -> str:
        uri = self.headers.get("WARC-Target-URI", "")
        # Some writers wrap the URI in angle brackets.
        if uri.startswith("<") and uri.endswith(">"):
            return uri[1:-1]
        return uri

    @property
    def date(self) -> str:
        return self.headers.get("WARC-Date", "")

    @property
    def http_response(self) -> HTTPResponse | None:
        if self.record_type not in ("response", "revisit"):
            return None
        return parse_http_response(self.content)

    @property
    def payload(self) -> bytes:
        """The record payload: HTTP body for responses, raw block otherwise."""
        response = self.http_response
        if response is not None:
            return response.body
        return self.content

    @property
    def payload_digest(self) -> str:
        return "sha1:" + hashlib.sha1(self.payload).hexdigest()

    # -------------------------------------------------------- constructors

    @classmethod
    def response(
        cls,
        url: str,
        payload: bytes,
        date: str,
        *,
        status_code: int = 200,
        content_type: str = "text/html; charset=UTF-8",
        extra_http_headers: list[tuple[str, str]] | None = None,
    ) -> "WARCRecord":
        """Build a ``response`` record wrapping ``payload`` in HTTP/1.1."""
        http_headers = [
            ("Content-Type", content_type),
            ("Content-Length", str(len(payload))),
        ]
        if extra_http_headers:
            http_headers.extend(extra_http_headers)
        response = HTTPResponse(status_code, "OK" if status_code == 200 else "",
                                http_headers, payload)
        block = response.to_bytes()
        return cls(
            headers={
                "WARC-Type": "response",
                "WARC-Record-ID": f"<urn:uuid:{uuid.uuid4()}>",
                "WARC-Date": date,
                "WARC-Target-URI": url,
                "Content-Type": "application/http; msgtype=response",
                "Content-Length": str(len(block)),
                # the payload is the HTTP body just wrapped: hash it
                # directly rather than re-parse the block
                "WARC-Payload-Digest": "sha1:" + hashlib.sha1(payload).hexdigest(),
            },
            content=block,
        )

    @property
    def is_revisit(self) -> bool:
        return self.record_type == "revisit"

    @property
    def refers_to_uri(self) -> str:
        return self.headers.get("WARC-Refers-To-Target-URI", "")

    @classmethod
    def revisit(
        cls,
        url: str,
        date: str,
        *,
        refers_to_uri: str,
        refers_to_date: str,
        payload_digest: str,
    ) -> "WARCRecord":
        """A deduplicated capture (identical-payload-digest profile).

        Common Crawl stores repeat captures of identical content as
        ``revisit`` records pointing at the original response; the block
        carries only the HTTP headers, no body.
        """
        block = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
        return cls(
            headers={
                "WARC-Type": "revisit",
                "WARC-Record-ID": f"<urn:uuid:{uuid.uuid4()}>",
                "WARC-Date": date,
                "WARC-Target-URI": url,
                "WARC-Refers-To-Target-URI": refers_to_uri,
                "WARC-Refers-To-Date": refers_to_date,
                "WARC-Payload-Digest": payload_digest,
                "WARC-Profile": (
                    "http://netpreserve.org/warc/1.0/revisit/"
                    "identical-payload-digest"
                ),
                "Content-Type": "application/http; msgtype=response",
                "Content-Length": str(len(block)),
            },
            content=block,
        )

    @classmethod
    def warcinfo(cls, filename: str, date: str, fields: dict[str, str]) -> "WARCRecord":
        body = "".join(f"{k}: {v}\r\n" for k, v in fields.items()).encode()
        return cls(
            headers={
                "WARC-Type": "warcinfo",
                "WARC-Record-ID": f"<urn:uuid:{uuid.uuid4()}>",
                "WARC-Date": date,
                "WARC-Filename": filename,
                "Content-Type": "application/warc-fields",
                "Content-Length": str(len(body)),
            },
            content=body,
        )
