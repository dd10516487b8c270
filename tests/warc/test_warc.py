"""WARC/1.0 substrate tests: records, writer/reader round trips, random
access, and CDX indexing."""
from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warc import (
    CDXEntry,
    CDXIndex,
    CDXWriter,
    WARCFormatError,
    WARCRecord,
    WARCWriter,
    iter_records,
    parse_http_response,
    read_record_at,
    surt,
)


def make_record(index: int = 0, payload: bytes = b"<html>x</html>") -> WARCRecord:
    return WARCRecord.response(
        f"http://example.com/page{index}", payload, "2015-03-20T10:00:00Z"
    )


class TestRecord:
    def test_response_record_headers(self):
        record = make_record()
        assert record.record_type == "response"
        assert record.target_uri == "http://example.com/page0"
        assert record.date == "2015-03-20T10:00:00Z"
        assert record.headers["WARC-Record-ID"].startswith("<urn:uuid:")

    def test_payload_strips_http_envelope(self):
        record = make_record(payload=b"BODY")
        assert record.payload == b"BODY"
        assert b"HTTP/1.1 200" in record.content

    def test_payload_digest_stable(self):
        a = make_record(payload=b"same")
        b = make_record(1, payload=b"same")
        assert a.payload_digest == b.payload_digest
        assert a.payload_digest.startswith("sha1:")

    @given(st.binary(max_size=300), st.sampled_from([200, 404, 503]))
    @settings(max_examples=50, deadline=None)
    def test_digest_header_matches_parsed_payload(self, payload, status):
        """response() hashes the body it wraps; re-parsing the block agrees."""
        record = WARCRecord.response(
            "http://example.com/", payload, "2015-03-20T10:00:00Z",
            status_code=status,
        )
        assert record.headers["WARC-Payload-Digest"] == record.payload_digest

    def test_http_response_parse(self):
        response = parse_http_response(
            b"HTTP/1.1 404 Not Found\r\nContent-Type: text/html\r\n\r\nmissing"
        )
        assert response.status_code == 404
        assert response.reason == "Not Found"
        assert response.content_type == "text/html"
        assert response.body == b"missing"

    def test_http_response_header_case_insensitive(self):
        response = parse_http_response(
            b"HTTP/1.1 200 OK\r\ncontent-type: a/b\r\n\r\n"
        )
        assert response.get_header("Content-Type") == "a/b"

    def test_malformed_http_returns_none(self):
        assert parse_http_response(b"not http at all") is None
        assert parse_http_response(b"GARBAGE 200\r\n\r\nx") is None

    def test_angle_bracket_uri_unwrapped(self):
        record = WARCRecord(headers={"WARC-Target-URI": "<http://a/>"})
        assert record.target_uri == "http://a/"

    def test_warcinfo(self):
        record = WARCRecord.warcinfo("f.warc.gz", "2020-01-01T00:00:00Z",
                                     {"software": "test"})
        assert record.record_type == "warcinfo"
        assert b"software: test" in record.content


class TestWriterReader:
    def test_gzip_roundtrip(self):
        buffer = io.BytesIO()
        writer = WARCWriter(buffer)
        for index in range(5):
            writer.write_record(make_record(index))
        records = list(iter_records(io.BytesIO(buffer.getvalue())))
        assert len(records) == 5
        assert [r.target_uri for r in records] == [
            f"http://example.com/page{i}" for i in range(5)
        ]

    def test_plain_roundtrip(self):
        buffer = io.BytesIO()
        writer = WARCWriter(buffer, use_gzip=False)
        writer.write_record(make_record())
        records = list(iter_records(io.BytesIO(buffer.getvalue())))
        assert len(records) == 1

    def test_offsets_strictly_increasing(self):
        buffer = io.BytesIO()
        writer = WARCWriter(buffer)
        spans = [writer.write_record(make_record(i)) for i in range(4)]
        for (off_a, len_a), (off_b, _len_b) in zip(spans, spans[1:]):
            assert off_a + len_a == off_b

    def test_random_access(self, tmp_path):
        path = tmp_path / "t.warc.gz"
        with open(path, "wb") as stream:
            writer = WARCWriter(stream)
            spans = [writer.write_record(make_record(i, f"p{i}".encode()))
                     for i in range(10)]
        record = read_record_at(path, *spans[7])
        assert record.payload == b"p7"

    def test_random_access_plain(self, tmp_path):
        path = tmp_path / "t.warc"
        with open(path, "wb") as stream:
            writer = WARCWriter(stream, use_gzip=False)
            span = writer.write_record(make_record(3, b"three"))
        assert read_record_at(path, *span).payload == b"three"

    def test_truncated_slice_raises(self, tmp_path):
        path = tmp_path / "t.warc.gz"
        with open(path, "wb") as stream:
            writer = WARCWriter(stream)
            offset, length = writer.write_record(make_record())
        with pytest.raises(WARCFormatError):
            read_record_at(path, offset, length + 100)

    def test_bad_stream_raises(self):
        with pytest.raises(WARCFormatError):
            list(iter_records(io.BytesIO(b"NOT A WARC\r\n\r\n")))

    def test_empty_stream_yields_nothing(self):
        assert list(iter_records(io.BytesIO(b""))) == []

    @given(
        st.lists(
            st.binary(min_size=0, max_size=500),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_payload_roundtrip(self, payloads):
        buffer = io.BytesIO()
        writer = WARCWriter(buffer)
        for index, payload in enumerate(payloads):
            writer.write_record(make_record(index, payload))
        records = list(iter_records(io.BytesIO(buffer.getvalue())))
        assert [record.payload for record in records] == payloads


class TestSurt:
    @pytest.mark.parametrize(
        ("url", "expected"),
        [
            ("http://www.example.com/path?Q=1", "com,example)/path?q=1"),
            ("https://example.com/", "com,example)/"),
            ("http://sub.example.co.uk/A/B", "uk,co,example,sub)/a/b"),
            ("example.com/x", "com,example)/x"),
        ],
    )
    def test_canonicalization(self, url, expected):
        assert surt(url) == expected

    def test_www_stripped(self):
        assert surt("http://www.a.com/") == surt("http://a.com/")


class TestCDX:
    def make_entries(self):
        return [
            CDXEntry(
                urlkey=surt(f"http://site{site}.com/p{page}"),
                timestamp=f"2015031{page}000000",
                url=f"http://site{site}.com/p{page}",
                mime="text/html",
                status=200,
                digest="sha1:x",
                length=100 + page,
                offset=page * 1000,
                filename="part-00000.warc.gz",
            )
            for site in range(3)
            for page in range(4)
        ]

    def test_write_load_roundtrip(self, tmp_path):
        writer = CDXWriter()
        for entry in self.make_entries():
            writer.add(entry)
        path = tmp_path / "index.cdxj"
        count = writer.write(path)
        index = CDXIndex.load(path)
        assert len(index) == count == 12

    def test_sorted_by_urlkey(self, tmp_path):
        writer = CDXWriter()
        for entry in reversed(self.make_entries()):
            writer.add(entry)
        path = tmp_path / "index.cdxj"
        writer.write(path)
        lines = path.read_text().splitlines()
        assert lines == sorted(lines)

    def test_exact_lookup(self):
        index = CDXIndex(self.make_entries())
        hits = index.lookup("http://site1.com/p2")
        assert len(hits) == 1
        assert hits[0].offset == 2000

    def test_domain_query(self):
        index = CDXIndex(self.make_entries())
        hits = list(index.domain_query("site1.com"))
        assert len(hits) == 4
        assert all("site1" in hit.url for hit in hits)

    def test_domain_query_limit(self):
        index = CDXIndex(self.make_entries())
        assert len(list(index.domain_query("site1.com", limit=2))) == 2

    def test_domain_query_no_cross_domain_prefix(self):
        entries = self.make_entries()
        entries.append(
            CDXEntry(
                urlkey=surt("http://site11.com/x"), timestamp="20150101000000",
                url="http://site11.com/x", mime="text/html", status=200,
                digest="d", length=1, offset=0, filename="f",
            )
        )
        index = CDXIndex(entries)
        assert all(
            "site11" not in hit.url for hit in index.domain_query("site1.com")
        )

    def test_line_roundtrip(self):
        entry = self.make_entries()[0]
        assert CDXEntry.from_line(entry.to_line()) == entry
