"""/check-batch: byte-parity with single requests, ordering, limits."""
import base64
import json
import random

import pytest

from repro.service import ServiceApp, ServiceConfig
from repro.service.app import post
from repro.service.batch import batch_items, frame_line, parse_batch_line

GOOD = (
    "<!DOCTYPE html><html><head><title>t</title></head>"
    "<body><p>hello</p></body></html>"
)
DIRTY = "<html><body><p>no doctype<div></p></div></body></html>"
NON_UTF8 = b"\xff\xfe <html>invalid bytes</html>"


def app(**overrides) -> ServiceApp:
    return ServiceApp(ServiceConfig(cache_size=32, **overrides))


def line(html: str | None = None, *, raw: bytes | None = None,
         url: str = "") -> bytes:
    obj: dict = {}
    if html is not None:
        obj["html"] = html
    if raw is not None:
        obj["body_b64"] = base64.b64encode(raw).decode("ascii")
    if url:
        obj["url"] = url
    return json.dumps(obj).encode("utf-8")


def run_batch(service: ServiceApp, lines: list[bytes]):
    body = b"\n".join(lines) + b"\n"
    response = service.handle_sync(post("/check-batch", body))
    return response, [ln for ln in response.body.split(b"\n") if ln]


class TestByteParity:
    def test_each_line_matches_single_response_bytes(self):
        # 200s and a 422 interleaved: every framed result must be the
        # *byte-identical* single-request response body
        service = app()
        inputs = [
            (GOOD.encode(), "http://a/"),
            (NON_UTF8, "http://b/"),
            (DIRTY.encode(), ""),
            (GOOD.encode(), "http://a/"),  # duplicate: served from cache
        ]
        lines = [line(raw=body, url=url) for body, url in inputs]
        response, out = run_batch(service, lines)
        assert response.status == 200
        assert "ndjson" in response.headers["content-type"]
        assert len(out) == len(inputs)

        fresh = app()  # separate app: no cache coupling with the batch run
        for index, (body, url) in enumerate(inputs):
            single = fresh.handle_sync(post("/check", body, url=url))
            expected = (
                b'{"index":%d,"status":%d,"result":'
                % (index, single.status)
                + single.body + b"}"
            )
            assert out[index] == expected

    def test_mixed_good_bad_corpus_replay(self):
        # a seeded corpus of good, dirty, undecodable, and malformed
        # lines replayed through batch and single paths line by line
        rng = random.Random(1347)
        lines = []
        kinds = []
        for index in range(24):
            kind = rng.choice(("good", "dirty", "non-utf8", "malformed"))
            kinds.append(kind)
            if kind == "good":
                lines.append(line(GOOD, url=f"http://g{index % 3}/"))
            elif kind == "dirty":
                lines.append(line(DIRTY, url=f"http://d{index % 2}/"))
            elif kind == "non-utf8":
                lines.append(line(raw=NON_UTF8 + bytes([index])))
            else:
                lines.append(b"{malformed json" + bytes([48 + index % 10]))
        service = app()
        _response, out = run_batch(service, lines)
        assert len(out) == len(lines)

        fresh = app()
        for index, raw in enumerate(lines):
            framed = json.loads(out[index])
            assert framed["index"] == index
            parsed = parse_batch_line(raw)
            if isinstance(parsed, tuple):
                body, url = parsed
                single = fresh.handle_sync(post("/check", body, url=url))
                assert framed["status"] == single.status
                assert out[index].endswith(single.body + b"}")
            else:
                assert framed["status"] == 400
        expected_statuses = {
            "good": 200, "dirty": 200, "non-utf8": 422, "malformed": 400,
        }
        for kind, raw_out in zip(kinds, out):
            assert json.loads(raw_out)["status"] == expected_statuses[kind]


class TestOrderingAndWindow:
    def test_results_stream_in_submission_order(self):
        service = app()
        lines = [line(GOOD, url=f"http://p{i}/") for i in range(17)]
        _response, out = run_batch(service, lines)
        assert [json.loads(ln)["index"] for ln in out] == list(range(17))

    @pytest.mark.parametrize("window", [1, 2, 64])
    def test_window_size_never_changes_results(self, window):
        lines = [line(GOOD), b"junk", line(raw=NON_UTF8), line(DIRTY)]
        _response, out = run_batch(app(batch_window=window), lines)
        _response2, reference = run_batch(app(batch_window=8), lines)
        assert out == reference

    def test_blank_lines_are_skipped(self):
        body = b"\n\n" + line(GOOD) + b"\n\n  \n" + line(DIRTY) + b"\n\n"
        assert len(batch_items(body)) == 2
        service = app()
        response = service.handle_sync(post("/check-batch", body))
        out = [ln for ln in response.body.split(b"\n") if ln]
        assert [json.loads(ln)["index"] for ln in out] == [0, 1]


class TestLimits:
    def test_too_many_lines_is_413(self):
        service = app(max_batch_lines=2)
        lines = [line(GOOD)] * 3
        response, _out = run_batch(service, lines)
        assert response.status == 413
        assert service.metrics.batch_requests == 0  # rejected before fan-out

    def test_oversized_body_is_413(self):
        service = app(max_body=64)
        response = service.handle_sync(post("/check-batch", b"x" * 65))
        assert response.status == 413

    def test_batch_metrics_recorded(self):
        service = app()
        run_batch(service, [line(GOOD), line(DIRTY)])
        assert service.metrics.batch_requests == 1
        assert service.metrics.batch_lines == 2


class TestLineParsing:
    @pytest.mark.parametrize("raw, detail", [
        (b"\xff not json", "malformed"),
        (b"[1, 2]", "object"),
        (b"{}", "exactly one"),
        (b'{"html": "a", "body_b64": "YQ=="}', "exactly one"),
        (b'{"html": 5}', "string"),
        (b'{"body_b64": "%%%"}', "base64"),
        (b'{"html": "a", "url": 7}', "url"),
        (b'{"html": "<p>\\ud800</p>"}', "utf-8"),
    ])
    def test_malformed_lines_become_400(self, raw, detail):
        result = parse_batch_line(raw)
        assert not isinstance(result, tuple)
        assert result.status == 400
        assert detail.encode() in result.body.lower()

    def test_lone_surrogate_line_fails_alone(self):
        # valid JSON whose text UTF-8 cannot encode is this line's 400;
        # its neighbours still get their 200s
        lines = [line(GOOD), b'{"html": "<p>\\ud800</p>"}', line(DIRTY)]
        response, out = run_batch(app(), lines)
        assert response.status == 200
        assert [json.loads(ln)["status"] for ln in out] == [200, 400, 200]

    def test_html_and_b64_roundtrip(self):
        assert parse_batch_line(line("abc", url="http://x/")) == (
            b"abc", "http://x/"
        )
        assert parse_batch_line(line(raw=b"\xff\x00")) == (b"\xff\x00", "")

    def test_frame_line_is_one_ndjson_line(self):
        from repro.service.http import json_response

        framed = frame_line(3, json_response(200, {"a": "b\nc"}))
        assert framed.count(b"\n") == 1 and framed.endswith(b"\n")
        parsed = json.loads(framed)
        assert parsed == {"index": 3, "status": 200,
                          "result": {"a": "b\nc"}}
