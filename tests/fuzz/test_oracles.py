"""Oracle semantics: pass, property violation, skip, and bucketing."""
from __future__ import annotations

import pytest

from repro.fuzz.bucketing import Bucket, bucket_for, top_repro_frame
from repro.fuzz.minimize import minimize
from repro.fuzz.oracles import (
    BATCH_ORACLES,
    ORACLES,
    OracleFailure,
    SkipInput,
    parallel_equivalence,
)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracles_pass_on_plain_document(name):
    ORACLES[name].run(b"<!doctype html><html><head></head><body>ok</body></html>")


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_html_oracles_skip_non_utf8(name):
    if name in ("warc", "cdx", "bytes_parity"):
        # byte-level oracles take anything; bytes_parity specifically
        # asserts the bytes tokenizer *rejects* non-UTF-8 instead of
        # skipping it (see oracle_bytes_parity's contract)
        ORACLES[name].run(b"\xff\xfe\x00")
    else:
        with pytest.raises(SkipInput):
            ORACLES[name].run(b"\xff\xfe\x00")


def test_roundtrip_skips_spec_lossy_plaintext():
    with pytest.raises(SkipInput):
        ORACLES["roundtrip"].run(b"<plaintext>x")


def test_roundtrip_skips_raw_text_retokenization():
    # the mXSS-style lossiness: serialized script text re-tokenizes
    with pytest.raises(SkipInput):
        ORACLES["roundtrip"].run(b"<style><!--</style>--></style>")


def test_roundtrip_skips_cr_from_character_reference():
    with pytest.raises(SkipInput):
        ORACLES["roundtrip"].run(b">&#xD")


@pytest.mark.parametrize(
    "page", [b"<textarea>\r\r", b"<pre>\n\nx</pre>", b"<listing>\n\nx"]
)
def test_roundtrip_skips_leading_newline_in_pre_textarea_listing(page):
    # the parser drops one LF after these start tags and the spec's
    # serialization writes none back, so the text's own leading LF is
    # dropped again on re-parse
    with pytest.raises(SkipInput, match="spec-lossy-serialization"):
        ORACLES["roundtrip"].run(page)


@pytest.mark.parametrize(
    "page",
    [
        b"<pre>x</pre>",
        b"<pre>\nx</pre>",
        b"<pre><b>x</b>\ny</pre>",
        b"<svg><textarea>\n\nx</textarea></svg>",
    ],
)
def test_roundtrip_holds_without_a_leading_newline_text(page):
    ORACLES["roundtrip"].run(page)


def test_roundtrip_accepts_foster_parenting_fixpoint():
    # nobr-in-nobr via foster parenting: non-reparseable but convergent
    with pytest.raises(SkipInput):
        ORACLES["roundtrip"].run(b"<nobr><table><nobr>")


def test_roundtrip_holds_on_deep_nesting():
    ORACLES["roundtrip"].run(b"<i>" * 1500)


def test_tokenize_budget_catches_a_looping_tokenizer():
    # the budget is linear in input length; a crafted pass-through shows
    # the oracle accepts dense-but-linear token streams
    ORACLES["tokenize"].run(b"<b>" * 2000)


def test_oracle_failure_buckets_by_detail_code():
    failure = OracleFailure("some-stable-code", "longer message")
    bucket = bucket_for("roundtrip", failure)
    assert bucket == Bucket("roundtrip", "OracleFailure", "some-stable-code")
    assert bucket.label == "roundtrip/OracleFailure@some-stable-code"


def test_crash_buckets_by_type_and_repro_frame():
    try:
        ORACLES["cdx"]  # anchor: raise from inside repro code
        from repro.warc.cdx import CDXEntry, CDXFormatError

        try:
            CDXEntry.from_line("nope")
        except CDXFormatError as exc:
            raise exc.__cause__ from None  # re-surface the original
    except Exception as exc:  # noqa: BLE001
        frame = top_repro_frame(exc)
        assert frame == "<no-repro-frame>" or ":" in frame


def test_bucket_slug_is_filesystem_safe():
    bucket = Bucket("warc", "EOFError", "reader:_parse_record")
    assert "/" not in bucket.slug and ":" not in bucket.slug


def test_parallel_equivalence_skips_empty_sample():
    with pytest.raises(SkipInput):
        parallel_equivalence([])


def test_parallel_batch_oracle_holds_on_small_sample():
    BATCH_ORACLES["parallel"].run_batch(
        [b"<p>one</p>", b"<div unclosed", b"\xff\xfe"], workers=2
    )


@pytest.mark.parametrize("workers,window", [(1, 1), (2, 1), (3, 2), (2, 8)])
def test_parallel_equivalence_across_pool_shapes(workers, window):
    """The reorder buffer must keep results in input order for any
    worker-count × in-flight-window combination the harness can draw."""
    corpus = [b"<p>one</p>", b"<div unclosed", b"\xff\xfe", b"<b><i>x</b></i>"]
    parallel_equivalence(corpus, workers=workers, window=window)


def test_minimize_shrinks_while_preserving_predicate():
    data = b"x" * 64 + b"CRASH" + b"y" * 64
    out = minimize(data, lambda d: b"CRASH" in d)
    assert out == b"CRASH"


def test_minimize_returns_flaky_input_unchanged():
    data = b"abcdef"
    assert minimize(data, lambda d: False) == data


def test_minimize_respects_attempt_budget():
    calls = []

    def predicate(d: bytes) -> bool:
        calls.append(d)
        return True

    minimize(b"z" * 4096, predicate, max_attempts=10)
    # 1 initial confirmation + at most the budget of candidate probes
    assert len(calls) <= 11
