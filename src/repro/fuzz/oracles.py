"""Differential and property oracles over the parsing substrate.

Each per-input oracle is a pure function ``run(data: bytes) -> None`` with
three outcomes:

* **pass** — return normally;
* **property violation** — raise :class:`OracleFailure` with a stable
  ``detail`` code (bucketed by that code);
* **crash** — any other exception escaping the checked code (bucketed by
  exception type and top repro frame).

:class:`SkipInput` is the fourth, neutral outcome: the input is outside
the oracle's contract (non-UTF-8 bytes for the HTML oracles, documents
the HTML spec itself declares non-round-trippable for the serializer).

The ``parallel`` oracle is a *batch* oracle: it runs once per fuzz session
over a sample of the generated corpus and asserts the pipeline's core
scaling assumption — checking a page is a pure function, so a process
pool must produce bit-identical results to a sequential loop.
"""
from __future__ import annotations

import io
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core import Checker, CheckReport, DecodeFailure, autofix
from ..core.mitigations import MitigationReport, measure_mitigations
from ..core.rules import RuleExecutionError
from ..html import (
    ParseResult,
    decode_bytes,
    parse,
    parse_bytes,
    preprocess,
    serialize,
)
from ..html.bytes_tokenizer import BytesTokenizer
from ..html.dom import Element, Text
from ..html.dump import dump_tree
from ..html.serializer import RAW_TEXT_ELEMENTS
from ..html.treebuilder import (
    _IN_BODY_END,
    SPECIAL_ELEMENTS,
    StreamTreeBuilder,
    TreeBuilder,
)
from ..html.tokenizer import Tokenizer
from ..html.tokens import EOF, EndTag
from ..warc import WARCFormatError, WARCRecord, WARCWriter, iter_records, surt
from ..warc.cdx import CDXEntry, CDXFormatError


class OracleFailure(AssertionError):
    """A checked property does not hold.  ``detail`` is a stable short
    code used as the bucket key (instead of a stack frame)."""

    def __init__(self, detail: str, message: str = "") -> None:
        self.detail = detail
        super().__init__(message or detail)


class SkipInput(Exception):
    """The input is outside this oracle's contract (not a failure)."""


@dataclass(frozen=True, slots=True)
class Oracle:
    """One per-input oracle."""

    name: str
    description: str
    run: Callable[[bytes], None]


@dataclass(frozen=True, slots=True)
class BatchOracle:
    """A once-per-session oracle over a corpus sample."""

    name: str
    description: str
    run_batch: Callable[..., None]


def _decode(data: bytes) -> str:
    text = decode_bytes(data)
    if text is None:
        # the paper's methodology: non-UTF-8 documents are filtered, not
        # parsed — so the HTML oracles have nothing to check
        raise SkipInput("non-utf8")
    return text


# ------------------------------------------------------------- tokenizer

#: token budget: a linear function of input length.  The spec machine
#: emits at most one token per input character plus bounded overhead; a
#: tokenizer that exceeds this is looping.
TOKEN_BUDGET_BASE = 256
TOKEN_BUDGET_PER_CHAR = 16


def oracle_tokenize(data: bytes) -> None:
    """The bytes tokenizer never raises on UTF-8 input and never loops
    (step budget), and emits exactly one EOF token, last."""
    text = _decode(data)
    budget = TOKEN_BUDGET_BASE + TOKEN_BUDGET_PER_CHAR * len(text)
    steps = 0
    last = None
    for token in BytesTokenizer(data):
        steps += 1
        if steps > budget:
            raise OracleFailure(
                "token-budget-exceeded",
                f"{steps} tokens from {len(text)} chars: {text[:80]!r}",
            )
        if isinstance(last, EOF):
            raise OracleFailure("tokens-after-eof", repr(text[:80]))
        last = token
    if not isinstance(last, EOF):
        raise OracleFailure("missing-eof", repr(text[:80]))


def oracle_bytes_parity(data: bytes) -> None:
    """The decode-free bytes tokenizer is observationally identical to
    decode + preprocess + the per-character reference tokenizer.

    Two contracts, both checked on every input (this oracle never skips —
    the bytes domain is exactly where non-UTF-8 inputs live):

    * **UTF-8 input** — :class:`BytesTokenizer` over the raw bytes must
      emit the same tokens (including lazily materialized character data
      and attributes) and the same spec-named error sequence as the
      reference :class:`Tokenizer` over ``preprocess(decode_bytes(data)).text``.
      The parse errors are the study's violation signal (FB1/FB2/DM3 and
      parts of DE3 are detected from them), so this is what licenses the
      bytes scanner's bulk scanning: an extra token, a reordered error or
      a shifted offset is a measurement bug, not just a perf bug.  The
      bytes path keeps positions in *decoded code points*, so an offset
      drift means every downstream violation offset is wrong.
    * **non-UTF-8 input** — draining the bytes tokenizer must raise
      :class:`UnicodeDecodeError`; anything else means the section 4.1
      encoding filter silently admitted an undecodable page.
    """
    text = decode_bytes(data)
    if text is None:
        try:
            for _ in BytesTokenizer(data):
                pass
        except UnicodeDecodeError:
            return
        raise OracleFailure(
            "bytes-missed-invalid-utf8",
            f"bytes tokenizer accepted non-UTF-8 input {data[:80]!r}",
        )
    reference = Tokenizer(preprocess(text).text)
    ref_tokens = list(reference)
    lazy = BytesTokenizer(data)
    lazy_tokens = list(lazy)
    if lazy_tokens != ref_tokens:
        for index, (left, right) in enumerate(zip(lazy_tokens, ref_tokens)):
            if left != right:
                raise OracleFailure(
                    "bytes-token-divergence",
                    f"token {index}: bytes {left!r} != reference {right!r} "
                    f"in {data[:80]!r}",
                )
        raise OracleFailure(
            "bytes-token-divergence",
            f"{len(lazy_tokens)} bytes vs {len(ref_tokens)} reference tokens "
            f"in {data[:80]!r}",
        )
    if lazy.errors != reference.errors:
        for index, (left, right) in enumerate(
            zip(lazy.errors, reference.errors)
        ):
            if left != right:
                raise OracleFailure(
                    "bytes-error-divergence",
                    f"error {index}: bytes {left!r} != reference {right!r} "
                    f"in {data[:80]!r}",
                )
        raise OracleFailure(
            "bytes-error-divergence",
            f"{len(lazy.errors)} bytes vs {len(reference.errors)} reference "
            f"errors in {data[:80]!r}",
        )
    if lazy.decoded_bytes > lazy.input_bytes:
        raise OracleFailure(
            "bytes-decode-overcount",
            f"decoded {lazy.decoded_bytes} of {lazy.input_bytes} payload "
            f"bytes in {data[:80]!r}",
        )


# ------------------------------------------------------------- round-trip


#: start tags after which the parser ignores one leading newline
_LEADING_NEWLINE_DROPPED = frozenset({"pre", "textarea", "listing"})


def _serialization_lossy(document) -> bool:
    """True for documents the HTML spec's own serialization section
    declares non-round-trippable.

    ``plaintext`` can never be closed, so its serialized end tag re-parses
    as text; raw-text elements (script/style/...) whose character data
    contains comment or tag openers re-tokenize differently (the spec's
    "string round-trips" warning — the same lossiness behind mXSS); and a
    carriage return placed in the DOM by ``&#xD;`` serializes as a raw CR
    (spec escaping covers only ``&``/nbsp/``<``/``>``) which re-parsing's
    preprocessor normalizes to LF.

    An HTML ``pre``, ``textarea`` or ``listing`` whose first child is a
    Text node starting with LF is lossy too: the parser drops a newline
    directly after those start tags (spec 13.2.6.4.7, "in body"), and the
    fragment serialization algorithm (spec 13.3) writes no newline back,
    so the text's leading LF is dropped again on re-parse.
    """
    for node in document.iter():
        if isinstance(node, Text):
            if "\r" in node.data:
                return True
            continue
        if not isinstance(node, Element):
            continue
        element = node
        if any("\r" in value for value in element.attributes.values()):
            return True
        if element.name == "plaintext":
            return True
        if (
            element.name in _LEADING_NEWLINE_DROPPED
            and element.is_html()
            and element.children
            and isinstance(element.children[0], Text)
            and element.children[0].data.startswith("\n")
        ):
            return True
        if element.name in RAW_TEXT_ELEMENTS:
            text = element.text_content().lower()
            if "<!--" in text or "</" in text or "<script" in text:
                return True
    return False


def _contains_unnestable(document) -> bool:
    """True for trees bearing the adoption-agency's fingerprints.

    ``a`` and ``nobr`` are the formatting elements whose start tag
    auto-closes an open same-name element (via the adoption agency), so
    same-name nesting — which the agency's reconstruction step can
    itself build — is a shape re-parsing will never reproduce.  The same
    goes for an ``a``/``nobr`` directly containing a *special* (block)
    element: serializing keeps the block inside, but re-parsing
    reconstructs the formatting element around the block's contents
    instead.
    """
    for element in document.iter_elements():
        if element.name not in ("a", "nobr") or not element.is_html():
            continue
        if any(
            getattr(ancestor, "name", None) == element.name
            for ancestor in element.ancestors()
        ):
            return True
        for child in element.children:
            if (
                isinstance(child, Element)
                and child.is_html()
                and child.name in SPECIAL_ELEMENTS
            ):
                return True
    return False


def _normalized_dump(document) -> str:
    """html5lib-format dump with the doctype reduced to its name (the
    serializer emits ``<!DOCTYPE name>`` only, per spec 13.3)."""
    lines = []
    for line in dump_tree(document).split("\n"):
        if line.startswith("| <!DOCTYPE "):
            name = line[len("| <!DOCTYPE "):].split('"')[0].strip(" >")
            line = f"| <!DOCTYPE {name}>"
        lines.append(line)
    return "\n".join(lines)


def oracle_roundtrip(data: bytes) -> None:
    """parse → serialize → reparse reaches a tree fix-point.

    The reparsed tree must equal the original parse (modulo the doctype
    ids the spec's serialization drops), and serializing it again must be
    byte-identical — the serializer faithfully externalizes the DOM.

    One spec-sanctioned exception: foster parenting can build trees that
    re-parsing will never rebuild — ``<a><table><a>`` nests the fostered
    ``a`` inside the first, but re-parsing the serialization closes the
    first ``a`` instead (likewise ``nobr``, ``p``-closers, implied end
    tags).  Foreign content has an analogous asymmetry: an in-body
    ``</p>`` seen inside ``<math>``/``<svg>`` inserts an HTML ``p``
    *inside* the foreign element, which the breakout rule pops right out
    on reparse.  Both shapes need an enabling context — an open table
    (possibly via template) or a foreign element — so a first-round
    mismatch in such a document is accepted **iff** the second round is a
    genuine fix-point; otherwise every mismatch is a failure.
    """
    text = _decode(data)
    first = parse(text)
    if _serialization_lossy(first.document):
        raise SkipInput("spec-lossy-serialization")
    serialized = serialize(first.document)
    second = parse(serialized)
    if _normalized_dump(second.document) != _normalized_dump(first.document):
        lossy_context = any(
            first.document.find(name) is not None
            for name in ("table", "template", "math", "svg")
        ) or _contains_unnestable(first.document)
        if lossy_context:
            # serialize∘parse must still reach a fix-point — one round
            # per level of adoption-agency re-nesting, so the budget
            # scales with how misnested a document can get before the
            # input-size cap; a byte-stable serialization implies a
            # stable tree, since parse is a pure function of the string
            current = serialize(second.document)
            for _ in range(24):
                next_round = serialize(parse(current).document)
                if next_round == current:
                    raise SkipInput("reparse-lossy-context")
                current = next_round
        raise OracleFailure(
            "reparse-tree-mismatch",
            f"input {text[:60]!r} serialized {serialized[:60]!r}",
        )
    reserialized = serialize(second.document)
    if reserialized != serialized:
        raise OracleFailure(
            "serialize-not-idempotent",
            f"{serialized[:60]!r} -> {reserialized[:60]!r}",
        )


# ----------------------------------------------------------- tree builder


class _HandlerEndTags:
    """Reference in-body dispatch: every end tag runs its handler.

    Mixed in front of a production builder, it drops
    ``TreeBuilder._mode_in_body``'s direct pop of a current node that an
    end tag closes, so the parse goes through the spec-transcribed
    handlers that the shortcut skips.
    """

    def _mode_in_body(self, token) -> bool:
        if token.__class__ is EndTag:
            handler = _IN_BODY_END.get(token.name)
            if handler is None:
                return self._any_other_end_tag(token)
            return handler(self, token)
        return super()._mode_in_body(token)


class ReferenceTreeBuilder(_HandlerEndTags, TreeBuilder):
    """:class:`TreeBuilder` with every in-body end tag sent to its handler."""


class ReferenceStreamTreeBuilder(_HandlerEndTags, StreamTreeBuilder):
    """:class:`StreamTreeBuilder` with every in-body end tag sent to its
    handler."""


#: (label, production builder, reference builder)
BUILDER_PAIRS = (
    ("dom", TreeBuilder, ReferenceTreeBuilder),
    ("stream", StreamTreeBuilder, ReferenceStreamTreeBuilder),
)


def _parse_record(builder, data: bytes) -> tuple:
    """Everything a parse exposes, as comparable ``(field, value)`` pairs."""
    result = builder.parse_bytes(data)
    stream = result.stream_elements
    record = (
        ("tree", dump_tree(result.document)),
        ("errors", result.errors),
        ("events", result.events),
        ("stream", None if stream is None else [
            (element.name, in_head) for element, in_head in stream
        ]),
        ("taint", getattr(builder, "tainted", None)),
    )
    result.release()
    return record


def oracle_parse_parity(data: bytes) -> None:
    """The tree builders' end-tag shortcut changes nothing observable.

    An in-body end tag that closes the current node is popped directly
    instead of running its handler (the handler-only names aside).  Both
    production builders must produce the same tree dump, parse errors,
    tree events, stream emission (element names and ``in_head`` flags)
    and taint reason as their :class:`_HandlerEndTags` reference twins.
    """
    _decode(data)  # SkipInput for non-UTF-8 (neither builder gets a tree)
    for label, production, reference in BUILDER_PAIRS:
        got = _parse_record(production(), data)
        expected = _parse_record(reference(), data)
        for (field, left), (_field, right) in zip(expected, got):
            if left != right:
                raise OracleFailure(
                    "parse-parity-divergence",
                    f"{label} builder {field}: reference {str(left)[:80]} "
                    f"!= production {str(right)[:80]} in {data[:80]!r}",
                )


# ---------------------------------------------------------------- autofix


def oracle_autofix(data: bytes) -> None:
    """The automatic repair is a fix-point: ``fix(fix(x)) == fix(x)``,
    and the repaired output no longer violates the repaired rules."""
    text = _decode(data)
    first = autofix(text)
    second = autofix(first.fixed)
    if second.fixed != first.fixed:
        raise OracleFailure(
            "autofix-not-fixpoint",
            f"{first.fixed[:60]!r} -> {second.fixed[:60]!r}",
        )
    repaired = {finding.violation for finding in first.repaired}
    still = {
        finding.violation
        for finding in (*second.repaired, *second.remaining)
    } & repaired
    if still:
        raise OracleFailure(
            "autofix-residual-violations", f"{sorted(still)} in {text[:60]!r}"
        )


# ------------------------------------------------------------------- WARC

_WARC_DATE = "2022-01-01T00:00:00Z"


def oracle_warc(data: bytes) -> None:
    """WARC write → read is a byte-exact round-trip (plain and gzip), and
    corrupted/truncated gzip members fail with the typed
    :class:`WARCFormatError`, never a raw gzip/zlib exception."""
    record = WARCRecord.response("http://fuzz.example/page", data, _WARC_DATE)
    tail = WARCRecord.response("http://fuzz.example/tail", b"tail", _WARC_DATE)
    gzip_blob = b""
    member_span = (0, 0)
    for use_gzip in (False, True):
        buffer = io.BytesIO()
        writer = WARCWriter(buffer, use_gzip=use_gzip)
        member_span = writer.write_record(record)
        writer.write_record(tail)
        blob = buffer.getvalue()
        records = list(iter_records(io.BytesIO(blob)))
        if len(records) != 2:
            raise OracleFailure("warc-record-count", f"{len(records)} != 2")
        if records[0].content != record.content:
            raise OracleFailure("warc-content-mismatch", f"{len(data)} bytes")
        if records[0].headers != record.headers:
            raise OracleFailure("warc-header-mismatch", str(record.headers))
        if use_gzip:
            gzip_blob = blob

    # CDX-style random access: one member decompresses to one record
    offset, length = member_span
    member = gzip_blob[offset:offset + length]
    alone = list(iter_records(io.BytesIO(member)))
    if len(alone) != 1 or alone[0].content != record.content:
        raise OracleFailure("warc-member-access", f"{len(alone)} records")

    # corruption tolerance: deterministic truncations and bit flips must
    # either still parse (slack bytes) or raise the typed error
    probe = zlib.crc32(data)
    corrupted = [
        member[: max(1, length // 3)],
        member[: max(1, length - 1)],
        member[:probe % length] + bytes([member[probe % length] ^ 0x55])
        + member[probe % length + 1:],
    ]
    for blob in corrupted:
        try:
            list(iter_records(io.BytesIO(blob)))
        except WARCFormatError:
            pass


# -------------------------------------------------------------------- CDX


def _valid_cdx_entry() -> CDXEntry:
    return CDXEntry(
        urlkey=surt("http://fuzz.example/x"),
        timestamp="20220101000000",
        url="http://fuzz.example/x",
        mime="text/html",
        status=200,
        digest="sha1:FUZZ",
        length=128,
        offset=0,
        filename="fuzz-00000.warc.gz",
    )


def oracle_cdx(data: bytes) -> None:
    """CDX lines either parse or raise the typed :class:`CDXFormatError`;
    a written line always round-trips field-for-field."""
    entry = _valid_cdx_entry()
    line = entry.to_line()
    if CDXEntry.from_line(line) != entry:
        raise OracleFailure("cdx-roundtrip-mismatch", line)

    text = data.decode("utf-8", "replace")
    text = text.replace("\r", " ").replace("\n", " ")
    probe = zlib.crc32(data) % (len(line) - 1)
    variants = (
        text,                               # arbitrary junk as a line
        line[:probe],                       # truncated line
        line[:probe] + text + line[probe:],  # junk spliced into a line
        f"{entry.urlkey} {entry.timestamp} {text}",  # junk JSON payload
    )
    for variant in variants:
        try:
            CDXEntry.from_line(variant)
        except CDXFormatError:
            pass


# ---------------------------------------------------------------- service

#: one inline-mode app reused across iterations; its result cache stays
#: enabled on purpose — a content-hash collision or stale-entry bug would
#: surface as a parity divergence on the next input
_SERVICE_APP = None


def _service_app():
    global _SERVICE_APP
    if _SERVICE_APP is None:
        from ..service import ServiceApp, ServiceConfig

        _SERVICE_APP = ServiceApp(ServiceConfig(cache_size=64))
    return _SERVICE_APP


def oracle_service_parity(data: bytes) -> None:
    """The HTTP service layer is a faithful wrapper over the checker.

    Routes the input through the in-process request handler (the same
    ``ServiceApp.handle`` production traffic hits — routing, admission,
    cache and all) and diffs the JSON response against a direct
    :meth:`Checker.check_html` call.  Any divergence — a dropped finding,
    a shifted offset, a cache entry served for the wrong body — means the
    service is *measuring differently than the study*, the exact bug
    class the bytes_parity oracle guards against one layer down.

    The same input is then pushed through ``POST /check-batch`` as a
    ``body_b64`` line, and the framed result must contain the single
    response's bytes *verbatim* — the batch endpoint is a re-framing of
    the single path, never a re-implementation.  This runs before the
    non-UTF-8 skip so 422 outcomes are parity-checked too.

    Non-UTF-8 input must map to a 422 whose payload names the encoding
    filter; after verifying that, the input is out of the HTML oracles'
    contract and is skipped.
    """
    import base64
    import json

    from ..service import ServiceApp  # noqa: F401 - ensures import errors surface here
    from ..service.app import post
    from ..service.workers import report_payload

    app = _service_app()
    response = app.handle_sync(post("/check", data, url="http://fuzz.example/page"))

    batch_line = json.dumps({
        "body_b64": base64.b64encode(data).decode("ascii"),
        "url": "http://fuzz.example/page",
    }).encode("ascii") + b"\n"
    batch_response = app.handle_sync(post("/check-batch", batch_line))
    if batch_response.status != 200:
        raise OracleFailure(
            "service-batch-status",
            f"batch wrapper answered {batch_response.status}",
        )
    expected = (
        b'{"index":0,"status":%d,"result":' % response.status
        + response.body + b"}\n"
    )
    if batch_response.body != expected:
        raise OracleFailure(
            "service-batch-parity",
            f"batch line {batch_response.body[:80]!r} != "
            f"framed single response {expected[:80]!r}",
        )

    text = decode_bytes(data)
    if text is None:
        if response.status != 422:
            raise OracleFailure(
                "service-non-utf8-status",
                f"expected 422 for undecodable body, got {response.status}",
            )
        payload = json.loads(response.body)
        if payload.get("error") != "undecodable-body":
            raise OracleFailure(
                "service-non-utf8-payload", repr(payload)[:120]
            )
        raise SkipInput("non-utf8")

    if response.status != 200:
        raise OracleFailure(
            "service-status",
            f"{response.status} for decodable {len(data)}-byte body",
        )
    served = json.loads(response.body)
    direct = report_payload(
        Checker().check_html(text, url="http://fuzz.example/page")
    )
    if served != direct:
        for key in sorted(set(served) | set(direct)):
            if served.get(key) != direct.get(key):
                raise OracleFailure(
                    "service-parity-divergence",
                    f"field {key!r}: served {str(served.get(key))[:80]} != "
                    f"direct {str(direct.get(key))[:80]}",
                )
        raise OracleFailure("service-parity-divergence", "unlocated diff")


# ----------------------------------------------------------- fused engine


class ReferenceChecker(Checker):
    """The per-rule reference engine: every rule runs its own ``check``.

    Each rule traverses the parse independently, in rule-set order, and
    a failing rule is wrapped in :class:`RuleExecutionError` naming its
    id, as the fused engine does.  The section 4.5 mitigation report comes
    from the standalone :func:`measure_mitigations` pass instead of the
    fused attribute sweep.  ``fused_parity`` and the equivalence tests
    diff :class:`Checker` against it.
    """

    def check_parse(self, result: ParseResult, url: str = "") -> CheckReport:
        report = CheckReport(url=url)
        findings = report.findings
        for rule in self.rules:
            try:
                findings.extend(rule.check(result))
            except Exception as exc:
                raise RuleExecutionError(rule.id, exc) from exc
        return report

    def check_parse_with_mitigations(
        self, result: ParseResult, url: str = ""
    ) -> tuple[CheckReport, MitigationReport]:
        return self.check_parse(result, url=url), measure_mitigations(result)


#: one pair of engines reused across iterations; rules are stateless by
#: contract (the footprint staticcheck pass proves it), so reuse is safe
#: and any cross-call state leak would itself surface as a divergence
_FUSED_CHECKER: Checker | None = None
_REFERENCE_CHECKER: ReferenceChecker | None = None


def _engine_pair() -> tuple[Checker, ReferenceChecker]:
    global _FUSED_CHECKER, _REFERENCE_CHECKER
    if _FUSED_CHECKER is None:
        _FUSED_CHECKER = Checker()
        _REFERENCE_CHECKER = ReferenceChecker()
    return _FUSED_CHECKER, _REFERENCE_CHECKER


def oracle_fused_parity(data: bytes) -> None:
    """The fused single-pass engine equals the per-rule reference path.

    :class:`Checker` compiles all rules' declared footprints into one
    streaming walk (:mod:`repro.core.rules.fused`); :class:`ReferenceChecker`
    runs each rule's own ``check`` traversal.  The
    two must produce **bit-identical ordered findings** on every parse —
    not just the same multiset: downstream reports slice by offset and
    evidence, so ordering or field drift is as much a bug as a missing
    finding.  This is the same retained-reference pattern that pins the
    bytes tokenizer to the per-character ``Tokenizer`` base.

    The section 4.5 mitigation report rides the fused attribute sweep
    (``check_parse_with_mitigations``); it must equal the standalone
    :func:`~repro.core.mitigations.measure_mitigations` pass.  The fused
    engine runs first, on attributes nothing has read yet, so its sweep
    meets the byte regions its ``value_chars`` skip may pass over.
    """
    text = _decode(data)
    result = parse(text)
    fused, reference = _engine_pair()
    report, mitigation = fused.check_parse_with_mitigations(result)
    got = report.findings
    expected = reference.check_parse(result).findings
    expected_mitigation = measure_mitigations(result)
    if mitigation != expected_mitigation:
        raise OracleFailure(
            "fused-mitigation-divergence",
            f"reference {expected_mitigation!r} != fused {mitigation!r}"[:240],
        )
    if got != expected:
        length = f"{len(got)} fused vs {len(expected)} reference findings"
        for index, (left, right) in enumerate(zip(expected, got)):
            if left != right:
                raise OracleFailure(
                    "fused-parity-divergence",
                    f"finding {index}: reference {left!r} != fused {right!r}",
                )
        raise OracleFailure("fused-parity-length", length)


_STREAM_CHECKER: "Checker | None" = None


def _stream_checker() -> Checker:
    global _STREAM_CHECKER
    if _STREAM_CHECKER is None:
        _STREAM_CHECKER = Checker()
    return _STREAM_CHECKER


def oracle_stream_parity(data: bytes) -> None:
    """DOM-free stream checking equals the materialized-DOM walk.

    ``Checker.check_bytes`` parses through
    :class:`~repro.html.treebuilder.StreamTreeBuilder` — elements are
    emitted in pre-order while parsing, text/comment nodes are never
    built, and the fused tree dispatch runs over the flat emission list.
    Pages whose parse performs a tree-reordering mutation (foster
    parenting, adoption-agency reparenting, frameset body takeover, the
    after-head reroute) *taint* and fall back to the ordinary DOM walk
    over the element-complete tree.  Either way the findings must be
    **bit-identical ordered** to the same fused engine's ``check_parse``
    over the full DOM from :func:`~repro.html.parse_bytes` — this is the
    machine check behind the stream check's correctness argument,
    including the fallback path: both the taint classifier (does the
    builder notice the mutation?) and the emission invariant (is the
    untainted emission really the final pre-order?) fail loudly here if
    wrong.
    """
    _decode(data)  # SkipInput for non-UTF-8 (both parses would just agree)
    checker = _stream_checker()
    got = checker.check_bytes(data)
    try:
        reference = parse_bytes(data)
    except UnicodeDecodeError:
        reference = None
    if (reference is None) != isinstance(got, DecodeFailure):
        raise OracleFailure(
            "stream-decode-divergence",
            f"dom {'DecodeFailure' if reference is None else 'parse'} vs "
            f"stream {type(got).__name__}",
        )
    if reference is None:
        return
    expected = checker.check_parse(reference)
    reference.release()
    if got.findings != expected.findings:
        for index, (left, right) in enumerate(
            zip(expected.findings, got.findings)
        ):
            if left != right:
                raise OracleFailure(
                    "stream-parity-divergence",
                    f"finding {index}: dom {left!r} != stream {right!r}",
                )
        raise OracleFailure(
            "stream-parity-length",
            f"{len(got.findings)} stream vs {len(expected.findings)} dom",
        )


# --------------------------------------------------- sequential ∥ parallel


def check_counts(data: bytes) -> tuple[bool, tuple[tuple[str, int], ...]]:
    """The per-page result the study stores, as a comparable value.

    Module-level (not a closure) so a process pool can pickle it — the
    same constraint the real :mod:`repro.pipeline.parallel` workers obey.
    """
    report = Checker().check_bytes(data)
    if isinstance(report, DecodeFailure):
        # the encoding filter rejected the page
        return (False, ())
    return (True, tuple(sorted(report.counts.items())))


def parallel_equivalence(
    corpus: Sequence[bytes], *, workers: int = 2, window: int | None = None
) -> None:
    """Checking fuzzed pages through a process pool must equal the
    sequential loop element-for-element (the sharding soundness claim).

    The pool is driven through :func:`repro.pipeline.reorder.streamed_map`
    — the exact completion-streamed scheduler the study's parallel runner
    uses — so this batch oracle differentially fuzzes the reorder buffer
    too: the harness varies ``workers`` and the in-flight ``window``
    (``None`` means the whole corpus at once) per session, and any
    ordering bug surfaces as an index whose sequential and parallel
    results disagree.

    The sequential pass runs first so a crashing input fails in-process
    with an attributable traceback rather than through pool plumbing.
    """
    from ..pipeline.reorder import streamed_map

    if not corpus:
        raise SkipInput("empty-corpus-sample")
    if window is None:
        window = len(corpus)
    sequential = [check_counts(data) for data in corpus]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        submit = lambda data: pool.submit(check_counts, data)
        parallel = list(streamed_map(submit, list(corpus), window=window))
    if len(parallel) != len(sequential):
        raise OracleFailure(
            "parallel-length-divergence",
            f"{len(parallel)} parallel results != {len(sequential)} inputs "
            f"(workers={workers}, window={window})",
        )
    for index, (left, right) in enumerate(zip(sequential, parallel)):
        if left != right:
            raise OracleFailure(
                "parallel-divergence",
                f"input {index}: sequential {left} != parallel {right} "
                f"(workers={workers}, window={window})",
            )


def _dedup_mutation(data: bytes) -> bytes:
    """A deterministic near-miss revision of ``data`` (content changed)."""
    import hashlib

    tag = hashlib.sha256(data).hexdigest()[:8].encode("ascii")
    return data + b"<!-- rev " + tag + b" -->"


def _write_dedup_snapshot(
    root, name: str, year: int, pages: Sequence[tuple[str, bytes]]
) -> dict:
    """One synthetic snapshot (WARC part + CDXJ index) under ``root``."""
    from pathlib import Path

    from ..commoncrawl.snapshot import _cdx_timestamp, _warc_date
    from ..warc import CDXWriter

    warc_dir = root / "crawl-data" / name / "warc"
    warc_dir.mkdir(parents=True, exist_ok=True)
    index_dir = root / "cc-index"
    index_dir.mkdir(parents=True, exist_ok=True)
    cdx = CDXWriter()
    part_rel = Path("crawl-data") / name / "warc" / "part-00000.warc.gz"
    with open(root / part_rel, "wb") as stream:
        writer = WARCWriter(stream)
        writer.write_record(
            WARCRecord.warcinfo(
                "part-00000.warc.gz", _warc_date(year, 0),
                {"software": "repro-fuzz/1.0", "isPartOf": name},
            )
        )
        for counter, (url, payload) in enumerate(pages):
            date = _warc_date(year, counter)
            record = WARCRecord.response(
                url, payload, date, content_type="text/html; charset=UTF-8"
            )
            offset, length = writer.write_record(record)
            cdx.add(
                CDXEntry(
                    urlkey=surt(url), timestamp=_cdx_timestamp(date),
                    url=url, mime="text/html", status=200,
                    digest=record.payload_digest, length=length,
                    offset=offset, filename=str(part_rel),
                )
            )
    cdx.write(index_dir / f"{name}.cdxj")
    return {
        "id": name, "name": f"fuzz crawl {year}", "year": year,
        "cdx-api": f"cc-index/{name}.cdxj", "records": len(pages),
    }


def dedup_parity(
    corpus: Sequence[bytes], *, workers: int = 2, window: int | None = None
) -> None:
    """The dedup ingest must never change results (the §3.13 parity claim).

    Builds a two-snapshot archive from the fuzzed corpus with controlled
    cross-snapshot churn — page ``i`` is byte-identical in the second
    snapshot when ``i % 3 == 0``, deterministically mutated when
    ``i % 3 == 1``, and dropped when ``i % 3 == 2`` — then asserts:

    * the incremental run's canonical aggregate dump is byte-identical
      to the full pipeline's (carry-forward is invisible to analyses);
    * a parallel incremental run (``workers`` from the session config)
      produces a full dump — provenance column included — byte-identical
      to the sequential incremental run.

    ``window`` is accepted for batch-oracle signature compatibility; the
    reorder window is exercised by the ``parallel`` oracle.
    """
    import json
    import tempfile
    from pathlib import Path

    from ..commoncrawl.snapshot import snapshot_name
    from ..incremental import DedupConfig, execute_study_run

    del window
    if not corpus:
        raise SkipInput("empty-corpus-sample")
    # cap the archive size: the oracle runs once per session and pays
    # three full pipeline executions over this corpus
    sample = list(corpus)[:12]
    domain = "fuzz-dedup.example"
    pages_a = [
        (f"https://{domain}/p{index}", data)
        for index, data in enumerate(sample)
    ]
    pages_b = [
        (url, data if index % 3 == 0 else _dedup_mutation(data))
        for index, (url, data) in enumerate(pages_a)
        if index % 3 != 2
    ]
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-dedup-") as tmp:
        root = Path(tmp)
        collinfo = [
            _write_dedup_snapshot(root, snapshot_name(2021), 2021, pages_a),
            _write_dedup_snapshot(root, snapshot_name(2022), 2022, pages_b),
        ]
        (root / "collinfo.json").write_text(json.dumps(collinfo))
        domains = [(domain, 1000.0)]

        def run(dedup, run_workers, index_path=None):
            manifest, _stats = execute_study_run(
                archive_root=root, db_path=":memory:", domains=domains,
                max_pages=len(sample) + 1, workers=run_workers, seed=0,
                dedup=dedup, index_path=index_path,
            )
            return manifest["results"]

        full = run(None, 1)
        incremental = run(DedupConfig(), 1)
        if incremental["aggregate_sha256"] != full["aggregate_sha256"]:
            raise OracleFailure(
                "dedup-aggregate-divergence",
                f"incremental aggregate {incremental['aggregate_sha256']} != "
                f"full {full['aggregate_sha256']} over {len(sample)} pages",
            )
        parallel = run(
            DedupConfig(), max(2, workers),
            index_path=root / "content-index.sqlite",
        )
        if parallel["full_sha256"] != incremental["full_sha256"]:
            raise OracleFailure(
                "dedup-parallel-divergence",
                f"workers={max(2, workers)} incremental full dump "
                f"{parallel['full_sha256']} != sequential "
                f"{incremental['full_sha256']}",
            )


# --------------------------------------------------------------- registry

#: per-input oracles, keyed by CLI name
ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "tokenize",
            "bytes tokenizer never raises, never loops (step budget), "
            "single EOF",
            oracle_tokenize,
        ),
        Oracle(
            "bytes_parity",
            "decode-free bytes tokenizer matches decode+preprocess+"
            "per-char reference tokenizer; non-UTF-8 input raises",
            oracle_bytes_parity,
        ),
        Oracle(
            "roundtrip",
            "parse -> serialize -> reparse tree equivalence and idempotence",
            oracle_roundtrip,
        ),
        Oracle(
            "autofix",
            "autofix is a fix-point and clears the rules it repairs",
            oracle_autofix,
        ),
        Oracle(
            "fused_parity",
            "fused single-pass check engine emits findings bit-identical "
            "to the per-rule reference path; its mitigation sweep equals "
            "the standalone pass",
            oracle_fused_parity,
        ),
        Oracle(
            "parse_parity",
            "tree builders with the in-body end-tag shortcut equal their "
            "handler-only references (tree, errors, events, stream, taint)",
            oracle_parse_parity,
        ),
        Oracle(
            "stream_parity",
            "DOM-free stream check mode (incl. taint fallback) emits "
            "findings bit-identical to the materialized-DOM walk",
            oracle_stream_parity,
        ),
        Oracle(
            "service_parity",
            "the HTTP service handler returns byte-for-byte the same check "
            "result as a direct Checker.check_html call",
            oracle_service_parity,
        ),
        Oracle(
            "warc",
            "WARC write -> read byte round-trip; corrupt gzip fails typed",
            oracle_warc,
        ),
        Oracle(
            "cdx",
            "CDX lines parse or raise CDXFormatError; written lines round-trip",
            oracle_cdx,
        ),
    )
}

#: batch oracles, run once per fuzz session over a corpus sample
BATCH_ORACLES: dict[str, BatchOracle] = {
    "parallel": BatchOracle(
        "parallel",
        "sequential and process-pool checking produce identical results",
        parallel_equivalence,
    ),
    "dedup_parity": BatchOracle(
        "dedup_parity",
        "incremental dedup ingest is bit-identical to the full pipeline, "
        "sequential and parallel",
        dedup_parity,
    ),
}
