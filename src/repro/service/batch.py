"""NDJSON batch checking: bounded fan-out, submission-order streaming.

``POST /check-batch`` takes newline-delimited JSON documents in and
streams newline-delimited results out — the ``chunk_data`` /
``aggregate_responses`` shape GenA11y uses for batched accessibility
checking, applied to this service.  Each input line::

    {"html": "<!doctype html>...", "url": "http://a/"}
    {"body_b64": "//4gaW52YWxpZA==", "url": "http://b/"}

names its document either as a UTF-8 string (``html``) or as base64 raw
bytes (``body_b64`` — how a client submits a body that may not be UTF-8,
which the checker answers with its usual 422).  Each output line frames
the *exact* single-request answer::

    {"index": 0, "status": 200, "result": <POST /check response body>}

The ``result`` value is spliced in as raw bytes from the same
:meth:`~repro.service.app.ServiceApp.run_single` call a lone ``POST
/check`` performs — byte-parity between batch and single is therefore by
construction, and the ``service_parity`` fuzz oracle plus
``tests/service/test_batch.py`` machine-check it anyway.

Scheduling reuses the :class:`~repro.pipeline.reorder.ReorderBuffer`
idiom from the study pipeline: up to ``ServiceConfig.batch_window`` lines
are in flight on the worker pool at once (in flight + buffered, so
memory stays flat however completion order scrambles), and results are
released strictly in submission order — a client can zip its inputs with
the output lines.
"""
from __future__ import annotations

import asyncio
import base64
import binascii
import json
import logging
from typing import AsyncIterator

from ..pipeline.reorder import ReorderBuffer
from .http import Response, error_response

logger = logging.getLogger("repro.service")


def batch_items(body: bytes) -> list[bytes]:
    """The non-blank NDJSON lines of a batch body, in order."""
    return [line for line in body.split(b"\n") if line.strip()]


def frame_line(index: int, response: Response) -> bytes:
    """One NDJSON result line with the raw response body spliced in.

    ``response.body`` is compact JSON (no raw newlines — ``json.dumps``
    escapes them), so the frame is itself exactly one line.
    """
    return (
        b'{"index":%d,"status":%d,"result":' % (index, response.status)
        + response.body
        + b"}\n"
    )


def parse_batch_line(raw: bytes) -> tuple[bytes, str] | Response:
    """Decode one input line to ``(document bytes, url)``.

    Anything malformed — undecodable line, non-object JSON, missing or
    conflicting document fields, ``html`` text with no UTF-8 encoding,
    bad base64 — returns the 400
    :class:`Response` that becomes this line's framed result; the rest
    of the batch is unaffected.
    """
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return error_response(400, "malformed NDJSON line")
    if not isinstance(obj, dict):
        return error_response(400, "batch line must be a JSON object")
    has_html = "html" in obj
    has_b64 = "body_b64" in obj
    if has_html == has_b64:
        return error_response(
            400, "batch line needs exactly one of 'html' or 'body_b64'"
        )
    if has_html:
        if not isinstance(obj["html"], str):
            return error_response(400, "'html' must be a string")
        try:
            body = obj["html"].encode("utf-8")
        except UnicodeEncodeError:
            # JSON can escape a lone surrogate ("\ud800"); UTF-8 cannot
            # encode one, and UTF-8 is the wire format
            return error_response(400, "'html' has no UTF-8 encoding")
    else:
        if not isinstance(obj["body_b64"], str):
            return error_response(400, "'body_b64' must be a string")
        try:
            body = base64.b64decode(obj["body_b64"], validate=True)
        except (binascii.Error, ValueError):
            return error_response(400, "'body_b64' is not valid base64")
    url = obj.get("url", "")
    if not isinstance(url, str):
        return error_response(400, "'url' must be a string")
    return body, url


async def _run_line(app, raw: bytes) -> Response:
    """One line's result: parse, then the standard single-check path.

    Worker bugs map to this line's 500 (logged and counted, same as the
    single path's last-resort handler) — an exception here must not tear
    down a stream whose head has already been written.
    """
    parsed = parse_batch_line(raw)
    if isinstance(parsed, Response):
        return parsed
    body, url = parsed
    try:
        return await app.run_single("/check", body, url=url)
    except asyncio.CancelledError:
        raise
    except Exception:
        logger.exception("unhandled error for batch line")
        app.metrics.internal_errors += 1
        return error_response(500, "internal error")


async def stream_batch(app, items: list[bytes]) -> AsyncIterator[bytes]:
    """Yield framed result lines in submission order.

    The async mirror of :func:`repro.pipeline.reorder.streamed_map`:
    submit while the window has room, wait on ``FIRST_COMPLETED``, add
    completions to the :class:`ReorderBuffer` keyed by submission index,
    and drain the contiguous prefix.  A straggler at the drain head
    throttles submission once ``window - 1`` successors are buffered —
    that back-pressure is the memory bound working.
    """
    window = max(1, app.config.batch_window)
    buffer = ReorderBuffer()
    in_flight: dict[asyncio.Task, int] = {}
    position = 0
    total = len(items)
    try:
        while position < total or in_flight or len(buffer):
            while position < total and len(in_flight) + len(buffer) < window:
                task = asyncio.ensure_future(_run_line(app, items[position]))
                in_flight[task] = position
                position += 1
            if in_flight:
                done, _pending = await asyncio.wait(
                    in_flight, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    buffer.add(in_flight.pop(task), task)
            for index, task in buffer.drain():
                yield frame_line(index, task.result())
    finally:
        for task in in_flight:
            task.cancel()
