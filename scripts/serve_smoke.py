#!/usr/bin/env python
"""End-to-end smoke test for ``repro-study serve`` (the ci.sh serve stage).

Boots the real server as a subprocess on an ephemeral port, then checks
the full request surface over actual sockets:

1. ``GET /healthz``  → 200, status ok;
2. ``POST /check``   → 200 with findings, ``x-cache: miss`` then ``hit``
   on the identical body;
3. ``POST /check`` with non-UTF-8 bytes → 422 typed decode failure;
4. ``GET /metrics``  → counters consistent with the traffic sent,
   including the connection counters;
5. ``POST /check-batch`` → chunked NDJSON stream whose first line equals
   the single ``POST /check`` payload and whose malformed second line is
   a per-line 400;
6. graceful drain over a *keep-alive* connection: one request completes,
   a second is deliberately held mid-body when SIGTERM lands — the
   already-admitted request must still complete with its 200, the
   response must say ``connection: close``, the socket must close
   cleanly, and the process must exit 0.

Step 6 is the acceptance check for shutdown: stop accepting, finish
what was admitted, then exit.  Stdlib only; exits non-zero with the
server's stderr on any failure.
"""
from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
STARTUP_TIMEOUT = 30.0
EXIT_TIMEOUT = 30.0

DIRTY_PAGE = (
    "<!DOCTYPE html><html><head><title>smoke</title></head>"
    "<body><p>text<form><p><form><p>nested</p></form></form>"
    "</body></html>"
).encode("utf-8")


def fail(proc: subprocess.Popen, message: str) -> None:
    # kill the whole process group: the server's pool workers hold the
    # stdio pipes open, so killing only the parent would wedge communicate
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        proc.kill()
    err = ""
    try:
        _out, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        pass
    print(f"serve-smoke FAILED: {message}", file=sys.stderr)
    if err:
        print("--- server stderr ---", file=sys.stderr)
        sys.stderr.write(err)
    raise SystemExit(1)


def start_server() -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "serve", "--port", "0", "--workers", "1",
        ],
        cwd=REPO, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + STARTUP_TIMEOUT
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if line or proc.poll() is not None:
            break
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if not match:
        fail(proc, f"no listening line within {STARTUP_TIMEOUT}s: {line!r}")
    return proc, int(match.group(1))


def request(
    port: int, method: str, path: str, body: bytes | None = None
) -> tuple[int, dict, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        headers = {k.lower(): v for k, v in response.getheaders()}
        return response.status, payload, headers
    finally:
        conn.close()


def read_framed_response(sock: socket.socket) -> tuple[bytes, bytes]:
    """One Content-Length-framed response off a raw socket."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        chunk = sock.recv(4096)
        if not chunk:
            break
        raw += chunk
    head, _, rest = raw.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":", 1)[1])
    while len(rest) < length:
        chunk = sock.recv(4096)
        if not chunk:
            break
        rest += chunk
    return head, rest[:length]


def check_batch(proc: subprocess.Popen, port: int, single_payload: dict) -> None:
    """``POST /check-batch`` streams per-line results matching the single
    path byte-for-byte (the dirty page's result must equal its ``POST
    /check`` payload)."""
    batch_body = b"".join((
        json.dumps({"html": DIRTY_PAGE.decode("utf-8")}).encode() + b"\n",
        b"{not ndjson\n",
    ))
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=15)
    try:
        conn.request("POST", "/check-batch", body=batch_body)
        response = conn.getresponse()
        encoding = (response.getheader("transfer-encoding") or "").lower()
        raw = response.read()  # http.client reassembles the chunked frames
    finally:
        conn.close()
    if response.status != 200 or encoding != "chunked":
        fail(proc, f"/check-batch: {response.status} framing {encoding!r}")
    lines = [json.loads(line) for line in raw.split(b"\n") if line]
    if [line["index"] for line in lines] != [0, 1]:
        fail(proc, f"/check-batch ordering: {raw[:120]!r}")
    if lines[0]["status"] != 200 or lines[0]["result"] != single_payload:
        fail(proc, "/check-batch line 0 diverges from single POST /check")
    if lines[1]["status"] != 400:
        fail(proc, f"/check-batch malformed line: {lines[1]}")


def check_drain(proc: subprocess.Popen, port: int) -> None:
    """SIGTERM with a keep-alive connection open and a request mid-body.

    The connection has already served one request (keep-alive is
    established, not hypothetical); the second request is half-sent when
    the drain begins.  The server must answer it, mark the response
    ``connection: close``, close the socket cleanly, and exit 0.
    """
    body = DIRTY_PAGE
    head = (
        f"POST /check HTTP/1.1\r\nhost: smoke\r\n"
        f"content-length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=15) as sock:
        sock.settimeout(15)
        # request 1 completes normally; the connection stays open
        sock.sendall(head + body)
        first_head, _body = read_framed_response(sock)
        if not first_head.startswith(b"HTTP/1.1 200"):
            fail(proc, f"keep-alive request 1 failed: {first_head[:60]!r}")
        if b"connection: close" in first_head:
            fail(proc, "server closed a keep-alive connection prematurely")
        # request 2 is mid-body when the drain starts
        sock.sendall(head + body[: len(body) // 2])
        time.sleep(0.2)  # let the server enter the body read
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.2)  # let the drain begin before the body completes
        sock.sendall(body[len(body) // 2:])
        second_head, _body = read_framed_response(sock)
        if not second_head.startswith(b"HTTP/1.1 200"):
            fail(proc, f"in-flight request not drained: {second_head[:60]!r}")
        if b"connection: close" not in second_head:
            fail(proc, "drained response must announce connection: close")
        try:
            trailing = sock.recv(4096)
        except (ConnectionResetError, socket.timeout):
            trailing = b""
        if trailing:
            fail(proc, f"bytes after drained response: {trailing[:60]!r}")
    try:
        code = proc.wait(timeout=EXIT_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(proc, f"server did not exit within {EXIT_TIMEOUT}s of SIGTERM")
    if code != 0:
        fail(proc, f"server exited {code} after graceful drain")


def main() -> int:
    proc, port = start_server()

    status, payload, _headers = request(port, "GET", "/healthz")
    if status != 200 or payload.get("status") != "ok":
        fail(proc, f"/healthz: {status} {payload}")

    status, payload, headers = request(port, "POST", "/check", DIRTY_PAGE)
    if status != 200 or payload.get("total", 0) < 1:
        fail(proc, f"/check: {status} {payload}")
    if headers.get("x-cache") != "miss":
        fail(proc, f"first /check should miss: {headers}")
    dirty_payload = payload

    status, repeat, headers = request(port, "POST", "/check", DIRTY_PAGE)
    if status != 200 or repeat != payload or headers.get("x-cache") != "hit":
        fail(proc, f"repeat /check should hit the cache: {status} {headers}")

    status, payload, _headers = request(
        port, "POST", "/check", b"\xff\xfe invalid \x81 bytes"
    )
    if status != 422 or payload.get("error") != "undecodable-body":
        fail(proc, f"non-UTF-8 /check: {status} {payload}")

    status, metrics, _headers = request(port, "GET", "/metrics")
    if status != 200:
        fail(proc, f"/metrics: {status}")
    checks = (
        metrics.get("requests_total", 0) >= 5,
        metrics.get("cache", {}).get("hits", 0) >= 1,
        metrics.get("decode_failures", 0) >= 1,
        metrics.get("responses_by_status", {}).get("200", 0) >= 3,
        metrics.get("connections", {}).get("total", 0) > 0,
    )
    if not all(checks):
        fail(proc, f"/metrics counters inconsistent: {metrics}")

    check_batch(proc, port, dirty_payload)
    check_drain(proc, port)
    print("serve-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
