"""`repro.service` — the checker as a long-lived HTTP service.

The batch study walks archives offline; this subsystem puts the same
checker and autofixer behind ``repro-study serve`` so external clients
(repair tools, editors, CI linters — the validator.nu workload) can
hammer it.  Architecture (DESIGN.md §3.8)::

    acceptor (asyncio) → admission queue → process-pool workers
                              │
                    content-hash LRU cache

Endpoints: ``POST /check``, ``POST /check-fragment``, ``POST /fix``,
``POST /check-batch`` (NDJSON in, streamed NDJSON out), ``GET
/healthz``, ``GET /metrics``.  All JSON, all stdlib — the HTTP layer is
this repo's own (the warcio-substitution philosophy applied to web
frameworks).  Production path (DESIGN.md §3.11): HTTP/1.1 keep-alive
with pipelining-safe framing, ``--procs N`` pre-forked acceptors on one
listening socket, and a cross-process shared result cache.  Its
open-loop load benchmark is ``benchmarks/e2e/run.py --workload
serve-mix``.

The ``service_parity`` fuzz oracle holds this layer to the repo's
differential standard: every generated document must produce the same
JSON through the request handler as a direct ``Checker.check_html``.
"""
from .app import ServiceApp, ServiceConfig, get, post
from .cache import CacheStats, ResultCache, content_key, make_cache
from .http import (
    DEFAULT_MAX_BODY,
    HTTPError,
    Request,
    Response,
    StreamingResponse,
    error_response,
    json_response,
    read_request,
)
from .metrics import AccessLogger, ServiceMetrics
from .server import CheckerService, run_service
from .shared_cache import SharedResultCache
from .workers import create_pool, report_payload, run_check, warm_worker

__all__ = [
    "AccessLogger",
    "CacheStats",
    "CheckerService",
    "DEFAULT_MAX_BODY",
    "HTTPError",
    "Request",
    "Response",
    "ResultCache",
    "ServiceApp",
    "ServiceConfig",
    "ServiceMetrics",
    "SharedResultCache",
    "StreamingResponse",
    "content_key",
    "create_pool",
    "error_response",
    "get",
    "json_response",
    "make_cache",
    "post",
    "read_request",
    "report_payload",
    "run_check",
    "run_service",
    "warm_worker",
]
