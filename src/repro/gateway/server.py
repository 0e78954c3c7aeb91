"""Simulation as a service: the stdlib-only HTTP gateway.

A :class:`ThreadingHTTPServer` front-end over the unified API facade and
the async job queue.  Stdlib only — ``http.server`` + ``json`` — so the
gateway runs anywhere the simulator does, with no new dependencies.

Routes (all payloads JSON):

================================  =========================================
``POST /v1/simulate``             submit a :class:`~repro.api.SimulateRequest`
``POST /v1/fleet``                submit a fleet-sizing plan
``POST /v1/sweep``                submit a scenario-grid sweep
``POST /v1/optimize``             submit a Pareto co-design search
``POST /v1/autoconfig-preview``   submit a zero-simulation sizing preview
``GET  /v1/jobs``                 list all jobs (status payloads)
``GET  /v1/jobs/<id>``            poll one job's status
``GET  /v1/jobs/<id>/result``     fetch the finished response envelope
``POST /v1/jobs/<id>/cancel``     cancel a still-queued job
``GET  /v1/health``               liveness + queue/store snapshot
================================  =========================================

Submissions validate synchronously — a malformed body is a structured
4xx *now*, not a failed job later — and return ``202 Accepted`` with the
job id and its status/result URLs.  Results are the facade's response
envelopes verbatim, so a body fetched over HTTP is byte-identical to the
same request run through ``repro.api`` or the CLI, and a warm repeat
reports ``new_simulations == 0``.  Errors are always
:class:`~repro.api.errors.ApiError` JSON: ``unknown-route`` 404,
``method-not-allowed`` 405, ``job-not-finished``/``job-cancelled`` 409,
``job-failed`` 500, everything else 400.  A request body must carry
``Content-Length``: a chunked one is a 400 ``invalid-json``.
"""

from __future__ import annotations

import json
import logging
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api import REQUEST_TYPES, request_from_dict
from repro.api.errors import ApiError, ApiRequestError
from repro.codec import encode
from repro.gateway.jobs import JobManager

logger = logging.getLogger("repro.gateway")

#: Largest request body the gateway will read (sweeps are lists of short
#: strings; anything bigger than this is a mistake, not a workload).
MAX_BODY_BYTES = 1 << 20
#: Read size when discarding an unread body.
_DRAIN_CHUNK = 1 << 16
#: After a reply that left the body unread, the longest wait for the
#: client's next bytes before the connection closes (``finish``).
_LINGER_S = 2.0

#: HTTP status per error code; codes not listed here are client errors (400).
_ERROR_STATUS = {
    "unknown-route": 404,
    "unknown-job": 404,
    "method-not-allowed": 405,
    "job-not-finished": 409,
    "job-cancelled": 409,
    "job-failed": 500,
    "engine-error": 422,
}


def error_status(error: ApiError) -> int:
    """The HTTP status an :class:`ApiError` travels with."""
    return _ERROR_STATUS.get(error.code, 400)


def _parse_request(raw: bytes):
    """The API request a submission body holds."""
    try:
        payload = json.loads(raw.decode("utf-8") or "null")
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ApiRequestError(ApiError(
            code="invalid-json",
            message=f"request body is not valid JSON: {error}")) from None
    return request_from_dict(payload)


def _make_handler(manager: JobManager) -> type[BaseHTTPRequestHandler]:
    """Build the handler class over a closure (no globals, testable)."""

    class GatewayHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-gateway/1"
        #: Set when a reply goes out with the request body unread.
        body_unread = False

        # ------------------------------------------------------------ plumbing
        def log_message(self, format: str, *args) -> None:  # noqa: A002
            logger.debug("%s %s", self.address_string(), format % args)

        def _send_json(self, status: int, payload: dict[str, Any]) -> None:
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            # The buffered head, its blank line and the body leave in one
            # write.  Written apart, the body waits (Nagle's algorithm) for
            # the client's delayed ACK of the head, ~40 ms per round trip.
            # An HTTP/0.9 reply buffers no head: it is the bare body.
            head = b"".join(getattr(self, "_headers_buffer", ()))
            self._headers_buffer = []
            self.wfile.write(head + b"\r\n" + body if head else body)

        def _send_error(self, error: ApiError) -> None:
            self._send_json(error_status(error), {"error": encode(error)})

        def finish(self) -> None:
            """Flush the reply; then, if the body went unread, linger.

            Closing a socket with unread input resets the connection, and
            the reset can destroy the reply before the client reads it.  So
            the write side is shut and the input discarded until the client
            closes (it has the reply by then) or goes ``_LINGER_S`` silent.
            """
            super().finish()
            if not self.body_unread:
                return
            try:  # a client that already left raises ENOTCONN
                self.connection.shutdown(socket.SHUT_WR)
                self.connection.settimeout(_LINGER_S)
                while self.connection.recv(_DRAIN_CHUNK):
                    pass
            except OSError:  # timeouts included
                pass

        def _read_body(self) -> bytes:
            header = self.headers.get("Content-Length", "0")
            encoding = self.headers.get("Transfer-Encoding")
            if encoding is not None:
                problem = (f"Transfer-Encoding {encoding!r} is not supported; "
                           "send the body with Content-Length")
            elif not (header.isascii() and header.isdigit()):
                problem = f"invalid Content-Length {header!r}"
            elif int(header) > MAX_BODY_BYTES:
                problem = f"request body exceeds {MAX_BODY_BYTES} bytes"
            else:
                length = int(header)
                return self.rfile.read(length) if length else b""
            # Answered unread: nothing after the body can be parsed, so the
            # connection ends after the reply (see finish()).
            self.close_connection = self.body_unread = True
            raise ApiRequestError(ApiError(code="invalid-json", message=problem))

        # -------------------------------------------------------------- routes
        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                # Read the body before any route answers: one left unread
                # would be parsed as the connection's next request.
                raw = self._read_body()
                parts = [p for p in self.path.split("/") if p]
                if len(parts) == 2 and parts[0] == "v1":
                    kind = parts[1]
                    if kind == "jobs":
                        raise ApiRequestError(ApiError(
                            code="method-not-allowed",
                            message="jobs are submitted via the engine "
                                    "routes; GET /v1/jobs lists them"))
                    if kind not in REQUEST_TYPES:
                        raise self._no_route()
                    request = _parse_request(raw)
                    if request.kind != kind:
                        raise ApiRequestError(ApiError(
                            code="invalid-kind",
                            message=f"route /v1/{kind} cannot run a "
                                    f"'{request.kind}' request", field="kind"))
                    job = manager.submit(request)
                    self._send_json(202, {
                        "job_id": job.job_id, "status": job.status,
                        "kind": job.kind, "fingerprint": job.fingerprint,
                        "status_url": f"/v1/jobs/{job.job_id}",
                        "result_url": f"/v1/jobs/{job.job_id}/result"})
                    return
                if (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                        and parts[3] == "cancel"):
                    job = manager.cancel(parts[2])
                    self._send_json(200, job.to_dict())
                    return
                raise self._no_route()
            except ApiRequestError as error:
                self._send_error(error.error)

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                # A body is read and ignored: one left unread would be
                # parsed as the connection's next request.
                self._read_body()
                parts = [p for p in self.path.split("/") if p]
                if parts == ["v1", "health"]:
                    jobs = manager.jobs()
                    self._send_json(200, {
                        "status": "ok",
                        "jobs": len(jobs),
                        "queued": sum(j.status == "queued" for j in jobs),
                        "running": sum(j.status == "running" for j in jobs),
                        "store_entries": (len(manager.store)
                                          if manager.store is not None
                                          else None)})
                    return
                if parts == ["v1", "jobs"]:
                    self._send_json(200, {
                        "jobs": [job.to_dict() for job in manager.jobs()]})
                    return
                if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                    self._send_json(200, manager.get(parts[2]).to_dict())
                    return
                if (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                        and parts[3] == "result"):
                    response = manager.result(parts[2])
                    self._send_json(200, response.to_dict())
                    return
                raise self._no_route()
            except ApiRequestError as error:
                self._send_error(error.error)

        def _no_route(self) -> ApiRequestError:
            known = ("/v1/simulate", "/v1/fleet", "/v1/sweep", "/v1/optimize",
                     "/v1/autoconfig-preview", "/v1/jobs", "/v1/health")
            parts = [p for p in self.path.split("/") if p]
            exists = ("/" + "/".join(parts[:2]) in known) if parts else False
            code = "method-not-allowed" if exists else "unknown-route"
            return ApiRequestError(ApiError(
                code=code,
                message=f"no handler for {self.command} {self.path}; "
                        f"routes: {', '.join(known)}"))

    return GatewayHandler


class GatewayServer:
    """The assembled gateway: HTTP front-end + job queue + shared store.

    ``port=0`` binds an ephemeral port (the tests' pattern); ``port`` is
    the bound port after construction.  Use as a context manager or call
    :meth:`close` — the underlying server is a daemon-threaded
    :class:`ThreadingHTTPServer`, so handlers never block each other and
    shutdown does not hang on idle keep-alive connections.
    """

    def __init__(self, store=None, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, runner=None) -> None:
        self.manager = JobManager(store, workers=workers, runner=runner)
        self._httpd = ThreadingHTTPServer((host, port),
                                          _make_handler(self.manager))
        self._httpd.daemon_threads = True
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = None

    @property
    def url(self) -> str:
        """Base URL of the bound server (``http://host:port``)."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (CLI entry).

        The caller stops it by raising in it (``KeyboardInterrupt``), then
        calls :meth:`close`.
        """
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> None:
        """Serve on a background daemon thread (tests, embedding)."""
        import threading

        self._thread = threading.Thread(target=self.serve_forever,
                                        daemon=True, name="gateway-http")
        self._thread.start()

    def close(self) -> None:
        """Stop the HTTP loop and the job dispatchers."""
        self.manager.shutdown()
        # Only a loop on another thread needs stopping: one on the caller's
        # thread has ended, maybe before it began, and shutdown() would
        # then wait forever for it.
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
        self._httpd.server_close()

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
