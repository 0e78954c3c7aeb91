"""End-to-end tests for the HTTP gateway and its async job queue.

The gateway is exercised the way a client sees it: a real
``ThreadingHTTPServer`` on an ephemeral port, real ``urllib`` requests,
JSON bodies both ways.  The properties under test are the service
contract: submissions validate synchronously (structured 4xx now, not a
failed job later), results are the facade's envelopes verbatim, the
shared store makes the gateway a multi-tenant cache (a warm repeat from
*any* client costs zero new simulations), and the same request yields a
byte-identical report over HTTP, through ``repro.api`` and via the CLI.
"""

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection

import pytest

from repro import api
from repro.api import AutoconfigPreviewRequest, SimulateRequest
from repro.cli import main as cli_main
from repro.gateway import JobManager, GatewayServer
from repro.sweep.store import ResultStore

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Small, fast serving run shared by the e2e tests.
FAST = dict(llm="llama2-7b", input_tokens=64, output_tokens=16,
            rate=20.0, requests=30, seed=7)


def http(url, method="GET", payload=None, raw=None):
    """One JSON round-trip; 4xx/5xx return (status, body) instead of raising."""
    body = raw if raw is not None else (
        None if payload is None else json.dumps(payload).encode("utf-8"))
    request = urllib.request.Request(
        url, data=body, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def poll_until_done(base_url, job_id, timeout=60.0):
    """Poll the status route the way an HTTP client would."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        status, job = http(f"{base_url}/v1/jobs/{job_id}")
        assert status == 200
        if job["status"] in ("done", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not finished after {timeout}s")


def strip_accounting(payload):
    return {key: value for key, value in payload.items()
            if key not in ("served_from_store", "new_simulations",
                           "store_hits", "store_misses")}


@pytest.fixture
def gateway(tmp_path):
    store = ResultStore(tmp_path / "store.jsonl")
    with GatewayServer(store, port=0) as server:
        yield server


@pytest.fixture
def slow_gateway():
    """One worker whose first job blocks until ``release`` is set."""
    release = threading.Event()
    started = threading.Event()

    def runner(request, *, store=None, telemetry=None):
        started.set()
        assert release.wait(timeout=30)
        return api.run(request, store=store, telemetry=telemetry)

    with GatewayServer(None, port=0, workers=1, runner=runner) as server:
        yield server, release, started
        release.set()


class CountingSocket:
    """A connection socket that records every ``sendall`` it is handed."""

    def __init__(self, sock, writes):
        self._sock, self._writes = sock, writes

    def sendall(self, data, *args):
        self._writes.append(bytes(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def record_writes(server, monkeypatch):
    """The list every write of ``server``'s handlers is appended to."""
    writes = []
    handler = server._httpd.RequestHandlerClass
    setup = handler.setup

    def counting_setup(self):
        self.request = CountingSocket(self.request, writes)
        setup(self)

    monkeypatch.setattr(handler, "setup", counting_setup)
    return writes


def read_to_eof(sock):
    """Every byte the peer sends until it closes (``sock``'s timeout bounds it)."""
    chunks = []
    while chunk := sock.recv(1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def split_replies(data):
    """``(status line, headers, JSON body)`` of each HTTP/1.1 reply in ``data``."""
    replies = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        body, data = data[:length], data[length:]
        replies.append((status_line, headers, json.loads(body)))
    return replies


class TestSubmitPollFetch:
    def test_submit_poll_fetch_round_trip(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        status, accepted = http(f"{gateway.url}/v1/simulate", "POST", payload)
        assert status == 202
        assert accepted["status"] == "queued"
        assert accepted["status_url"] == f"/v1/jobs/{accepted['job_id']}"
        assert accepted["result_url"] == \
            f"/v1/jobs/{accepted['job_id']}/result"

        job = poll_until_done(gateway.url, accepted["job_id"])
        assert job["status"] == "done"
        assert job["new_simulations"] == 1
        assert job["fingerprint"] == accepted["fingerprint"]
        # The job carries its engine run's telemetry totals.
        assert job["telemetry"]["spans"] > 0

        status, result = http(f"{gateway.url}{accepted['result_url']}")
        assert status == 200
        assert result["kind"] == "simulate"
        assert result["new_simulations"] == 1
        assert not result["served_from_store"]
        assert result["report"]["num_requests"] == FAST["requests"]

    def test_warm_repeat_is_served_from_the_shared_store(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        _, first = http(f"{gateway.url}/v1/simulate", "POST", payload)
        poll_until_done(gateway.url, first["job_id"])
        _, cold = http(f"{gateway.url}/v1/jobs/{first['job_id']}/result")

        # Second client, same request: zero new simulations, same bytes.
        _, second = http(f"{gateway.url}/v1/simulate", "POST", payload)
        poll_until_done(gateway.url, second["job_id"])
        status, warm = http(f"{gateway.url}/v1/jobs/{second['job_id']}/result")
        assert status == 200
        assert warm["new_simulations"] == 0
        assert warm["store_hits"] > 0
        assert warm["served_from_store"]
        assert strip_accounting(warm) == strip_accounting(cold)

    def test_store_outlives_the_gateway_process(self, tmp_path):
        path = tmp_path / "store.jsonl"
        payload = SimulateRequest(**FAST).to_dict()
        with GatewayServer(ResultStore(path), port=0) as first:
            _, job = http(f"{first.url}/v1/simulate", "POST", payload)
            poll_until_done(first.url, job["job_id"])
        # A freshly started gateway over the same store file serves warm.
        with GatewayServer(ResultStore(path), port=0) as second:
            _, job = http(f"{second.url}/v1/simulate", "POST", payload)
            poll_until_done(second.url, job["job_id"])
            _, warm = http(f"{second.url}/v1/jobs/{job['job_id']}/result")
        assert warm["new_simulations"] == 0
        assert warm["served_from_store"]

    def test_health_reports_queue_and_store(self, gateway):
        status, health = http(f"{gateway.url}/v1/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["jobs"] == 0
        assert health["store_entries"] == 0

    def test_jobs_listing_shows_submissions(self, gateway):
        payload = AutoconfigPreviewRequest(llm="llama2-7b").to_dict()
        _, accepted = http(f"{gateway.url}/v1/autoconfig-preview", "POST",
                           payload)
        poll_until_done(gateway.url, accepted["job_id"])
        status, listing = http(f"{gateway.url}/v1/jobs")
        assert status == 200
        assert [job["job_id"] for job in listing["jobs"]] == \
            [accepted["job_id"]]


class TestValidationErrors:
    def test_invalid_json_body_is_400(self, gateway):
        status, body = http(f"{gateway.url}/v1/simulate", "POST",
                            raw=b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid-json"

    def test_oversized_body_is_400(self, gateway):
        from repro.gateway import MAX_BODY_BYTES

        # The client sends the whole body before it reads the reply, so a
        # server that answers without reading it races the client's send:
        # repeat the POST until a lost race would have shown.
        for _ in range(20):
            status, body = http(f"{gateway.url}/v1/simulate", "POST",
                                raw=b" " * (MAX_BODY_BYTES + 1))
            assert status == 400
            assert body["error"]["code"] == "invalid-json"

    @pytest.mark.parametrize("size", [5 << 20, 32 << 20])
    def test_far_oversized_body_keeps_its_400(self, gateway, size):
        # The server answers without reading such a body; closing the
        # socket on the unread input would reset the connection and lose
        # the reply, so the server lingers until the client has read it.
        body = b" " * size
        for _ in range(10):
            status, reply = http(f"{gateway.url}/v1/simulate", "POST",
                                 raw=body)
            assert status == 400
            assert reply["error"]["code"] == "invalid-json"

    @pytest.mark.parametrize("field, value, path", [
        ("overlay", 5, "overlay"),
        ("faults", [5], "faults[0]"),
        ("requests", 40.0, "requests"),
        ("max_batch", 32.0, "max_batch"),
        ("requests", True, "requests"),
    ])
    def test_mistyped_field_is_400_at_submission(self, gateway, field, value,
                                                 path):
        payload = {**SimulateRequest(**FAST).to_dict(), field: value}
        status, body = http(f"{gateway.url}/v1/simulate", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-field"
        assert body["error"]["field"] == path
        assert http(f"{gateway.url}/v1/jobs")[1]["jobs"] == []

    def test_nonpositive_fleet_max_batch_is_400_at_submission(self, gateway):
        payload = {"kind": "fleet", "rate": 8.0, "max_batch": 0}
        status, body = http(f"{gateway.url}/v1/fleet", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-field"
        assert body["error"]["field"] == "max_batch"
        assert http(f"{gateway.url}/v1/jobs")[1]["jobs"] == []

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5", ""])
    def test_malformed_content_length_is_400(self, gateway, length):
        connection = HTTPConnection(gateway.host, gateway.port, timeout=3)
        try:
            connection.putrequest("POST", "/v1/simulate")
            connection.putheader("Content-Length", length)
            connection.endheaders(b"{}")
            response = connection.getresponse()
            assert response.status == 400
            body = json.loads(response.read())
        finally:
            connection.close()
        assert body["error"]["code"] == "invalid-json"
        assert "Content-Length" in body["error"]["message"]

    def test_unknown_field_is_400_with_field_path(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        payload["rte"] = 9.0
        status, body = http(f"{gateway.url}/v1/simulate", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "unknown-field"
        assert body["error"]["field"] == "rte"

    def test_missing_required_field_is_400(self, gateway):
        status, body = http(f"{gateway.url}/v1/fleet", "POST",
                            payload={"kind": "fleet"})
        assert status == 400
        assert body["error"]["code"] == "missing-field"
        assert body["error"]["field"] == "rate"

    def test_kind_route_mismatch_is_400(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        status, body = http(f"{gateway.url}/v1/fleet", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-kind"

    def test_invalid_field_value_is_400(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        payload["scheduler"] = "lifo"
        status, body = http(f"{gateway.url}/v1/simulate", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "invalid-field"
        assert body["error"]["field"] == "scheduler"

    @pytest.mark.parametrize("field, value", [
        ("scenarios", ["x"]), ("schedulers", ["x"]), ("routers", ["x"]),
        ("trace", "x"), ("autoscaler", "x")])
    def test_unknown_sweep_name_is_400_at_submission(self, gateway, field, value):
        payload = {"kind": "sweep", "designs": ["baseline"], field: value}
        status, body = http(f"{gateway.url}/v1/sweep", "POST", payload)
        assert (status, body["error"]["field"]) == (400, field)
        assert http(f"{gateway.url}/v1/jobs")[1]["jobs"] == []

    def test_sweep_with_no_point_is_400_at_submission(self, gateway):
        payload = {"kind": "sweep", "designs": ["baseline"],
                   "models": ["dit-xl-2"], "schedulers": ["fcfs"],
                   "arrival_rates": [4.0]}
        status, body = http(f"{gateway.url}/v1/sweep", "POST", payload)
        assert status == 400
        assert (body["error"]["code"], body["error"]["field"]) == \
            ("invalid-field", "models")
        assert http(f"{gateway.url}/v1/jobs")[1]["jobs"] == []

    def test_unsupported_schema_version_is_400(self, gateway):
        payload = SimulateRequest(**FAST).to_dict()
        payload["schema_version"] = 99
        status, body = http(f"{gateway.url}/v1/simulate", "POST", payload)
        assert status == 400
        assert body["error"]["code"] == "unsupported-schema-version"

    def test_unknown_route_is_404(self, gateway):
        status, body = http(f"{gateway.url}/v1/simulator", "POST",
                            payload={})
        assert status == 404
        assert body["error"]["code"] == "unknown-route"

    def test_unknown_job_is_404(self, gateway):
        status, body = http(f"{gateway.url}/v1/jobs/job-999999")
        assert status == 404
        assert body["error"]["code"] == "unknown-job"

    def test_get_on_engine_route_is_405(self, gateway):
        status, body = http(f"{gateway.url}/v1/simulate")
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"

    def test_post_to_jobs_listing_is_405(self, gateway):
        status, body = http(f"{gateway.url}/v1/jobs", "POST", payload={})
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"

    @pytest.mark.parametrize("path, status", [
        ("/v1/nope", 404), ("/v1/jobs", 405), ("/v1/jobs/abc/cancel", 404)])
    def test_post_answered_without_its_body_keeps_the_connection(
            self, gateway, path, status):
        # The reply must not leave the body unread: the server would parse
        # it as the start of the connection's next request.
        connection = HTTPConnection(gateway.host, gateway.port, timeout=3)
        try:
            connection.request("POST", path,
                               body=json.dumps(SimulateRequest(**FAST).to_dict()),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == status
            assert "error" in json.loads(response.read())
            connection.request("GET", "/v1/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestWire:
    """What a response looks like on the socket."""

    def test_every_response_is_one_write(self, slow_gateway, monkeypatch):
        # A head written apart from its body makes the body wait (Nagle's
        # algorithm) for the client's delayed ACK of the head, ~40 ms.
        server, release, started = slow_gateway
        writes = record_writes(server, monkeypatch)
        connection = HTTPConnection(server.host, server.port, timeout=10)

        def exchange(method, path, body=None, status=200):
            mark = len(writes)
            connection.request(method, path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            assert response.status == status
            headers = response.getheaders()
            assert headers[0] == ("Server", "repro-gateway/1 Python/"
                                  + sys.version.split()[0])
            assert headers[1][0] == "Date"
            assert headers[2:] == [("Content-Type", "application/json"),
                                   ("Content-Length", str(len(data)))]
            payload = json.loads(data)
            assert data == json.dumps(payload).encode("utf-8")
            head = "".join([f"HTTP/1.1 {status} {response.reason}\r\n",
                            *(f"{name}: {value}\r\n" for name, value in headers),
                            "\r\n"])
            sent = writes[mark:]
            assert len(sent) == 1, f"{method} {path}: {len(sent)} writes"
            assert sent[0] == head.encode("latin-1") + data
            return payload

        preview = json.dumps(AutoconfigPreviewRequest(llm="llama2-7b").to_dict())
        try:
            job = exchange("POST", "/v1/autoconfig-preview", preview, 202)
            assert started.wait(timeout=10)
            exchange("GET", job["result_url"], status=409)
            release.set()
            while exchange("GET", job["status_url"])["status"] != "done":
                time.sleep(0.01)
            exchange("GET", job["result_url"])
            exchange("GET", "/v1/jobs")
            exchange("POST", f"/v1/jobs/{job['job_id']}/cancel")
            exchange("GET", "/v1/health")
            exchange("GET", "/v1/nope", status=404)
            exchange("GET", "/v1/simulate", status=405)
            invalid = {**SimulateRequest(**FAST).to_dict(), "scheduler": "lifo"}
            exchange("POST", "/v1/simulate", json.dumps(invalid), 400)
            # Answered unread, and the connection's last reply.
            error = exchange("POST", "/v1/simulate", b" " * (5 << 20), 400)
            assert error["error"]["code"] == "invalid-json"
        finally:
            connection.close()

    def test_http_0_9_reply_is_the_bare_body(self, gateway, monkeypatch):
        writes = record_writes(gateway, monkeypatch)
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(b"GET /v1/health\r\n\r\n")
            reply = read_to_eof(sock)
        assert json.loads(reply)["status"] == "ok"
        assert writes == [reply]

    @pytest.mark.parametrize("request_line", [b"POST /v1/simulate",
                                              b"GET /v1/health"],
                             ids=["post", "get"])
    def test_chunked_body_gets_one_400_then_the_close(self, gateway,
                                                      request_line):
        # Read as a body-less request, the chunk-size line would be parsed
        # as the connection's next request.
        body = json.dumps(SimulateRequest(**FAST).to_dict()).encode("utf-8")
        request = (request_line + b" HTTP/1.1\r\nHost: gateway\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n"
                   + b"GET /v1/health HTTP/1.1\r\nHost: gateway\r\n\r\n")
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            reply = read_to_eof(sock)
        head, _, rest = reply.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        assert status_line == "HTTP/1.1 400 Bad Request"
        headers = dict(line.split(": ", 1) for line in header_lines)
        assert headers["Content-Type"] == "application/json"
        assert len(rest) == int(headers["Content-Length"])
        error = json.loads(rest)["error"]
        assert error["code"] == "invalid-json"
        assert "Transfer-Encoding 'chunked'" in error["message"]
        assert "Content-Length" in error["message"]

    def test_get_body_is_read_before_the_next_request(self, gateway):
        # Left unread, the body would be parsed as the connection's next
        # request line and the pipelined request never answered.
        request = (b"GET /v1/health HTTP/1.1\r\nHost: gateway\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: 13\r\n\r\n" b'{"a": "bcde"}'
                   b"GET /v1/jobs HTTP/1.1\r\nHost: gateway\r\n"
                   b"Connection: close\r\n\r\n")
        with socket.create_connection((gateway.host, gateway.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            reply = read_to_eof(sock)
        (health_line, _, health), (jobs_line, _, jobs) = split_replies(reply)
        assert health_line == jobs_line == "HTTP/1.1 200 OK"
        assert health["status"] == "ok"
        assert jobs == {"jobs": []}


class TestShutdown:
    def test_close_before_the_loop_began_returns(self):
        # A signal can end the CLI's serve loop before the loop begins.
        server = GatewayServer(None, port=0)
        closer = threading.Thread(target=server.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()

    @pytest.mark.skipif(os.name != "posix", reason="POSIX signal dispositions")
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_stops_on_signal_with_sigint_ignored(self, signum):
        # A shell starts a background job (`cmd &`) with SIGINT ignored, and
        # the disposition survives exec.
        launch = ("import os, signal, sys; "
                  "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                  "os.execv(sys.executable, [sys.executable, '-m', "
                  "'repro.cli', 'gateway', '--port', '0'])")
        process = subprocess.Popen(
            [sys.executable, "-c", launch], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        try:
            assert "listening on http://" in process.stdout.readline()
            process.send_signal(signum)
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()


class TestJobLifecycle:
    def test_cancel_queued_job_then_409_on_result(self, slow_gateway):
        server, release, started = slow_gateway
        payload = AutoconfigPreviewRequest(llm="llama2-7b").to_dict()
        _, first = http(f"{server.url}/v1/autoconfig-preview", "POST", payload)
        assert started.wait(timeout=10)
        _, second = http(f"{server.url}/v1/autoconfig-preview", "POST",
                         payload)

        # Result of the still-running first job: 409, try again later.
        status, body = http(f"{server.url}/v1/jobs/{first['job_id']}/result")
        assert status == 409
        assert body["error"]["code"] == "job-not-finished"

        # The queued second job cancels; its result is a 409 forever.
        status, cancelled = http(
            f"{server.url}/v1/jobs/{second['job_id']}/cancel", "POST")
        assert status == 200
        assert cancelled["status"] == "cancelled"
        status, body = http(f"{server.url}/v1/jobs/{second['job_id']}/result")
        assert status == 409
        assert body["error"]["code"] == "job-cancelled"

        # Cancelling the running first job is a no-op; it still completes.
        status, running = http(
            f"{server.url}/v1/jobs/{first['job_id']}/cancel", "POST")
        assert status == 200
        assert running["status"] == "running"
        release.set()
        job = poll_until_done(server.url, first["job_id"])
        assert job["status"] == "done"

    def test_worker_crash_is_a_500_job_failed(self):
        def runner(request, *, store=None, telemetry=None):
            raise RuntimeError("engine exploded")

        with GatewayServer(None, port=0, workers=1, runner=runner) as server:
            payload = AutoconfigPreviewRequest(llm="llama2-7b").to_dict()
            _, accepted = http(f"{server.url}/v1/autoconfig-preview", "POST",
                               payload)
            job = poll_until_done(server.url, accepted["job_id"])
            assert job["status"] == "failed"
            assert job["error"]["code"] == "job-failed"
            status, body = http(
                f"{server.url}/v1/jobs/{accepted['job_id']}/result")
        assert status == 500
        assert body["error"]["code"] == "job-failed"
        assert "engine exploded" in body["error"]["message"]


class TestJobManager:
    def test_ids_are_dense_and_fifo(self):
        manager = JobManager(None, workers=1,
                             runner=lambda request, **kwargs: api.run(request))
        request = AutoconfigPreviewRequest(llm="llama2-7b")
        jobs = [manager.submit(request) for _ in range(3)]
        assert [job.job_id for job in jobs] == \
            ["job-000001", "job-000002", "job-000003"]
        for job in jobs:
            assert manager.wait(job.job_id, timeout=30).status == "done"
        manager.shutdown()

    def test_submit_after_shutdown_is_rejected(self):
        manager = JobManager(None, workers=1)
        manager.shutdown()
        with pytest.raises(RuntimeError, match="shutting down"):
            manager.submit(AutoconfigPreviewRequest(llm="llama2-7b"))


class TestCrossSurfaceIdentity:
    def test_http_api_and_cli_reports_are_byte_identical(self, tmp_path,
                                                         capsys):
        request = SimulateRequest(**FAST)

        # Surface 1: direct facade call against a fresh store.
        via_api = api.simulate(
            request, store=ResultStore(tmp_path / "api.jsonl")).to_dict()

        # Surface 2: the HTTP gateway against its own fresh store.
        with GatewayServer(ResultStore(tmp_path / "http.jsonl"),
                           port=0) as server:
            _, accepted = http(f"{server.url}/v1/simulate", "POST",
                               request.to_dict())
            poll_until_done(server.url, accepted["job_id"])
            _, via_http = http(
                f"{server.url}/v1/jobs/{accepted['job_id']}/result")

        # Cold runs on fresh stores: the *entire* envelope matches,
        # accounting included.
        assert json.dumps(via_http, sort_keys=True) == \
            json.dumps(via_api, sort_keys=True)

        # Surface 3: the CLI with --json against its own fresh store.
        out_path = tmp_path / "report.json"
        code = cli_main([
            "--llm", FAST["llm"],
            "--input-tokens", str(FAST["input_tokens"]),
            "--output-tokens", str(FAST["output_tokens"]),
            "--seed", str(FAST["seed"]),
            "serve", "--rate", str(FAST["rate"]),
            "--requests", str(FAST["requests"]),
            "--store", str(tmp_path / "cli.jsonl"),
            "--json", str(out_path)])
        capsys.readouterr()
        assert code == 0
        via_cli = json.loads(out_path.read_text())
        assert json.dumps(via_cli, sort_keys=True) == \
            json.dumps(via_api["report"], sort_keys=True)
