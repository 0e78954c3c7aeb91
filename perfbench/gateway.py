"""The gateway-zipf harness: a ``repro-sim gateway`` child and its client.

The child is started exactly as a user would start it (``repro-sim
gateway --port 0 --store <fresh file> --api-workers 2``, spelled
``python -m repro.cli``), readiness is its ``listening on`` line, and it
is always stopped and its store deleted, also when the run fails.  The
traced run starts it through ``gateway_launcher.py`` instead, which
installs the layer wrappers before serving.

The client is one thread holding two keep-alive HTTP connections.  It
submits ops in lockstep pairs (both POSTs first, then both jobs polled in
rounds and fetched, each on its own connection), so two requests are
outstanding and the interleaving, and with it which duplicates simulate
twice, is the same on every run.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import select
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

#: Seconds to wait for the child's ``listening on`` line.
READY_TIMEOUT_S = 60.0
#: Seconds one op may take, submit to parsed result.
OP_TIMEOUT_S = 60.0
#: Pause between two status polls of an unfinished job.
POLL_PAUSE_S = 0.005


class OpError(Exception):
    """An op that failed: an error response, a failed job or a timeout."""


class GatewayChild:
    """A gateway process on an ephemeral port over a fresh store.

    Use as a context manager, or call :meth:`start` and :meth:`close`:
    closing stops the child (SIGINT, then SIGKILL) and deletes the store
    directory whatever happened in between.
    """

    def __init__(self, root: pathlib.Path, scratch: pathlib.Path,
                 spans_out: pathlib.Path | None = None) -> None:
        self._root = root
        self._dir = pathlib.Path(tempfile.mkdtemp(prefix="gateway-",
                                                  dir=scratch))
        self._spans_out = spans_out
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    def __enter__(self) -> "GatewayChild":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def start(self) -> None:
        """Start the child and wait for readiness; cleaned up on failure."""
        try:
            self._start()
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        args = ["gateway", "--port", "0", "--store",
                str(self._dir / "store.jsonl"), "--api-workers", "2"]
        if self._spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            launcher = pathlib.Path(__file__).with_name("gateway_launcher.py")
            command = [sys.executable, str(launcher), str(self._spans_out),
                       *args]
        env = dict(os.environ, PYTHONPATH=str(self._root / "src"))
        self.process = subprocess.Popen(command, cwd=self._root, env=env,
                                        stdout=subprocess.PIPE, text=True)
        deadline = time.monotonic() + READY_TIMEOUT_S
        stdout = self.process.stdout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise OpError("gateway did not report readiness in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline()
            if not line:
                raise OpError(f"gateway exited with code {self.process.wait()} "
                              "before listening")
            if "listening on http://" in line:
                address = line.split("listening on http://", 1)[1]
                address = address.split(";", 1)[0].strip()
                self.host, port = address.rsplit(":", 1)
                self.port = int(port)
                return

    def close(self) -> None:
        """Stop the child, wait for it, and delete its store."""
        process = self.process
        if process is not None and process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process is not None and process.stdout is not None:
            process.stdout.close()
        shutil.rmtree(self._dir, ignore_errors=True)


class Connection:
    """One keep-alive HTTP connection that times every round trip.

    The socket is put in delayed-ACK mode before every request.  Linux
    enters that mode by itself for request/response traffic, but only
    some of the time: the gateway writes headers and a small body
    separately, so with Nagle's algorithm the body waits for the client's
    delayed ACK (about 40 ms) whenever the mode is on.  Left to the
    kernel, an op met one to three such stalls depending on timing, and
    the median jumped between modes from run to run; forcing the mode
    gives every op the same stalls.
    """

    def __init__(self, host: str, port: int) -> None:
        self._conn = http.client.HTTPConnection(host, port,
                                                timeout=OP_TIMEOUT_S)
        #: Seconds of every round trip made, in order.
        self.round_trips: list[float] = []

    def call(self, method: str, path: str, payload: dict | None = None):
        """``(status, parsed JSON body)`` of one request."""
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter()
        try:
            if self._conn.sock is None:
                self._conn.connect()
            self._conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as error:
            self._conn.close()
            raise OpError(f"{method} {path}: {error}") from None
        self.round_trips.append(time.perf_counter() - start)
        try:
            return response.status, json.loads(data)
        except ValueError:
            raise OpError(f"{method} {path}: body is not JSON") from None

    def close(self) -> None:
        self._conn.close()


class _Op:
    """One submitted request of a pair, until its result is parsed."""

    def __init__(self, conn: Connection, payload: dict) -> None:
        self.conn = conn
        self.start = time.perf_counter()
        self.polls = 0
        self.job: dict = {}
        status, body = conn.call("POST", "/v1/simulate", payload)
        if status != 202:
            raise OpError(f"submit answered {status}: {body}")
        self.job_id = body["job_id"]

    def poll(self) -> bool:
        """Refresh the job's status; whether it has ended."""
        status, self.job = self.conn.call("GET", f"/v1/jobs/{self.job_id}")
        self.polls += 1
        if status != 200:
            raise OpError(f"status of {self.job_id} answered {status}: "
                          f"{self.job}")
        if self.job["status"] in ("done", "failed", "cancelled"):
            return True
        if time.perf_counter() - self.start > OP_TIMEOUT_S:
            raise OpError(f"{self.job_id} still {self.job['status']} after "
                          f"{OP_TIMEOUT_S}s")
        return False

    def fetch(self) -> dict:
        """Fetch the envelope; the op record (latency is submit to parse)."""
        status, envelope = self.conn.call("GET",
                                          f"/v1/jobs/{self.job_id}/result")
        latency = time.perf_counter() - self.start
        if status != 200:
            raise OpError(f"result of {self.job_id} answered {status}: "
                          f"{envelope}")
        return {"latency_s": latency, "polls": self.polls, "job": self.job,
                "envelope": envelope}


def run_pair(conns: list[Connection], payloads: list[dict]) -> list:
    """Run one lockstep pair; per op, its record or the :class:`OpError`.

    Both requests are submitted, then polled in rounds (every pending job
    once), and the jobs a round found ended are fetched after it.  When
    both end in the same round, both ops make the same round trips.
    """
    outcomes: list = [None] * len(payloads)
    pending = {}
    for slot, (conn, payload) in enumerate(zip(conns, payloads)):
        try:
            pending[slot] = _Op(conn, payload)
        except OpError as error:
            outcomes[slot] = error
    while pending:
        ended = []
        for slot, op in list(pending.items()):
            try:
                if op.poll():
                    ended.append(slot)
            except OpError as error:
                outcomes[slot] = error
                del pending[slot]
        for slot in ended:
            try:
                outcomes[slot] = pending.pop(slot).fetch()
            except OpError as error:
                outcomes[slot] = error
        if pending and not ended:
            time.sleep(POLL_PAUSE_S)
    return outcomes
