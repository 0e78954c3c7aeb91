"""The gateway's async job queue: submit, poll, fetch, cancel.

Simulations take seconds to minutes, so the gateway never runs one on an
HTTP handler thread.  :class:`JobManager` owns a FIFO queue and a small
pool of daemon worker threads; submitting a validated API request
enqueues a :class:`Job` and returns immediately with its id, and workers
drain the queue through the unified facade (:func:`repro.api.run`)
against the manager's shared :class:`~repro.sweep.store.ResultStore` —
the multi-tenant cache that lets one client's run serve every later
client's repeat with zero new simulations.

Lifecycle: ``queued → running → done | failed``, plus ``cancelled`` for
jobs cancelled while still queued.  A running simulation is never killed
mid-flight — the engines are pure functions without abort points, and a
completed run is worth keeping in the store anyway — so cancelling a
running job is a no-op that reports the current state.  Every transition
is guarded by one condition variable; :meth:`JobManager.wait` lets tests
and clients block for terminal states without polling.

Each job records wall-clock timing and, when the run succeeds, the
telemetry summary of its engine run (span/event/counter totals) — enough
provenance to answer "what did this job cost" without shipping whole
traces over the status endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.api.errors import ApiError, ApiRequestError
from repro.codec import encode
from repro.obs.telemetry import Telemetry

#: States a job moves through; ``TERMINAL`` ones never change again.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")


@dataclass
class Job:
    """One submitted run and everything the status endpoint reports.

    Mutable by design — the manager's lock guards every transition — but
    only the manager mutates it; handlers read snapshots via
    :meth:`to_dict`.
    """

    job_id: str
    kind: str
    #: Content fingerprint of the request (execution hints excluded).
    fingerprint: str
    request: Any
    status: str = "queued"
    submitted_s: float = field(default_factory=time.time)  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
    started_s: float | None = None
    finished_s: float | None = None
    #: The facade response once ``done``.
    response: Any = None
    #: The structured failure once ``failed``.
    error: ApiError | None = None
    #: Engine-run telemetry totals once ``done`` (spans/events/counters).
    telemetry: Mapping[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """The status payload of ``GET /v1/jobs/<id>``."""
        payload: dict[str, Any] = {
            "job_id": self.job_id, "kind": self.kind,
            "fingerprint": self.fingerprint, "status": self.status,
            "submitted_s": self.submitted_s, "started_s": self.started_s,
            "finished_s": self.finished_s,
        }
        if self.status == "done" and self.response is not None:
            payload["new_simulations"] = self.response.new_simulations
            payload["served_from_store"] = self.response.served_from_store
        if self.telemetry is not None:
            payload["telemetry"] = dict(self.telemetry)
        if self.error is not None:
            payload["error"] = encode(self.error)
        return payload


class JobManager:
    """FIFO job queue drained by a pool of daemon worker threads.

    ``runner`` is the facade dispatcher (``repro.api.run`` by default;
    tests inject stubs); every job runs against the manager's shared
    ``store``.  Job ids are dense (``job-000001``...) so logs and tests
    read deterministically.
    """

    def __init__(self, store=None, *, workers: int = 2,
                 runner: Callable[..., Any] | None = None) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if runner is None:
            from repro.api import run as runner  # noqa: F811 - default wiring
        self.store = store
        self._runner = runner
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._queue: deque[Job] = deque()
        self._jobs: dict[str, Job] = {}
        self._next_id = 0
        self._shutdown = False
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"gateway-worker-{index}")
            for index in range(workers)]
        for thread in self._workers:
            thread.start()

    # ---------------------------------------------------------------- submit
    def submit(self, request) -> Job:
        """Enqueue a validated API request; returns the queued :class:`Job`."""
        from repro.api import request_fingerprint

        with self._changed:
            if self._shutdown:
                raise RuntimeError("gateway is shutting down")
            self._next_id += 1
            job = Job(job_id=f"job-{self._next_id:06d}",
                      kind=request.kind,
                      fingerprint=request_fingerprint(request),
                      request=request)
            self._jobs[job.job_id] = job
            self._queue.append(job)
            self._changed.notify_all()
            return job

    # ----------------------------------------------------------------- reads
    def get(self, job_id: str) -> Job:
        """The job with this id, or :class:`ApiRequestError` (unknown-job)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ApiRequestError(ApiError(
                code="unknown-job", message=f"no job '{job_id}'"))
        return job

    def jobs(self) -> list[Job]:
        """All jobs, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def result(self, job_id: str):
        """The finished job's facade response.

        Raises :class:`ApiRequestError` with ``job-not-finished`` /
        ``job-cancelled`` / ``job-failed`` when there is no result to
        serve — the gateway maps these onto 409/409/500.
        """
        job = self.get(job_id)
        with self._lock:
            status, response, error = job.status, job.response, job.error
        if status == "done":
            return response
        if status == "cancelled":
            raise ApiRequestError(ApiError(
                code="job-cancelled",
                message=f"job '{job_id}' was cancelled before running"))
        if status == "failed":
            raise ApiRequestError(error if error is not None else ApiError(
                code="job-failed", message=f"job '{job_id}' failed"))
        raise ApiRequestError(ApiError(
            code="job-not-finished",
            message=f"job '{job_id}' is {status}; poll its status URL "
                    f"until it is done"))

    # ---------------------------------------------------------------- cancel
    def cancel(self, job_id: str) -> Job:
        """Cancel the job if still queued; running/terminal jobs are left be."""
        job = self.get(job_id)
        with self._changed:
            if job.status == "queued":
                self._queue.remove(job)
                job.status = "cancelled"
                job.finished_s = time.time()  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
                self._changed.notify_all()
        return job

    # ------------------------------------------------------------------ wait
    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job reaches a terminal state (tests, CLI clients)."""
        job = self.get(job_id)
        deadline = time.time() + timeout  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
        with self._changed:
            while job.status not in TERMINAL_STATES:
                remaining = deadline - time.time()  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
                if remaining <= 0:
                    raise TimeoutError(
                        f"job '{job_id}' still {job.status} after {timeout}s")
                self._changed.wait(remaining)
        return job

    def shutdown(self) -> None:
        """Stop accepting and dispatching; lets in-flight runs finish."""
        with self._changed:
            self._shutdown = True
            self._changed.notify_all()

    # --------------------------------------------------------------- workers
    def _worker(self) -> None:
        while True:
            with self._changed:
                while not self._queue and not self._shutdown:
                    self._changed.wait()
                if self._shutdown and not self._queue:
                    return
                job = self._queue.popleft()
                job.status = "running"
                job.started_s = time.time()  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
                self._changed.notify_all()
            telemetry = Telemetry()
            try:
                response = self._runner(job.request, store=self.store,
                                        telemetry=telemetry)
            except ApiRequestError as error:
                self._finish(job, status="failed", error=error.error)
            except Exception as error:  # noqa: BLE001 - worker must survive
                # Anything the facade did not classify is a gateway bug, not
                # a client mistake: job-failed maps to HTTP 500.
                self._finish(job, status="failed", error=ApiError(
                    code="job-failed",
                    message=f"{type(error).__name__}: {error}"))
            else:
                summary = (telemetry.summary()
                           if hasattr(telemetry, "summary") else None)
                self._finish(job, status="done", response=response,
                             telemetry=summary)

    def _finish(self, job: Job, *, status: str, response=None,
                error: ApiError | None = None, telemetry=None) -> None:
        with self._changed:
            job.status = status
            job.finished_s = time.time()  # repro-lint: disable=RPR001 (job wall timestamp, not simulation state)
            job.response = response
            job.error = error
            job.telemetry = telemetry
            self._changed.notify_all()
