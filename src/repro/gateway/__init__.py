"""Simulation as a service: HTTP gateway + async job queue.

Stdlib-only front-end over :mod:`repro.api`: ``POST`` a request payload
to ``/v1/<kind>``, get ``202`` with a job id, poll ``/v1/jobs/<id>``,
fetch the response envelope from ``/v1/jobs/<id>/result``.  All jobs run
against one shared persistent :class:`~repro.sweep.store.ResultStore`,
so the gateway is a multi-tenant simulation cache: any request any
client has run before is served with zero new simulations.

Typical usage::

    from repro.gateway import GatewayServer
    from repro.sweep.store import ResultStore

    with GatewayServer(ResultStore("runs.jsonl"), port=0) as gw:
        print(gw.url)       # e.g. http://127.0.0.1:49152
        ...                 # POST /v1/simulate, poll, fetch

or from the command line: ``repro-sim gateway --store runs.jsonl``.
"""

from repro.gateway.jobs import JOB_STATES, TERMINAL_STATES, Job, JobManager
from repro.gateway.server import (
    MAX_BODY_BYTES,
    GatewayServer,
    error_status,
)

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobManager",
    "MAX_BODY_BYTES",
    "GatewayServer",
    "error_status",
]
