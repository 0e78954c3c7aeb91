"""Start ``repro-sim gateway`` with the layer wrappers installed.

Usage: ``python gateway_launcher.py SPANS_OUT gateway [gateway flags]``.

The traced gateway-zipf run starts its child through this launcher.  It
installs the same wrappers as the in-process traced run, tags every span
a job worker records with the job's id, runs the ``repro-sim`` entry
point with the remaining arguments, and when the gateway stops (SIGINT)
writes the spans and counts to SPANS_OUT as JSON.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_args = pathlib.Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)

    import repro.api
    from repro.gateway.jobs import JobManager

    managers = []
    init = JobManager.__init__

    def init_recorded(self, *args, **kwargs):
        managers.append(self)
        init(self, *args, **kwargs)

    traced_run = repro.api.run

    def run_as_job(request, **kwargs):
        # The worker hands over the job's own request object; the job that
        # carries it names the op.
        job_id = next((job.job_id for manager in managers
                       for job in manager.jobs() if job.request is request),
                      None)
        tracer.set_op(job_id)
        try:
            return traced_run(request, **kwargs)
        finally:
            tracer.set_op(None)

    # The job manager binds ``repro.api.run`` when the gateway builds it.
    JobManager.__init__ = init_recorded
    repro.api.run = run_as_job

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        counts = [[op, key, amount]
                  for (op, key), amount in tracer.totals_by_op().items()]
        spans_out.write_text(json.dumps({"spans": tracer.spans,
                                         "counts": counts}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
