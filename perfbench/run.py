"""Benchmark of the simulator stack, end to end and layer by layer.

Usage (from the root of a checkout; builds nothing, imports ``src/``)::

    python3 perfbench/run.py --workload serve-mix --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

One run executes one workload's fixed, seeded op sequence and checks every
op's output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
is a separate run of the same ops with a span recorder wrapped around each
layer's entry points, and reports the per-layer metrics.  ``--workload
all`` runs every workload in both modes and prints one table.  The last
line of standard output is always one JSON object; the human-readable
lines above it name each metric, its unit, and the tail's percentile and
sample count.  A record of every op (raw seconds, normalisation factor,
output digest) is written under ``.perfbench-runs/``.

Host time on the in-process workloads is normalised: a fixed pure-Python
reference loop is timed with ``time.thread_time()`` before and after each
op, and the op is reported as wall seconds x (nominal / mean reference).
On the gateway only each job's server-side lifetime is normalised that
way; the rest of its latency is bound by socket timers, not CPU, and
stays raw.  ``setup_s`` is sampled several times through a run, each
sample a fresh process from start to the moment its first op could begin,
normalised the same way, and reported as the median.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gateway  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

#: Iterations of the reference loop (about 20 ms on a 2-vCPU x86 VM).
REF_ITERATIONS = 150_000
#: Thread seconds one reference loop is normalised to.
REF_NOMINAL_S = 0.02
#: Set-up samples taken through a run.
SETUP_SAMPLES = 5
#: Reference loops timed before and after each set-up sample.
SETUP_REF_LOOPS = 5
#: Seconds a set-up sample may take before the run fails.
PROBE_TIMEOUT_S = 120.0
#: Seconds a terminated child run has to stop its own children; longer
#: than the 15 s a gateway child gets between SIGINT and SIGKILL.
STOP_TIMEOUT_S = 20.0

END_TO_END = (("setup_s", "s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

_COUNTS = ("pricing.graph_evals", "pricing.matmul_maps",
           "pricing.mapping_candidates", "fingerprint.calls",
           "memo.step_misses", "memo.graph_lookups", "event-loop.runs",
           "event-loop.steps", "route.decisions", "fluid.calls",
           "capacity.calls", "search.full_runs", "search.screen_runs",
           "codec.calls", "api.calls", "store.gets", "store.puts")
PER_LAYER = (
    *((name, "count") for name in _COUNTS),
    ("memo.graph_hit_ratio", "fraction"), ("store.hit_ratio", "fraction"),
    *((f"{layer}.self_s", "s") for layer in tracing.LAYERS),
    ("queue.wait_p50_s", "s"), ("worker.run_p50_s", "s"),
    ("worker.simulations", "count"), ("worker.distinct_keys", "count"),
    ("http.round_trips", "count"), ("http.rtt_p50_s", "s"),
    ("http.polls_per_op", "count"), ("http.self_s", "s"),
    ("other.self_s", "s"), ("op.wall_s", "s"),
)


class RunError(Exception):
    """The run itself could not proceed (no result is printed)."""


# ------------------------------------------------------------------ timing
def reference(loops: int) -> float:
    """Thread seconds of ``loops`` runs of a fixed pure-Python loop."""
    start = time.thread_time()
    for _ in range(loops):
        total = 0.0
        table = {}
        for i in range(REF_ITERATIONS):
            table[i & 1023] = total
            total += (i % 7) * 0.5
    return time.thread_time() - start


def reference_loops(workload: wl.Workload) -> int:
    """Reference loops per op: about a tenth of the op's nominal time."""
    return max(1, round(0.1 * workload.nominal_op_s / REF_NOMINAL_S))


class Bracket:
    """Reference loops timed between consecutive measurements.

    Each :meth:`factor` call times a new reference; the measurement since
    the previous one is normalised by nominal / the mean of the two
    references around it.
    """

    def __init__(self, loops: int) -> None:
        self.loops = loops
        self._last = reference(loops)

    def factor(self) -> float:
        before, self._last = self._last, reference(self.loops)
        return 2 * self.loops * REF_NOMINAL_S / (before + self._last)


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with ten beyond it.

    With 20 samples or fewer no such percentile lies above the median, so
    the median stands in and the record says so.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count <= 20:
        return statistics.median(ordered), 50.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def read_line(stream, timeout: float) -> str:
    """One line from a child's pipe, or ``RunError`` after ``timeout``."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise RunError(f"no output within {timeout:.0f}s")
    return stream.readline()


def vm_hwm_mb(pid="self") -> float:
    """Peak resident memory of a process, in MB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RunError("no VmHWM in /proc status")


def stop(process: subprocess.Popen) -> None:
    """Stop a child run and wait for it.

    SIGTERM first: the child turns it into an exit whose ``finally``
    blocks stop its own gateway child and delete that store.  SIGKILL only
    if it has not ended within ``STOP_TIMEOUT_S``.
    """
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def probe_setup(args) -> dict:
    """Time one fresh-process set-up: start until its first op may begin."""
    bracket = Bracket(SETUP_REF_LOOPS)
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", "0", "--setup-probe"]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    try:
        line = read_line(process.stdout, PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        code = process.wait(timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunError("set-up probe did not exit in time") from None
    finally:
        stop(process)
        process.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RunError(f"set-up probe failed (exit {code}): {line.strip()}")
    factor = bracket.factor()
    return {"raw_s": elapsed, "factor": factor, "s": elapsed * factor}


def chunks(count: int, parts: int) -> list[range]:
    """``range(count)`` split into ``parts`` near-equal consecutive runs."""
    bounds = [round(count * k / parts) for k in range(parts + 1)]
    return [range(bounds[k], bounds[k + 1]) for k in range(parts)]


# -------------------------------------------------------------- checking
class Checker:
    """Checks op outputs; collects failures and realistic-load findings."""

    def __init__(self, workload: wl.Workload, seed: int) -> None:
        self.workload = workload
        self.default_seed = seed == wl.DEFAULT_SEED
        #: Stored digests of the default seed's ops (of the catalogue, on
        #: the gateway).
        self.expected = []
        if self.default_seed:
            stored = json.loads((HERE / "expected_digests.json").read_text())
            self.expected = stored[workload.name]
        self.load_findings: list[str] = []

    def check(self, key: int, payload: dict, body: dict) -> tuple[str, list]:
        """``(digest, problems)`` of one output; ``key`` indexes expected."""
        found = wl.problems(payload, body)
        digest = wl.digest(payload["kind"], body)
        if key < len(self.expected) and self.expected[key] != digest:
            found.append(f"digest {digest} != expected {self.expected[key]}")
        if (self.default_seed and payload["kind"] == "simulate"
                and not self.workload.gateway):
            finding = wl.load_problem(body)
            if finding is not None:
                self.load_findings.append(f"op {key}: {finding}")
        return digest, found


# -------------------------------------------------------- in-process runs
def setup_in_process(workload: wl.Workload, args) -> list:
    """Import, input generation and the warm-up op; the request objects."""
    import repro
    import repro.api

    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(repro.__file__).resolve().parents:
        raise RunError(f"imported repro from {repro.__file__}, not {src}")
    count = workload.op_count(args.seconds)
    requests = [repro.api.request_from_dict(workload.payload(args.seed, index))
                for index in range(count)]
    repro.api.run(repro.api.request_from_dict(workload.warmup_payload()))
    return requests


def run_in_process(workload: wl.Workload, args) -> dict:
    import repro.api

    requests = setup_in_process(workload, args)
    tracer = installation = None
    if args.trace:
        tracer = tracing.Tracer()
        installation = tracing.install(tracer)
    checker = Checker(workload, args.seed)
    ops, setups = [], []
    try:
        for part in chunks(len(requests), SETUP_SAMPLES):
            if not args.trace:
                setups.append(probe_setup(args))
            bracket = Bracket(reference_loops(workload))
            for index in part:
                request = requests[index]
                if tracer is not None:
                    tracer.set_op(index)
                call = getattr(repro.api, request.kind)
                error = None
                start = time.perf_counter()
                try:
                    response = call(request)
                except Exception as exc:  # noqa: BLE001 - a failed op is data
                    error = f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - start
                if tracer is not None:
                    tracer.set_op(None)
                factor = bracket.factor()
                record = {"index": index, "raw_s": wall, "factor": factor,
                          "s": wall * factor}
                if error is None:
                    body = (response.report if request.kind == "simulate"
                            else response.frontier)
                    record["digest"], found = checker.check(
                        index, request.to_dict(), body)
                    if found:
                        error = "; ".join(found)
                record["error"] = error
                ops.append(record)
    finally:
        if installation is not None:
            installation.uninstall()
    result = {"ops": ops, "setups": setups, "checker": checker}
    if tracer is None:
        result["peak_rss_mb"] = vm_hwm_mb()
    else:
        result["layers"] = layers_in_process(tracer, ops)
        result["spans"] = tracer.spans
    return result


def layers_in_process(tracer, ops: list[dict]) -> dict:
    """Per-layer metrics of a traced in-process run."""
    done = [op for op in ops if op["error"] is None]
    indices = {op["index"] for op in done}
    table = tracing.self_times(tracer.spans, indices)
    per_op = [{layer: seconds * op["factor"]
               for layer, seconds in table.get(op["index"], {}).items()}
              for op in done]
    walls = [op["s"] for op in done]
    return finish_layers(tracer.totals(indices), per_op, walls)


def finish_layers(counts, per_op: list[dict], walls: list[float],
                  extra: dict | None = None) -> dict:
    """The per-layer metric table from counts and per-op self times.

    ``per_op`` holds each op's self seconds by layer; ``walls`` each op's
    wall seconds.  Self times are reported as means per op; ``other`` is
    what the layers leave of the op's wall time.
    """
    ops = max(1, len(walls))
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name in _COUNTS:
        metrics[name] = counts.get(name, 0)
    lookups = counts.get("memo.graph_lookups", 0)
    if lookups:
        metrics["memo.graph_hit_ratio"] = (
            1.0 - counts.get("memo.graph_misses", 0) / lookups)
    gets = counts.get("store.gets", 0)
    if gets:
        metrics["store.hit_ratio"] = counts.get("store.hits", 0) / gets
    for layer in (*tracing.LAYERS, "http"):
        metrics[f"{layer}.self_s"] = sum(row.get(layer, 0.0)
                                         for row in per_op) / ops
    metrics.update(extra or {})
    metrics["op.wall_s"] = sum(walls) / ops
    metrics["other.self_s"] = metrics["op.wall_s"] - sum(
        sum(row.values()) for row in per_op) / ops
    return metrics


# ------------------------------------------------------------ gateway run
def setup_gateway(workload: wl.Workload, args, scratch: pathlib.Path,
                  spans_out=None):
    """Inputs, a started gateway child, two connections and the warm-up op."""
    count = workload.op_count(args.seconds)
    entries = wl.catalogue(args.seed)
    keys = wl.zipf_keys(args.seed, count)
    child = gateway.GatewayChild(ROOT, scratch, spans_out)
    child.start()
    try:
        conns = [gateway.Connection(child.host, child.port) for _ in range(2)]
        warm = gateway.run_pair(conns[:1], [workload.warmup_payload()])[0]
        if isinstance(warm, gateway.OpError):
            raise RunError(f"gateway warm-up op failed: {warm}")
    except BaseException:
        child.close()
        raise
    return child, conns, entries, keys


def run_gateway(workload: wl.Workload, args) -> dict:
    scratch = scratch_dir()
    spans_out = (scratch / f"spans-{args.workload}-{args.seed}.json"
                 if args.trace else None)
    child, conns, entries, keys = setup_gateway(workload, args, scratch,
                                                spans_out)
    checker = Checker(workload, args.seed)
    ops, setups, pairs = [], [], []
    digests_by_key: dict[int, str] = {}
    try:
        for part in chunks(len(keys) // 2, SETUP_SAMPLES):
            if not args.trace:
                setups.append(probe_setup(args))
            bracket = Bracket(reference_loops(workload))
            for pair in part:
                pair_keys = keys[2 * pair:2 * pair + 2]
                start = time.perf_counter()
                outcomes = gateway.run_pair(conns, [entries[k] for k in pair_keys])
                pairs.append(time.perf_counter() - start)
                factor = bracket.factor()
                for offset, (key, outcome) in enumerate(zip(pair_keys, outcomes)):
                    record = {"index": 2 * pair + offset, "key": key}
                    if isinstance(outcome, gateway.OpError):
                        record["error"] = str(outcome)
                        ops.append(record)
                        continue
                    body = outcome["envelope"]["report"]
                    digest, found = checker.check(key, entries[key], body)
                    first = digests_by_key.setdefault(key, digest)
                    if first != digest:
                        found.append(f"digest {digest} differs from this "
                                     f"key's first answer {first}")
                    # The job's server-side lifetime is CPU-bound work and
                    # is normalised; the rest of the latency is socket
                    # timers and stays raw.
                    job = outcome["job"]
                    raw = outcome["latency_s"]
                    lifetime = job["finished_s"] - job["submitted_s"]
                    record.update(raw_s=raw, factor=factor,
                                  s=raw + lifetime * (factor - 1.0),
                                  digest=digest, polls=outcome["polls"],
                                  job=job, error="; ".join(found) or None)
                    ops.append(record)
        peak = vm_hwm_mb(child.process.pid)
    finally:
        for conn in conns:
            conn.close()
        child.close()
    round_trips = [rtt for conn in conns for rtt in conn.round_trips]
    result = {"ops": ops, "setups": setups, "checker": checker,
              "peak_rss_mb": peak, "pair_s": pairs}
    if args.trace:
        traced = json.loads(spans_out.read_text())
        spans_out.unlink()
        result["layers"] = layers_gateway(traced, ops, round_trips)
        result["spans"] = traced["spans"]
    return result


def layers_gateway(traced: dict, ops: list[dict], round_trips) -> dict:
    """Per-layer metrics of a traced gateway run.

    Layer self times come from the child's spans of each op's job and,
    like the job's lifetime, are normalised by the op's factor.  Spans
    the HTTP handler threads record belong to no job; they are spread
    evenly over the ops.  ``http`` is each op's raw latency minus its
    job's lifetime and those handler spans; ``queue`` is the job's wait
    before a worker took it.
    """
    done = [op for op in ops if op["error"] is None]
    jobs = {op["job"]["job_id"]: op for op in done}
    table = tracing.self_times(traced["spans"])
    unowned = table.get(None, {})
    share = {layer: seconds / max(1, len(done))
             for layer, seconds in unowned.items()}
    per_op, queue_waits, runs = [], [], []
    for job_id, op in jobs.items():
        job, factor = op["job"], op["factor"]
        queued = job["started_s"] - job["submitted_s"]
        ran = job["finished_s"] - job["started_s"]
        queue_waits.append(queued)
        runs.append(ran)
        row = {layer: seconds * factor
               for layer, seconds in table.get(job_id, {}).items()}
        for layer, seconds in share.items():
            row[layer] = row.get(layer, 0.0) + seconds
        row["queue"] = queued * factor
        row["http"] = op["raw_s"] - (queued + ran) - sum(share.values())
        per_op.append(row)
    counts = tracing.sum_counts((((op, key), amount)
                                 for op, key, amount in traced["counts"]),
                                set(jobs) | {None})
    extra = {
        "queue.wait_p50_s": statistics.median(queue_waits) if done else 0.0,
        "worker.run_p50_s": statistics.median(runs) if done else 0.0,
        "worker.simulations": sum(op["job"].get("new_simulations", 0)
                                  for op in done),
        "worker.distinct_keys": len({op["job"]["fingerprint"] for op in done}),
        "http.round_trips": len(round_trips),
        "http.rtt_p50_s": statistics.median(round_trips) if round_trips else 0.0,
        "http.polls_per_op": (sum(op["polls"] for op in done) / len(done)
                              if done else 0.0),
    }
    return finish_layers(counts, per_op, [op["s"] for op in done], extra)


# ------------------------------------------------------------------ report
def scratch_dir() -> pathlib.Path:
    """``.perfbench-runs/`` in the checkout: run records and temp stores."""
    path = ROOT / ".perfbench-runs"
    path.mkdir(exist_ok=True)
    return path


def end_to_end(workload: wl.Workload, result: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes (tail percentile, sample count)."""
    done = [op["s"] for op in result["ops"] if op["error"] is None]
    value, percentile = tail(done) if done else (0.0, 50.0)
    if workload.gateway:
        seconds = sum(result["pair_s"])
    else:
        seconds = sum(done)
    metrics = {
        "setup_s": statistics.median(s["s"] for s in result["setups"]),
        "latency_p50_s": statistics.median(done) if done else 0.0,
        "latency_tail_s": value,
        "ops_per_s": len(done) / seconds if seconds else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"latency_tail_s": f"p{percentile:g} of {len(done)} ops",
             "latency_p50_s": f"median of {len(done)} ops",
             "setup_s": f"median of {len(result['setups'])} set-ups",
             "ops_per_s": f"{workload.requests_per_op} requests per op"}
    return metrics, notes


def print_table(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:14.6g} {units[name]:8s}{note}")


def run_one(args) -> int:
    workload = wl.WORKLOADS[args.workload]
    if args.setup_probe:
        return setup_probe(workload, args)
    runner = run_gateway if workload.gateway else run_in_process
    result = runner(workload, args)
    ops, checker = result["ops"], result["checker"]
    failed = [op for op in ops if op["error"] is not None]
    if args.trace:
        metrics, notes = result["layers"], {}
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end(workload, result)
        units = dict(END_TO_END)
    correct = not failed and not checker.load_findings
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host_time": workload.host_time,
              "reference_nominal_s": REF_NOMINAL_S,
              "requests_per_op": workload.requests_per_op,
              "metrics": metrics, "notes": notes, "correct": correct,
              "load_findings": checker.load_findings,
              "setups": result["setups"], "ops": ops}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    scratch = scratch_dir()
    (scratch / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        (scratch / f"{stem}-spans.json").write_text(json.dumps(result["spans"]))
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print_table(f"{workload.name} seed={args.seed} {mode}, {len(ops)} ops, "
                f"host time {workload.host_time}", metrics, units, notes)
    print(f"  error_rate {len(failed) / len(ops):.4g} ({len(failed)}/{len(ops)})")
    for op in failed[:5]:
        print(f"  op {op['index']} failed: {op['error']}")
    for finding in checker.load_findings[:5]:
        print(f"  unrealistic load: {finding}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def setup_probe(workload: wl.Workload, args) -> int:
    """Do a run's set-up, say ``ready``, tear down (timed by the parent)."""
    if not workload.gateway:
        setup_in_process(workload, args)
        print("ready", flush=True)
        return 0
    child, conns, _, _ = setup_gateway(workload, args, scratch_dir())
    try:
        print("ready", flush=True)
    finally:
        for conn in conns:
            conn.close()
        child.close()
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, as separate processes."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        lines = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       name, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)]
            process = subprocess.Popen(command, cwd=ROOT, text=True,
                                       stdout=subprocess.PIPE)
            try:
                stdout = process.communicate()[0]
            finally:
                stop(process)
            output = stdout.strip().splitlines()
            print("\n".join(output[:-1]))
            if process.returncode != 0 or not output:
                raise RunError(f"{name} --trace {trace} exited "
                               f"{process.returncode}")
            lines[trace] = json.loads(output[-1])
            summary["correct"] &= lines[trace]["correct"]
            summary["attempted"] += lines[trace]["attempted"]
            summary["failed"] += lines[trace]["failed"]
        means = []
        for trace in (0, 1):
            record = json.loads((scratch_dir() / f"{name}-seed{args.seed}-"
                                 f"trace{trace}.json").read_text())
            means.append(statistics.mean(op["s"] for op in record["ops"]
                                         if op["error"] is None))
        print(f"  tracing overhead on {name}: {means[1] / means[0] - 1:+.1%} "
              "of mean op latency")
        for metric, entry in lines[0]["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops its children through the finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
