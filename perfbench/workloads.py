"""The benchmark's four workloads: seeded inputs, op sizing and output checks.

Every workload turns ``(seed, op index)`` into one API request payload, so
a seed fixes the whole op sequence and a longer run only appends ops.
The program under test receives nothing but these payloads.  Outputs are
checked twice: every op against structural invariants (requests are
conserved, ratios stay in [0, 1], the optimizer's provenance buckets
partition its space), and, on the default seed, every op's digest against
the digests stored in ``expected_digests.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: The seed whose op digests are stored with the benchmark.
DEFAULT_SEED = 0

LLM = "llama2-7b"
ROUTER = "least-outstanding-requests"
DESIGNS = ("baseline", "cim-default", "design-a", "design-b")
PRECISIONS = ("int8", "bf16")
REPLICA_COUNTS = (1, 2, 4)

#: (design, precision) -> (fluid capacity estimate in req/s per replica,
#: fraction of it offered).  The capacity is the rate at which the fluid
#: estimator's utilisation reaches 0.99 on a 240-request 1024/512 chat
#: trace; the fraction puts the exact engine's utilisation near 0.7.  Over
#: 312 probe runs (every shape, 13 seeds) utilisation stayed in 0.51-0.87
#: and SLO attainment in 0.42-0.87.  ``calibrate.py --rates`` re-derives
#: the capacities.
SERVE_LOAD = {
    ("baseline", "int8"): (0.13389, 0.65),
    ("baseline", "bf16"): (0.10351, 0.59),
    ("cim-default", "int8"): (0.64394, 0.25),
    ("cim-default", "bf16"): (0.23178, 0.35),
    ("design-a", "int8"): (0.55425, 0.28),
    ("design-a", "bf16"): (0.21891, 0.37),
    ("design-b", "int8"): (0.69425, 0.24),
    ("design-b", "bf16"): (0.23805, 0.35),
}
SERVE_SHAPES = tuple((design, precision, replicas)
                     for design in DESIGNS for precision in PRECISIONS
                     for replicas in REPLICA_COUNTS)

#: Realistic-load band every serve-mix shape and the day-trace fleet must
#: land in on the default seed.
UTILISATION_BAND = (0.5, 0.9)

#: Gateway catalogue size and the Zipf exponent ops are drawn with.
CATALOGUE_SIZE = 32
ZIPF_S = 1.1

#: Keys that count the program's own work or name cache entries.  They are
#: left out of digests, so removing work is never scored as a wrong answer.
_UNCHECKED_KEYS = frozenset({
    "cache_key", "short_runs", "full_runs", "store_served",
    "capacity_pruned", "strategy_pruned"})


def _rng(*parts: object) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across
    # processes and Python hash randomisation.
    return random.Random("/".join(str(part) for part in parts))


def _trace_seed(workload: str, seed: int, index: int) -> int:
    return _rng(workload, seed, index).randrange(2 ** 31)


def serve_payload(shape: tuple[str, str, int], trace_seed: int,
                  requests: int = 240) -> dict:
    """A serve-mix ``simulate`` payload for one (design, precision, replicas)."""
    design, precision, replicas = shape
    capacity, fraction = SERVE_LOAD[(design, precision)]
    return {"kind": "simulate", "design": design, "llm": LLM,
            "scenario": "chat-serving", "precision": precision,
            "input_tokens": 1024, "output_tokens": 512,
            "rate": capacity * fraction * replicas, "requests": requests,
            "replicas": replicas, "router": ROUTER, "seed": trace_seed}


def _serve_shape(seed: int, index: int) -> tuple[str, str, int]:
    # Each block of 24 ops visits every shape once, in a seeded order.
    order = list(range(len(SERVE_SHAPES)))
    _rng("serve-mix-order", seed, index // len(SERVE_SHAPES)).shuffle(order)
    return SERVE_SHAPES[order[index % len(SERVE_SHAPES)]]


def _serve_mix(seed: int, index: int) -> dict:
    return serve_payload(_serve_shape(seed, index),
                         _trace_seed("serve-mix", seed, index))


def _day_trace(seed: int, index: int, requests: int = 20_000) -> dict:
    return {"kind": "simulate", "design": "design-a", "llm": LLM,
            "scenario": "chat-serving", "input_tokens": 256,
            "output_tokens": 64, "rate": 3.2, "requests": requests,
            "replicas": 4, "router": ROUTER,
            "seed": _trace_seed("day-trace", seed, index)}


def _optimize_search(seed: int, index: int, *, designs=DESIGNS,
                     replica_counts=REPLICA_COUNTS,
                     requests: int = 400) -> dict:
    return {"kind": "optimize", "llm": LLM, "designs": list(designs),
            "replica_counts": list(replica_counts),
            "constraints": ["slo>=0.5"], "strategy": "successive-halving",
            "scenario": "chat-serving", "input_tokens": 256,
            "output_tokens": 64, "rate": 1.6, "requests": requests,
            "seed": _trace_seed("optimize-search", seed, index)}


def catalogue(seed: int) -> list[dict]:
    """The gateway-zipf catalogue: 32 serve-mix-shaped requests.

    Popularity rank ``r`` always carries the same shape (one fixed order
    of the 24, then its first 8 again); the seed draws only each entry's
    trace.  Which shapes are popular therefore never changes between
    seeds, which keeps the miss latencies, and so the tail, comparable.
    """
    order = list(range(len(SERVE_SHAPES)))
    _rng("gateway-catalogue-shapes").shuffle(order)
    return [serve_payload(SERVE_SHAPES[order[index % len(order)]],
                          _trace_seed("gateway-catalogue", seed, index))
            for index in range(CATALOGUE_SIZE)]


def zipf_keys(seed: int, count: int) -> list[int]:
    """Catalogue indices of ``count`` ops, Zipf(s=1.1) over the ranks."""
    weights = [1.0 / (rank ** ZIPF_S) for rank in range(1, CATALOGUE_SIZE + 1)]
    ranks = list(range(CATALOGUE_SIZE))
    return [_rng("gateway-zipf", seed, index).choices(ranks, weights)[0]
            for index in range(count)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its load shape and how its ops are sized."""

    name: str
    #: Simulated requests each op carries (per request of a pair, on the
    #: gateway).
    requests_per_op: int
    #: Host seconds one op is expected to take, reference loop included;
    #: sizes the fixed op count from ``--seconds``.
    nominal_op_s: float
    #: Fewest ops a run makes, whatever ``--seconds`` says.
    min_ops: int
    #: Op counts are whole multiples of this (a serve-mix shape cycle, a
    #: gateway pair).
    block: int = 1
    #: Ops go over HTTP to a gateway child, drawn from a catalogue;
    #: otherwise they are API calls in this process.
    gateway: bool = False

    @property
    def host_time(self) -> str:
        """Which host times the reference loop normalises."""
        if self.gateway:
            return "job lifetime normalised, network raw"
        return "normalised"

    def op_count(self, seconds: float) -> int:
        """Ops in a run of ``seconds``: fixed for a given ``--seconds``.

        Ops are sized to about two thirds of the run at nominal speed; the
        rest goes to set-up samples and to headroom for a slow machine, so
        that a run stays near ``seconds`` however slow the host is.
        """
        blocks = round(0.68 * seconds / self.nominal_op_s / self.block)
        return max(self.min_ops, blocks * self.block)

    def payload(self, seed: int, index: int) -> dict:
        """The request payload of in-process op ``index``."""
        if self.gateway:
            raise ValueError(f"{self.name} draws its ops from a catalogue")
        if self.name == "serve-mix":
            return _serve_mix(seed, index)
        if self.name == "day-trace":
            return _day_trace(seed, index)
        return _optimize_search(seed, index)

    def warmup_payload(self) -> dict:
        """The small op that ends set-up, distinct from every timed op."""
        if self.name == "day-trace":
            return _day_trace(0, -1, requests=400)
        if self.name == "optimize-search":
            return _optimize_search(0, -1, designs=("design-a",),
                                    replica_counts=(1,), requests=40)
        return serve_payload(SERVE_SHAPES[0], 1, requests=16)


WORKLOADS = {workload.name: workload for workload in (
    Workload("serve-mix", 240, nominal_op_s=0.11, min_ops=48,
             block=len(SERVE_SHAPES)),
    Workload("day-trace", 20_000, nominal_op_s=1.8, min_ops=8),
    Workload("gateway-zipf", 240, nominal_op_s=0.22, min_ops=60, block=2,
             gateway=True),
    Workload("optimize-search", 400, nominal_op_s=0.5, min_ops=20),
)}


# ------------------------------------------------------------------ checks
def _strip(value):
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items()
                if key not in _UNCHECKED_KEYS
                and not key.startswith("cost_cache_")}
    if isinstance(value, (list, tuple)):
        return [_strip(item) for item in value]
    return value


def outcome(kind: str, body: dict) -> dict:
    """The simulated outcome of a response body, minus work accounting.

    ``body`` is a simulate report or an optimize frontier.  Frontier
    extremes name points by cache key; they are re-expressed as the
    point's position so the key itself can be left out.
    """
    if kind == "optimize":
        keys = [point["cache_key"] for point in body["points"]]
        body = dict(body, extremes=[[name, keys.index(key)]
                                    for name, key in body["extremes"]])
    return _strip(body)


def digest(kind: str, body: dict) -> str:
    """Short content digest of an op's simulated outcome."""
    encoded = json.dumps(outcome(kind, body), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def problems(payload: dict, body: dict) -> list[str]:
    """Invariant violations of one op's output (empty when it is sound)."""
    found = []
    if payload["kind"] == "simulate":
        requests = payload["requests"]
        done = body["completed"] + body["rejected"] + body.get("shed", 0)
        if body["num_requests"] != requests or done != requests:
            found.append(f"requests not conserved: {done} of {requests}")
        for key in ("slo_attainment", "utilisation"):
            if not 0.0 <= body[key] <= 1.0:
                found.append(f"{key} {body[key]} outside [0, 1]")
        if not body["makespan_s"] > 0:
            found.append("non-positive makespan")
    else:
        points = body["points"]
        buckets = (len(points) + body["dominated"] + body["infeasible"]
                   + body["constraint_filtered"] + body["strategy_pruned"])
        if buckets != body["candidates"]:
            found.append(f"frontier buckets {buckets} != candidates "
                         f"{body['candidates']}")
        if not points:
            found.append("empty frontier")
        for point in points:
            if not point["feasible"] or point["slo_attainment"] < 0.5:
                found.append(f"frontier point violates slo>=0.5: {point}")
    return found


def load_problem(body: dict) -> str | None:
    """Why a simulate op's load is not realistic, or ``None`` when it is."""
    low, high = UTILISATION_BAND
    utilisation, attainment = body["utilisation"], body["slo_attainment"]
    if low <= utilisation <= high and 0.0 < attainment < 1.0:
        return None
    return (f"utilisation {utilisation:.3f} / SLO attainment "
            f"{attainment:.3f} outside {low}-{high} / (0, 1)")
