"""Request traces: seeded arrival-process generators and a JSONL loader.

A trace is a time-ordered tuple of :class:`Request` objects — arrival time
plus the request's shape (prompt and output token counts).  Shapes are drawn
from the same :class:`~repro.workloads.chat.RequestClass` mixes the
chat-serving scenario prices analytically, so the discrete-event simulator
and the closed-form cost model describe the *same* traffic.

Three arrival processes are registered (extensible via
:func:`register_trace`):

* ``poisson`` — homogeneous Poisson arrivals at a mean rate;
* ``bursty`` — Poisson-arriving bursts of geometrically distributed size
  (same long-run rate, much heavier head-of-line contention);
* ``diurnal`` — a sinusoidally modulated Poisson process (generated by
  thinning), the classic day/night load curve compressed to a short period.

Every generator takes an explicit ``random.Random`` instance; nothing in
this module touches global RNG state, so a trace is a pure function of
``(kind, classes, rate, num_requests, seed)`` and serve runs are bit-for-bit
reproducible.

**Arrival overlays** reshape a generated trace without resampling it: an
:class:`OverlaySpec` names a registered monotone time warp (``flash-crowd``
compresses one window's arrivals by a factor; ``regional-shift`` ramps the
arrival speed up as traffic drifts into the region) that is applied to every
arrival timestamp.  Warps are closed-form and deterministic — request count,
identities and shapes are preserved exactly, only the arrival process
drifts — so overlaid traces fingerprint and reproduce like plain ones.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace
from typing import Protocol

from repro.codec import encode
from repro.registry import Registry
from repro.workloads.chat import RequestClass, mix_fractions

_new_instance = object.__new__
_set_attribute = object.__setattr__  # bypasses the frozen-dataclass guard


@dataclass(frozen=True)
class Request:
    """One request of a serving trace."""

    request_id: int
    arrival_s: float
    input_tokens: int
    output_tokens: int
    #: Conversation/session the request belongs to (``None`` = standalone).
    #: The cluster layer's session-affinity router keeps a session's
    #: requests on one replica; single-deployment serving ignores it.
    session_id: int | None = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.input_tokens <= 0 or self.output_tokens <= 0:
            raise ValueError("input_tokens and output_tokens must be positive")
        if self.session_id is not None and self.session_id < 0:
            raise ValueError("session_id must be non-negative (or None)")

    @property
    def total_tokens(self) -> int:
        """Full context length of the finished request (prompt + output)."""
        return self.input_tokens + self.output_tokens


class TraceGenerator(Protocol):
    """Arrival-process signature all registered generators share."""

    def __call__(self, classes: Sequence[RequestClass], rate: float,
                 num_requests: int, rng: random.Random) -> "tuple[Request, ...]":
        ...  # pragma: no cover - protocol


def _sample_shapes(classes: Sequence[RequestClass], num_requests: int,
                   rng: random.Random) -> list[RequestClass]:
    """Draw request shapes from the weighted mix."""
    if not classes:
        raise ValueError("trace generation needs at least one request class")
    return rng.choices(list(classes), weights=list(mix_fractions(classes)),
                       k=num_requests)


def _validate(rate: float, num_requests: int) -> None:
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")


def _build(arrivals: Sequence[float], shapes: Sequence[RequestClass],
           ) -> tuple[Request, ...]:
    """The generated rows, numbered in arrival order.

    Rows skip the checked constructor: the generators' clocks only move
    forward from 0 and every shape is a validated :class:`RequestClass`,
    so ``Request.__post_init__`` could not fail.  Each field is set on its
    own, in declaration order, as the constructor sets them, so a row
    shares the class's attribute key table instead of carrying a dict of
    its own.  The JSONL loader, overlays and custom generators keep the
    constructor.
    """
    rows = []
    append = rows.append
    for index, (arrival, shape) in enumerate(zip(arrivals, shapes)):
        row = _new_instance(Request)
        _set_attribute(row, "request_id", index)
        _set_attribute(row, "arrival_s", arrival)
        _set_attribute(row, "input_tokens", shape.input_tokens)
        _set_attribute(row, "output_tokens", shape.output_tokens)
        _set_attribute(row, "session_id", None)
        append(row)
    return tuple(rows)


def poisson_trace(classes: Sequence[RequestClass], rate: float,
                  num_requests: int, rng: random.Random) -> tuple[Request, ...]:
    """Homogeneous Poisson arrivals at ``rate`` requests per second."""
    _validate(rate, num_requests)
    shapes = _sample_shapes(classes, num_requests, rng)
    clock = 0.0
    arrivals = []
    for _ in range(num_requests):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    return _build(arrivals, shapes)


def bursty_trace(classes: Sequence[RequestClass], rate: float,
                 num_requests: int, rng: random.Random,
                 mean_burst_size: int = 8) -> tuple[Request, ...]:
    """Bursts of geometrically distributed size, Poisson-spaced.

    Bursts arrive at ``rate / mean_burst_size`` per second and all requests
    of one burst share its arrival instant, so the long-run request rate
    matches the plain Poisson trace while head-of-line queueing is far
    heavier — the trace shape autoscaling and admission policies are judged
    on.
    """
    _validate(rate, num_requests)
    if mean_burst_size <= 0:
        raise ValueError("mean_burst_size must be positive")
    shapes = _sample_shapes(classes, num_requests, rng)
    success = 1.0 / mean_burst_size
    arrivals: list[float] = []
    clock = 0.0
    while len(arrivals) < num_requests:
        clock += rng.expovariate(rate / mean_burst_size)
        if success >= 1.0:
            burst = 1
        else:
            # Geometric (support 1, 2, ...) by inversion; mean = mean_burst_size.
            burst = 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - success))
        arrivals.extend([clock] * min(burst, num_requests - len(arrivals)))
    return _build(arrivals, shapes)


def diurnal_trace(classes: Sequence[RequestClass], rate: float,
                  num_requests: int, rng: random.Random,
                  period_s: float = 60.0, amplitude: float = 0.8,
                  ) -> tuple[Request, ...]:
    """A sinusoidally modulated Poisson process (day/night load curve).

    The instantaneous rate is ``rate * (1 + amplitude * sin(2πt / period))``,
    generated by thinning a homogeneous process at the peak rate — the
    standard exact method for non-homogeneous Poisson processes.
    """
    _validate(rate, num_requests)
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    shapes = _sample_shapes(classes, num_requests, rng)
    peak = rate * (1.0 + amplitude)
    arrivals: list[float] = []
    clock = 0.0
    while len(arrivals) < num_requests:
        clock += rng.expovariate(peak)
        instantaneous = rate * (1.0 + amplitude * math.sin(2.0 * math.pi * clock / period_s))
        if rng.random() * peak <= instantaneous:
            arrivals.append(clock)
    return _build(arrivals, shapes)


#: Registered arrival processes, addressable by name from the CLI and grids.
TRACE_REGISTRY: Registry[TraceGenerator] = Registry("trace kind", "kinds")


def register_trace(name: str, generator: TraceGenerator,
                   overwrite: bool = False) -> None:
    """Add an arrival-process generator (see :meth:`Registry.add`)."""
    TRACE_REGISTRY.add(name, generator, overwrite)


def generate_trace(kind: str, classes: Sequence[RequestClass], rate: float,
                   num_requests: int, seed: int,
                   overlay: "OverlaySpec | None" = None) -> tuple[Request, ...]:
    """Generate a trace with the named arrival process and an explicit seed.

    An ``overlay`` reshapes the generated arrivals through its registered
    time warp (see :func:`apply_overlay`); the base trace is drawn first,
    so an overlaid trace differs from its plain twin only in timestamps.

    Raises
    ------
    KeyError
        If the arrival process (or the overlay kind) is unknown; the error
        lists the registered names.
    """
    trace = TRACE_REGISTRY[kind](classes, rate, num_requests, random.Random(seed))
    return apply_overlay(trace, overlay) if overlay is not None else trace


register_trace("poisson", poisson_trace)
register_trace("bursty", bursty_trace)
register_trace("diurnal", diurnal_trace)


# ------------------------------------------------------------ arrival overlays
@dataclass(frozen=True)
class OverlaySpec:
    """One arrival-drift overlay: a registered time warp plus parameters.

    ``start_s``/``duration_s`` bound the base-time window the warp acts on
    and ``magnitude`` is its intensity (the instantaneous arrival-rate
    multiplier the warp realises).  A small frozen dataclass of primitives,
    so it rides on :class:`~repro.serving.spec.ServingSpec` and fingerprints
    into sweep/store keys exactly like every other knob.
    """

    kind: str
    start_s: float = 10.0
    duration_s: float = 30.0
    magnitude: float = 3.0

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("overlay spec needs a warp kind")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.magnitude <= 0:
            raise ValueError("magnitude must be positive")

    def summary(self) -> str:
        """Human-readable overlay summary used in tables and exports."""
        return (f"{self.kind}[{self.start_s:g}s+{self.duration_s:g}s "
                f"x{self.magnitude:g}]")


#: Registered overlay warps: name -> monotone map of base arrival time to
#: overlaid arrival time (non-decreasing in ``t`` for any valid spec).
OVERLAY_REGISTRY: Registry[Callable[[OverlaySpec, float], float]] = Registry(
    "overlay", "overlays")

#: Look up an overlay warp by name (``KeyError`` lists the registered ones).
get_overlay = OVERLAY_REGISTRY.__getitem__


def register_overlay(name: str, warp: Callable[[OverlaySpec, float], float],
                     overwrite: bool = False) -> None:
    """Add an overlay warp (see :meth:`Registry.add`)."""
    OVERLAY_REGISTRY.add(name, warp, overwrite)


def _flash_crowd_warp(spec: OverlaySpec, t: float) -> float:
    """Compress the window's arrivals by ``magnitude`` (a flash crowd).

    Arrivals due in ``[start, start + duration)`` land ``magnitude`` times
    faster (the window squeezes to ``duration / magnitude`` seconds of wall
    clock); later arrivals shift earlier by the time saved.  Piecewise
    linear, hence exactly monotone and order-preserving.
    """
    end = spec.start_s + spec.duration_s
    if t < spec.start_s:
        return t
    if t < end:
        return spec.start_s + (t - spec.start_s) / spec.magnitude
    return t - spec.duration_s * (1.0 - 1.0 / spec.magnitude)


def _regional_shift_warp(spec: OverlaySpec, t: float) -> float:
    """Ramp the arrival speed from 1x to ``magnitude`` (traffic drift).

    Models load migrating into (``magnitude > 1``) or out of
    (``magnitude < 1``) the simulated region: over the window the
    instantaneous arrival speed ramps linearly from 1 to ``magnitude`` and
    stays there.  The warp is the closed-form time integral of the inverse
    speed — smooth, strictly monotone, no sampling involved.
    """
    if spec.magnitude == 1.0 or t <= spec.start_s:
        return t
    end = spec.start_s + spec.duration_s
    slope = (spec.magnitude - 1.0) / spec.duration_s

    def ramp_elapsed(base: float) -> float:
        # Integral of 1 / (1 + slope * u) du over [0, base].
        return math.log1p(slope * base) / slope

    if t <= end:
        return spec.start_s + ramp_elapsed(t - spec.start_s)
    return spec.start_s + ramp_elapsed(spec.duration_s) + (t - end) / spec.magnitude


register_overlay("flash-crowd", _flash_crowd_warp)
register_overlay("regional-shift", _regional_shift_warp)


def apply_overlay(trace: Sequence[Request],
                  overlay: OverlaySpec) -> tuple[Request, ...]:
    """Warp every arrival of a trace through the overlay's registered map.

    Request identities, shapes and sessions are untouched; the result is
    re-sorted by (arrival, id) so downstream consumers see a valid trace
    even if a custom warp is not strictly monotone.

    Raises
    ------
    KeyError
        If the overlay kind is unregistered.
    """
    warp = get_overlay(overlay.kind)
    warped = tuple(replace(request, arrival_s=warp(overlay, request.arrival_s))
                   for request in trace)
    return tuple(sorted(warped, key=lambda r: (r.arrival_s, r.request_id)))


def parse_overlay(text: str) -> OverlaySpec:
    """Parse a compact CLI overlay description into an :class:`OverlaySpec`.

    Format: ``<kind>[:field=value,...]`` — e.g.
    ``flash-crowd:start_s=10,duration_s=30,magnitude=4``.

    Raises
    ------
    ValueError
        On malformed text, unknown fields or invalid field values.
    KeyError
        On an unregistered overlay kind.
    """
    kind, _, rest = text.strip().partition(":")
    if not kind:
        raise ValueError(f"cannot parse overlay '{text}': expected "
                         "'<kind>[:field=value,...]'")
    get_overlay(kind)  # validate early, with the registry's message
    known_fields = ("start_s", "duration_s", "magnitude")
    fields: dict[str, float] = {}
    for item in filter(None, (part.strip() for part in rest.split(","))):
        name, sep, raw = item.partition("=")
        name = name.strip()
        if not sep or name not in known_fields:
            raise ValueError(f"cannot parse overlay field '{item}' in '{text}'; "
                             f"known fields: {', '.join(known_fields)}")
        try:
            fields[name] = float(raw.strip())
        except ValueError:
            raise ValueError(f"invalid value '{raw.strip()}' for overlay field "
                             f"'{name}' in '{text}'") from None
    return OverlaySpec(kind=kind, **fields)


def request_classes_from_settings(settings: object) -> tuple[RequestClass, ...]:
    """The request mix implied by a scenario's settings object.

    Chat-style settings carry an explicit ``request_classes`` mix; plain LLM
    serving settings describe a single canonical shape, which becomes a
    one-class mix.  This is the bridge that lets every LLM-shaped scenario
    drive the trace generators.
    """
    classes = getattr(settings, "request_classes", None)
    if classes is not None:
        return tuple(classes)
    input_tokens = getattr(settings, "input_tokens", None)
    output_tokens = getattr(settings, "output_tokens", None)
    if input_tokens is None or output_tokens is None:
        raise ValueError(
            f"cannot derive a request mix from {type(settings).__name__}: "
            "expected 'request_classes' or 'input_tokens'/'output_tokens'")
    return (RequestClass(input_tokens=input_tokens, output_tokens=output_tokens),)


# ----------------------------------------------------------------- JSONL I/O
def load_trace_jsonl(path: str | pathlib.Path) -> tuple[Request, ...]:
    """Load a trace from a JSONL file (one request object per line).

    Each line needs ``arrival_s``, ``input_tokens`` and ``output_tokens``;
    ``request_id`` is optional and defaults to the number of requests read
    before the line (blank lines are skipped and do not count).  Requests
    are re-sorted by arrival time so hand-edited traces stay valid.

    Raises
    ------
    ValueError
        On malformed lines, missing fields or a request id that an earlier
        line already took, explicitly or by default (with the line number):
        a fleet tells requests apart by id.
    """
    path = pathlib.Path(path)
    requests: list[Request] = []
    id_lines: dict[int, int] = {}
    for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            session = record.get("session_id")
            request = Request(
                request_id=int(record.get("request_id", len(requests))),
                arrival_s=float(record["arrival_s"]),
                input_tokens=int(record["input_tokens"]),
                output_tokens=int(record["output_tokens"]),
                session_id=int(session) if session is not None else None)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path}:{line_number}: malformed trace line: {error}") from None
        first_line = id_lines.setdefault(request.request_id, line_number)
        if first_line != line_number:
            raise ValueError(f"{path}:{line_number}: request_id "
                             f"{request.request_id} repeats the request on "
                             f"line {first_line}")
        requests.append(request)
    if not requests:
        raise ValueError(f"{path}: trace file contains no requests")
    return tuple(sorted(requests, key=lambda r: (r.arrival_s, r.request_id)))


def write_trace_jsonl(trace: Sequence[Request],
                      path: str | pathlib.Path) -> pathlib.Path:
    """Write a trace as JSONL (the format :func:`load_trace_jsonl` reads).

    ``session_id`` is always written — explicitly ``null`` for standalone
    requests — so dump and load are symmetric field for field.  Dropping
    the key for ``None`` looks equivalent but is not future-proof: any
    reader (or hand-editing round trip) that treats "absent" differently
    from "null" would re-route standalone requests under session-affinity
    policies, silently diverging from the in-memory run.  A loaded dump is
    bit-for-bit the trace that was written, routing included.
    """
    path = pathlib.Path(path)
    lines = [json.dumps(encode(request)) for request in trace]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
