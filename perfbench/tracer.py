"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry point of every layer of the
simulator stack (the ``TARGETS`` table) with a span recorder, without
changing any ``repro`` code.  A span is ``(span id, parent id, op id,
layer, start, end, self seconds)``; a layer's self time is its span minus
the spans nested inside it.  A call nested directly in a span of its own
layer (``map_matmul`` inside ``TPUModel.run_graph``) is counted but opens
no span of its own, which keeps the recorder cheap on hot paths without
changing any layer's self time.  Spans stay in memory until the run ends.

Three wrapping traps shape :func:`install`:

* ``repro.api`` re-exports ``simulate``/``optimize`` and the facade's
  ``HANDLERS`` table holds them too, so every reference is replaced, not
  just the defining module's;
* ``fingerprint``, ``generate_trace`` and ``fleet_lower_bound`` are
  imported by name into their callers, so every loaded ``repro`` module
  holding the original is patched;
* ``repro.sweep`` re-exports the function ``fingerprint`` under the name
  of its module, so modules are looked up in ``sys.modules``, never by
  attribute.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from collections.abc import Callable

#: Every module a workload reaches, imported before patching so that all
#: by-name references to a wrapped function already exist.
_MODULES = (
    "repro", "repro.api", "repro.api.facade", "repro.api.responses",
    "repro.gateway", "repro.gateway.jobs", "repro.gateway.server",
    "repro.core.tpu", "repro.mapping.engine", "repro.mapping.mapspace",
    "repro.workloads.llm", "repro.workloads.moe", "repro.sweep.fingerprint",
    "repro.sweep.cache", "repro.sweep.store", "repro.serving.costs",
    "repro.serving.trace", "repro.serving.simulator", "repro.serving.cluster",
    "repro.serving.metrics", "repro.serving.fluid", "repro.analysis.capacity",
    "repro.optimize", "repro.optimize.evaluator", "repro.optimize.pareto",
)


def _one(key: str) -> Callable:
    return lambda args, kwargs, result: ((key, 1),)


def _steps(args, kwargs, result):
    return (("event-loop.runs", 1),
            ("event-loop.steps", result.prefill_steps + result.decode_steps))


def _routed(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return (("route.decisions", len(trace)),)


def _evaluated(args, kwargs, result):
    key = "search.full_runs" if result.fidelity == "full" else "search.screen_runs"
    return ((key, 1),)


def _store_get(args, kwargs, result):
    return (("store.gets", 1), ("store.hits", int(result is not None)))


def _candidates(args, kwargs, result):
    return (("pricing.mapping_candidates", len(result)),)


#: (layer, module, attribute, counts from the call, (count key, counter
#: read before and after the call)).  A dotted attribute names a method.
TARGETS = (
    ("pricing", "repro.core.tpu", "TPUModel.run_graph",
     _one("pricing.graph_evals"), None),
    ("pricing", "repro.mapping.engine", "MappingEngine.map_matmul",
     _one("pricing.matmul_maps"), None),
    ("pricing", "repro.mapping.mapspace", "enumerate_candidates",
     _candidates, None),
    ("pricing", "repro.workloads.llm", "LLMConfig.build_layer", None, None),
    ("pricing", "repro.workloads.moe", "MoEConfig.build_layer", None, None),
    ("fingerprint", "repro.sweep.fingerprint", "fingerprint",
     _one("fingerprint.calls"), None),
    ("memo", "repro.sweep.cache", "CachingInferenceSimulator.run_graph",
     _one("memo.graph_lookups"),
     ("memo.graph_misses", lambda args: args[0].cache.stats.misses)),
    ("memo", "repro.serving.costs", "StepCostModel.prefill_cost", None, None),
    ("memo", "repro.serving.costs", "StepCostModel.decode_cost", None, None),
    # The event loop prices through ``_step`` directly (hits never leave
    # its inlined memo lookup), so misses are counted here.
    ("memo", "repro.serving.costs", "StepCostModel._step", None,
     ("memo.step_misses", lambda args: args[0].stats.misses)),
    ("trace", "repro.serving.trace", "generate_trace", None, None),
    ("event-loop", "repro.serving.simulator", "ServingSimulator.run",
     _steps, None),
    ("route", "repro.serving.cluster", "ClusterSimulator.run", _routed, None),
    ("fluid", "repro.serving.fluid", "estimate_serving",
     _one("fluid.calls"), None),
    ("capacity", "repro.analysis.capacity", "fleet_lower_bound",
     _one("capacity.calls"), None),
    ("search", "repro.optimize.evaluator", "CandidateEvaluator.evaluate",
     _evaluated, None),
    ("codec", "repro.serving.metrics", "ServingReport.to_dict",
     _one("codec.calls"), None),
    ("codec", "repro.serving.cluster", "ClusterReport.to_dict",
     _one("codec.calls"), None),
    ("codec", "repro.serving.simulator", "serving_report_from_dict",
     _one("codec.calls"), None),
    ("codec", "repro.serving.cluster", "cluster_report_from_dict",
     _one("codec.calls"), None),
    ("codec", "repro.optimize.pareto", "ParetoFrontier.to_dict",
     _one("codec.calls"), None),
    ("codec", "repro.api.responses", "_Response.to_dict",
     _one("codec.calls"), None),
    ("api", "repro.api.facade", "simulate", _one("api.calls"), None),
    ("api", "repro.api.facade", "optimize", _one("api.calls"), None),
    ("api", "repro.api.facade", "run", None, None),
    ("store", "repro.sweep.store", "ResultStore.get", _store_get, None),
    ("store", "repro.sweep.store", "ResultStore.put",
     _one("store.puts"), None),
)

#: Layers in report order; ``other`` is op wall minus all of them.
LAYERS = tuple(dict.fromkeys(target[0] for target in TARGETS))


class Tracer:
    """Collects spans and counts from the wrappers :func:`install` places.

    Wrappers on several threads (the gateway's workers) share one tracer:
    the span list only ever appends, and counts are kept per thread and
    summed by :meth:`totals`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- state
    def set_op(self, op) -> None:
        """Tag the calling thread's next spans with op id ``op``."""
        self._local.op = op

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counts", None)
        if counter is None:
            counter = self._local.counts = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def totals_by_op(self) -> Counter:
        """``(op id, count key) -> amount``, summed over every thread."""
        with self._lock:
            counters = list(self._counters)
        total = Counter()
        for counter in counters:
            total.update(dict(counter))
        return total

    def totals(self, ops=None) -> Counter:
        """Count key -> amount over ops in ``ops`` (or all ops)."""
        return sum_counts(self.totals_by_op().items(), ops)

    # -------------------------------------------------------------- wrapper
    def wrap(self, layer: str, function: Callable, counts=None, delta=None,
             call_key: str = "") -> Callable:
        """``function`` recording a span of ``layer`` around each call."""
        local = self._local
        clock = time.perf_counter
        record = self.spans.append
        ids = self._ids
        counter = self._counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            op = getattr(local, "op", None)
            tally = counter()
            tally[op, call_key] += 1
            before = delta[1](args) if delta is not None else 0
            if stack and stack[-1][0] == layer:
                result = function(*args, **kwargs)
            else:
                frame = [layer, next(ids), 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = function(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    duration = end - start
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[2] += duration
                    record((frame[1], parent[1] if parent else 0, op, layer,
                            start, end, duration - frame[2]))
            if counts is not None:
                for key, amount in counts(args, kwargs, result):
                    tally[op, key] += amount
            if delta is not None:
                tally[op, delta[0]] += delta[1](args) - before
            return result

        return traced


class Installation:
    """The patches :func:`install` made; :meth:`uninstall` reverts them."""

    def __init__(self) -> None:
        #: (container, key, original): a module, class or dict entry.
        self.patches: list[tuple[object, str, object]] = []
        #: "module:attribute" -> the original function a wrapper calls.
        self.originals: dict[str, Callable] = {}

    def uninstall(self) -> None:
        """Put every original back, in reverse patch order."""
        for container, key, original in reversed(self.patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self.patches.clear()


def _replace_everywhere(installation: Installation, original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                installation.patches.append((module, key, original))
                setattr(module, key, wrapper)
            elif isinstance(value, dict) and not key.startswith("__"):
                for item_key, item in list(value.items()):
                    if item is original:
                        installation.patches.append((value, item_key, original))
                        value[item_key] = wrapper


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in ``TARGETS`` so calls record into ``tracer``."""
    for name in _MODULES:
        importlib.import_module(name)
    installation = Installation()
    for layer, module_name, attribute, counts, delta in TARGETS:
        module = sys.modules[module_name]
        call_key = f"{module_name}:{attribute}"
        owner_name, _, method = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[method]
            wrapper = tracer.wrap(layer, original, counts, delta, call_key)
            installation.patches.append((owner, method, original))
            setattr(owner, method, wrapper)
        else:
            original = getattr(module, attribute)
            wrapper = tracer.wrap(layer, original, counts, delta, call_key)
            _replace_everywhere(installation, original, wrapper)
        installation.originals[call_key] = original
    return installation


def sum_counts(items, ops=None) -> Counter:
    """Sum ``((op id, key), amount)`` items by key, for ops in ``ops``."""
    total = Counter()
    for (op, key), amount in items:
        if ops is None or op in ops:
            total[key] += amount
    return total


def self_times(spans, ops=None) -> dict:
    """op id -> {layer: summed self seconds}, for ops in ``ops`` (or all)."""
    table: dict = {}
    for _, _, op, layer, _, _, seconds in spans:
        if ops is not None and op not in ops:
            continue
        row = table.setdefault(op, {})
        row[layer] = row.get(layer, 0.0) + seconds
    return table
