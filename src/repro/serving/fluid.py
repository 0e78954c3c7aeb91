"""Closed-form fluid approximation of a serving run.

Day-scale what-ifs and optimizer screening passes do not need an exact
replay of every request — they need the *shape* of the outcome (is the
deployment overloaded? roughly what TTFT/TPOT/throughput?) at negligible
cost.  :func:`estimate_serving` prices a
:class:`~repro.serving.spec.ServingSpec` at **class level**: all work is
per request *class* (a mix has a handful), never per request, so a
250k-request day trace costs the same as a 200-request one — microseconds
on a warm step-cost memo.

The model, in brief:

* **Step prices.**  Every step is priced through the same memoised
  :class:`~repro.serving.costs.StepCostModel` the exact engine uses (same
  buckets, same layer graphs) — fluid and exact disagree only about
  queueing and batching, never about what a step costs.  Crucially, a
  decode step is priced at the **batch maximum** context, exactly like the
  engine: each class's expected step price marginalises over which class
  holds the max among its ``B - 1`` random batchmates (slot occupancy
  weighted by decode residence time), so a heavy long-context class taxes
  everyone, as it does in the exact replay.
* **Concurrency.**  The effective batch is a fixed point of Little's law
  clamped by the KV-reservation budget and ``max_batch`` — overload pins
  it at the cap, light load drives it to one.
* **Queueing.**  The deployment is an ``Erlang-C`` system of ``batch``
  slots: underloaded waits use the Erlang delay probability with the
  standard exponential conditional tail; overloaded runs use the fluid
  backlog (request ``i`` waits ``i * (E[work] - 1/rate)``, uniform across
  the trace), which is what a saturated queue actually does.
* **Distributions.**  Per-class TTFT/TPOT/e2e are evaluated on a
  deterministic stratified quantile grid (no randomness, no trace),
  weighted by the class mix, and summarised by the same
  :class:`~repro.serving.metrics.LatencySummary` machinery as the exact
  engine, so every report field downstream code reads is present.

What fluid fidelity deliberately does **not** model: scheduler-policy
differences (admission order cannot matter to a flow), fault timelines
(rejected at the spec level), and per-request rows (``report.requests``
is empty).  Error against the exact engine is pinned by golden tests per
scenario; fidelity-affecting changes here must bump the serving/cluster
store key versions (see CONTRIBUTING).
"""

from __future__ import annotations

import math

from repro.common import ceil_div
from repro.core.config import TPUConfig
from repro.serving.metrics import LatencySummary, ServingReport
from repro.serving.simulator import ServingSimulator
from repro.serving.spec import ServingSpec
from repro.serving.trace import request_classes_from_settings
from repro.workloads.chat import RequestClass, mix_fractions
from repro.workloads.llm import LLMConfig

#: Stratified quantile samples the latency distributions are evaluated on.
_QUANTILE_SAMPLES = 512


def _trajectory(costs, batch: int, input_tokens: int, output_tokens: int,
                ) -> tuple[float, float, float]:
    """Full-step decode (seconds, mxu_J, total_J) over one class's contexts.

    Mirrors the exact engine: after prefill emits token 1 the context is
    ``input_tokens + 1``; each later token prices the bucket of the context
    before its step, so the trajectory covers contexts ``input_tokens + 1
    .. input_tokens + output_tokens - 1`` — walked bucket by bucket.
    """
    seconds = mxu_e = total_e = 0.0
    bt = costs.bucket_tokens
    context = input_tokens + 1
    last = input_tokens + output_tokens - 1
    while context <= last:
        bucket = ceil_div(context, bt) * bt
        steps = min(last, bucket) - context + 1
        cost = costs._step("decode", batch, bucket)
        seconds += steps * cost.seconds
        mxu_e += steps * cost.mxu_energy_joules
        total_e += steps * cost.total_energy_joules
        context = bucket + 1
    return seconds, mxu_e, total_e


def _erlang_c(servers: int, erlangs: float) -> float:
    """Erlang-C delay probability for ``servers`` slots at offered load."""
    if erlangs <= 0.0:
        return 0.0
    rho = erlangs / servers
    if rho >= 1.0:
        return 1.0
    # Iterative Erlang-B, then the C conversion — no factorials to overflow.
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = erlangs * blocking / (k + erlangs * blocking)
    return blocking / (1.0 - rho * (1.0 - blocking))


def estimate_serving(model: LLMConfig, tpu_config: TPUConfig,
                     spec: ServingSpec, settings: object) -> ServingReport:
    """Price a serving spec with the closed-form fluid model.

    Returns a fully populated :class:`~repro.serving.metrics.ServingReport`
    (``requests`` empty) comparable field-for-field with the exact
    engine's.  A :class:`ServingSimulator` is constructed only for its
    deployment planning and memoised step costs — no event loop runs.  Step
    prices come from the process-wide step-price table.

    Raises
    ------
    ValueError
        If the spec injects faults, or the deployment cannot hold the
        model's weights (same message as the exact engine).
    """
    if spec.faults:
        raise ValueError("fault injection needs the exact event loop; "
                         "fluid fidelity cannot replay fault timelines")
    classes = request_classes_from_settings(settings)
    engine = ServingSimulator.for_spec(model, tpu_config, spec, settings)
    costs = engine.costs
    kv_per_token = engine.kv_bytes_per_token

    devices = spec.devices if spec.devices is not None else engine.plan_devices(classes)
    budget = engine.kv_budget(devices)
    if budget <= 0:
        raise ValueError(
            f"{model.name} does not fit {devices} x {tpu_config.name}: "
            f"no KV budget left after weights (use more devices)")

    # Class mix restricted to admissible shapes (same predicate as exact).
    token_limit = budget // kv_per_token
    fractions = mix_fractions(classes)
    admitted: list[tuple[RequestClass, float]] = [
        (cls, frac) for cls, frac in zip(classes, fractions)
        if cls.total_tokens <= token_limit]
    n = spec.num_requests
    rate = spec.arrival_rate
    slo = spec.slo
    if not admitted:
        return _empty_report(engine, spec, devices=devices, budget=budget,
                             rejected=n)
    admitted_frac = sum(frac for _, frac in admitted)
    rejected = round(n * (1.0 - admitted_frac))
    completed = n - rejected
    weights = [frac / admitted_frac for _, frac in admitted]
    mix = [cls for cls, _ in admitted]
    k = len(mix)

    # KV-reservation concurrency: while a class-``c`` request is live it
    # holds ``ctx_c`` tokens of budget; its expected batchmates hold the
    # mix-mean footprint each, so the class sees its own effective batch —
    # a heavy long-context class both raises the step price *and* shrinks
    # the batch that shares it, exactly the squeeze the exact engine's
    # admission control produces.
    mean_total_tokens = sum(w * c.total_tokens for c, w in zip(mix, weights))
    contexts = [c.total_tokens for c in mix]
    decode_steps_per = [c.output_tokens - 1 for c in mix]

    def kv_batch(context: int) -> int:
        spare = (token_limit - context) / mean_total_tokens
        return max(1, min(spec.max_batch, 1 + int(spare)))

    # Fixed point: concurrency -> step prices -> offered load -> concurrency.
    load_cap = spec.max_batch
    for _ in range(3):
        batches = [min(load_cap, kv_batch(context)) for context in contexts]
        prefill = [costs._step("prefill", b, costs.bucket(c.input_tokens))
                   for c, b in zip(mix, batches)]
        trajectories = [_trajectory(costs, b, c.input_tokens, c.output_tokens)
                        for c, b in zip(mix, batches)]
        # Average own-trajectory step price of each class (out == 1 classes
        # never decode; they stay priced but out of the occupancy mix).
        own_avg = [
            tuple(value / steps for value in trajectory) if steps else (0.0,) * 3
            for trajectory, steps in zip(trajectories, decode_steps_per)]
        # Slot-occupancy weights: share of decode step-time each class holds.
        residence = [w * t[0] for w, t in zip(weights, trajectories)]
        total_residence = sum(residence)
        # Batch-max marginalisation: class ``i``'s tokens are priced at the
        # max context over itself and its B-1 occupancy-sampled batchmates.
        # ``price`` is the full step duration class ``i`` experiences (its
        # latency per token); ``share`` divides each term by the *max
        # holder's* batch — when the heavy class defines the max, the KV
        # budget has squeezed the batch to the heavy class's concurrency,
        # so everyone aboard splits the step that few ways, not their own
        # optimistic ``B_i`` ways.  This is what makes saturated work per
        # request come out right.
        order = sorted(range(k), key=lambda i: contexts[i])
        price: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * k
        share: list[tuple[float, float, float]] = [(0.0, 0.0, 0.0)] * k
        if total_residence > 0.0:
            occupancy = [r / total_residence for r in residence]
            cumulative = 0.0
            below: list[float] = []  # P(random slot's context <= class i's)
            for i in order:
                cumulative += occupancy[i]
                below.append(cumulative)
            for position, i in enumerate(order):
                if decode_steps_per[i] == 0:
                    continue
                exponent = batches[i] - 1
                mass = below[position] ** exponent
                full = [mass * value for value in own_avg[i]]
                split = [value / batches[i] for value in full]
                prev = below[position]
                for later_pos in range(position + 1, k):
                    j = order[later_pos]
                    prob = below[later_pos] ** exponent - prev ** exponent
                    prev = below[later_pos]
                    if prob <= 0.0 or decode_steps_per[j] == 0:
                        continue
                    for axis in range(3):
                        value = prob * own_avg[j][axis]
                        full[axis] += value
                        split[axis] += value / batches[j]
                price[i] = tuple(full)
                share[i] = tuple(split)
        # Per-request work share at this concurrency.
        work = [p.seconds / b + steps * sh[0]
                for p, b, steps, sh in zip(prefill, batches, decode_steps_per,
                                           share)]
        mean_work = sum(w * x for x, w in zip(work, weights))
        sojourns = [p.seconds + steps * pr[0]
                    for p, steps, pr in zip(prefill, decode_steps_per, price)]
        offered = rate * sum(w * s for w, s in zip(weights, sojourns))
        load_cap = max(1, min(spec.max_batch, math.ceil(offered)))
    rho = rate * mean_work
    overloaded = rho >= 1.0
    slots = max(batches)
    chunk_counts = [max(1, ceil_div(steps, costs.bucket_tokens)) if steps else 0
                    for steps in decode_steps_per]

    # Wait-time quantile function (queueing seconds before the prefill).
    if overloaded:
        max_wait = max(0.0, completed * (mean_work - 1.0 / rate))

        def wait_at(q: float) -> float:
            return q * max_wait
    else:
        delay_p = _erlang_c(slots, rho * slots)
        surplus = (1.0 - rho) / mean_work  # spare service rate, requests/s
        # Admission happens only at step boundaries, and a decode *chunk*
        # (a run of same-bucket steps) is one event — an arrival finding
        # the pipeline busy waits out the residual of the current chunk
        # even when a slot is free.  Model it as a linear ramp over the
        # busy fraction with the occupancy-weighted mean chunk duration.
        if total_residence > 0.0:
            mean_chunk = sum(r / total_residence * t[0] / chunks
                             for r, t, chunks in zip(residence, trajectories,
                                                     chunk_counts) if chunks)
        else:
            mean_chunk = 0.0
        busy_frac = min(1.0, rho)

        def wait_at(q: float) -> float:
            residual = 0.0
            if busy_frac > 0.0 and q > 1.0 - busy_frac:
                residual = mean_chunk * (q - (1.0 - busy_frac)) / busy_frac
            if q <= 1.0 - delay_p or delay_p <= 0.0:
                return residual
            return residual + math.log(delay_p / (1.0 - q)) / surplus

    # Stratified per-class samples -> the same LatencySummary machinery as
    # the exact engine.  Deterministic: midpoints of equal-mass strata.
    ttfts: list[float] = []
    tpots: list[float] = []
    e2es: list[float] = []
    met = 0
    met_token_weight = 0.0
    token_weight = 0.0
    for cls, weight, p, steps, pr in zip(mix, weights, prefill,
                                         decode_steps_per, price):
        samples = max(1, round(weight * _QUANTILE_SAMPLES))
        tpot = pr[0] if steps else 0.0
        decode_latency = steps * pr[0]
        token_weight += samples * cls.output_tokens
        for j in range(samples):
            q = (j + 0.5) / samples
            ttft = wait_at(q) + p.seconds
            ttfts.append(ttft)
            tpots.append(tpot)
            e2es.append(ttft + decode_latency)
            if ttft <= slo.ttft_s and tpot <= slo.tpot_s:
                met += 1
                met_token_weight += cls.output_tokens
    attainment = met / len(ttfts)
    goodput_frac = met_token_weight / token_weight if token_weight else 0.0

    total_tokens = round(completed * sum(w * c.output_tokens
                                         for c, w in zip(mix, weights)))
    busy_s = completed * mean_work
    if overloaded:
        makespan = busy_s
    else:
        # Arrival span plus the last request's expected sojourn.
        mean_wait = delay_p / surplus + busy_frac * mean_chunk
        sojourn = sum(w * s for w, s in zip(weights, sojourns))
        makespan = completed / rate + mean_wait + sojourn
    per_second = 1.0 / makespan if makespan > 0 else 0.0

    mxu_energy = completed * sum(
        w * (p.mxu_energy_joules / b + steps * sh[1])
        for w, p, b, steps, sh in zip(weights, prefill, batches,
                                      decode_steps_per, share))
    total_energy = completed * sum(
        w * (p.total_energy_joules / b + steps * sh[2])
        for w, p, b, steps, sh in zip(weights, prefill, batches,
                                      decode_steps_per, share))

    peak_tokens = max(ctx + (b - 1) * mean_total_tokens
                      for ctx, b in zip(contexts, batches))
    peak_reserved = min(budget, round(peak_tokens * kv_per_token))

    return ServingReport(
        model_name=model.name, tpu_name=tpu_config.name,
        scheduler=engine.policy.name, devices=devices,
        num_requests=n, completed=completed, rejected=rejected,
        makespan_s=makespan, busy_s=min(busy_s, makespan),
        total_tokens=total_tokens,
        tokens_per_second=total_tokens * per_second,
        requests_per_second=completed * per_second,
        ttft=LatencySummary.from_values(ttfts),
        tpot=LatencySummary.from_values(tpots),
        e2e=LatencySummary.from_values(e2es),
        slo=slo, slo_attainment=attainment,
        goodput_requests_per_second=completed * attainment * per_second,
        goodput_tokens_per_second=total_tokens * goodput_frac * per_second,
        mxu_energy_joules=mxu_energy, total_energy_joules=total_energy,
        energy_per_token_joules=mxu_energy / total_tokens if total_tokens else 0.0,
        prefill_steps=round(completed * sum(
            w / b for w, b in zip(weights, batches))),
        decode_steps=round(completed * sum(
            w * chunks / b for w, b, chunks in zip(weights, batches,
                                                   chunk_counts))),
        kv_budget_bytes=budget, peak_kv_reserved_bytes=peak_reserved,
        cost_cache_hits=costs.stats.hits, cost_cache_misses=costs.stats.misses,
        requests=())


def _empty_report(engine: ServingSimulator, spec: ServingSpec, *,
                  devices: int, budget: int, rejected: int) -> ServingReport:
    """Report of a run whose every request class is inadmissible."""
    return ServingReport(
        model_name=engine.model.name, tpu_name=engine.tpu_config.name,
        scheduler=engine.policy.name, devices=devices,
        num_requests=spec.num_requests, completed=0, rejected=rejected,
        makespan_s=0.0, busy_s=0.0, total_tokens=0, tokens_per_second=0.0,
        requests_per_second=0.0, ttft=LatencySummary.empty(),
        tpot=LatencySummary.empty(), e2e=LatencySummary.empty(),
        slo=spec.slo, slo_attainment=0.0, goodput_requests_per_second=0.0,
        goodput_tokens_per_second=0.0, mxu_energy_joules=0.0,
        total_energy_joules=0.0, energy_per_token_joules=0.0,
        prefill_steps=0, decode_steps=0, kv_budget_bytes=budget,
        peak_kv_reserved_bytes=0,
        cost_cache_hits=engine.costs.stats.hits,
        cost_cache_misses=engine.costs.stats.misses, requests=())
