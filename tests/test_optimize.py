"""Tests for the Pareto co-design optimizer (`repro.optimize`)."""

import dataclasses

import pytest

from repro.optimize import (
    OBJECTIVE_REGISTRY,
    SEARCH_REGISTRY,
    Candidate,
    CandidateEvaluator,
    CodesignOptimizer,
    DesignSpace,
    Objective,
    bound_constraint,
    build_frontier,
    dominates,
    fit_constraint,
    get_objective,
    get_search,
    non_dominated,
    parse_constraint,
    register_objective,
    register_search,
    slo_constraint,
)
from repro.optimize.evaluator import CandidateResult
from repro.optimize.pareto import dominates_with_margin, frontier_fieldnames
from repro.optimize.search import SearchStrategy
from repro.serving.spec import ServingSpec
from repro.sweep.export import to_csv, write_csv
from repro.sweep.store import ResultStore
from repro.workloads.dit import DIT_XL_2
from repro.workloads.llm import LLAMA2_7B

SMALL_SPACE = DesignSpace(
    designs=("baseline", "design-a"),
    routers=("round-robin", "least-outstanding-requests"),
    replica_counts=(2, 3, 4))

WORKLOAD = ServingSpec(arrival_rate=24.0, num_requests=240, seed=7)
FAST = dict(input_tokens=64, output_tokens=16,
            objectives=("cost-per-million-tokens", "p99-ttft"))


def make_result(cache_key, **metrics):
    """A synthetic full-fidelity feasible result with given metrics."""
    base = dict(design="baseline", model="llama2-7b", precision="int8",
                scheduler="fcfs", router="round-robin", autoscaler="fixed",
                replicas=2, max_batch=32, arrival_rate=8.0, num_requests=100,
                fidelity="full", feasible=True, infeasibility="",
                total_devices=2, completed=100, rejected=0, slo_attainment=1.0,
                p99_ttft_s=0.1, p99_tpot_s=0.01, tokens_per_second=100.0,
                energy_per_token_joules=0.1, chip_hours=1.0,
                cost_per_million_tokens_dollars=2.0, utilisation=0.5,
                cache_key=cache_key)
    base.update(metrics)
    return CandidateResult(**base)


class TestDesignSpace:
    def test_expansion_is_deterministic_and_deduplicated(self):
        candidates = SMALL_SPACE.candidates()
        assert candidates == SMALL_SPACE.candidates()
        assert len(candidates) == len(set(candidates))
        # 2 designs x (x2, x3, x4 under 2 routers) = 12; no x1 dedup here.
        assert len(candidates) == 12

    def test_single_replica_candidates_collapse_policies(self):
        space = DesignSpace(designs=("baseline",),
                            routers=("round-robin", "session-affinity"),
                            autoscalers=("fixed", "queue-depth"),
                            replica_counts=(1,))
        candidates = space.candidates()
        assert len(candidates) == 1
        assert candidates[0].router == "round-robin"
        assert candidates[0].autoscaler == "fixed"

    def test_unknown_names_raise_structured_errors(self):
        with pytest.raises(KeyError, match="predefined designs"):
            DesignSpace(designs=("gpu",))
        with pytest.raises(KeyError, match="registered routers"):
            DesignSpace(designs=("baseline",), routers=("magic",))
        with pytest.raises(KeyError, match="registered autoscalers"):
            DesignSpace(designs=("baseline",), autoscalers=("magic",))
        with pytest.raises(KeyError, match="registered schedulers"):
            DesignSpace(designs=("baseline",), schedulers=("magic",))

    def test_empty_axes_and_bad_values_rejected(self):
        with pytest.raises(ValueError, match="designs"):
            DesignSpace(designs=())
        with pytest.raises(ValueError, match="replica_counts"):
            DesignSpace(designs=("baseline",), replica_counts=(0,))
        with pytest.raises(ValueError):
            DesignSpace(designs=("baseline",), precisions=("fp4",))

    def test_candidate_validation_and_spec(self):
        with pytest.raises(ValueError):
            Candidate(design="baseline", replicas=0)
        candidate = Candidate(design="baseline", replicas=3,
                              router="least-kv-pressure")
        workload = ServingSpec(arrival_rate=10.0, num_requests=50, seed=3)
        spec = candidate.serving_spec(workload)
        assert spec.replicas == 3
        assert spec.router == "least-kv-pressure"
        assert spec.num_requests == 50
        assert spec == dataclasses.replace(
            workload, replicas=3, router="least-kv-pressure")
        assert "x3" in candidate.summary()


class TestObjectivesAndConstraints:
    def test_registry_covers_the_paper_objectives(self):
        for name in ("cost-per-million-tokens", "p99-ttft", "p99-tpot",
                     "energy-per-token", "chip-hours"):
            assert name in OBJECTIVE_REGISTRY

    def test_registry_covers_the_resilience_objectives(self):
        for name, attr in (("availability", "availability"),
                           ("recovery-s", "recovery_s"),
                           ("slo-debt", "slo_debt_s"),
                           ("goodput-under-failure",
                            "goodput_under_failure_tokens_per_second")):
            assert get_objective(name).attr == attr

    def test_unknown_objective_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered objectives"):
            get_objective("latency")

    def test_duplicate_registration_rejected(self):
        objective = OBJECTIVE_REGISTRY["p99-ttft"]
        with pytest.raises(ValueError, match="already registered"):
            register_objective(objective)

    def test_max_objectives_negate_scores(self):
        throughput = get_objective("tokens-per-second")
        result = make_result("k", tokens_per_second=50.0)
        assert throughput.value(result) == 50.0
        assert throughput.score(result) == -50.0

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError, match="'min' or 'max'"):
            Objective(name="x", attr="chip_hours", direction="best",
                      unit="", description="")

    def test_parse_constraint_forms(self):
        slo = parse_constraint("slo>=0.9")
        assert slo.kind == "slo"
        assert slo.satisfied(make_result("k", slo_attainment=0.95))
        assert not slo.satisfied(make_result("k", slo_attainment=0.85))

        fit = parse_constraint("fit")
        assert fit.satisfied(make_result("k"))
        assert not fit.satisfied(make_result("k", feasible=False,
                                             infeasibility="too big"))

        bound = parse_constraint("p99-ttft<=0.5")
        assert bound.satisfied(make_result("k", p99_ttft_s=0.4))
        assert not bound.satisfied(make_result("k", p99_ttft_s=0.6))

    def test_parse_constraint_rejects_nonsense(self):
        with pytest.raises(ValueError, match="accepted forms"):
            parse_constraint("cheap and fast")
        with pytest.raises(ValueError, match="attainment floors"):
            parse_constraint("slo<=0.9")
        with pytest.raises(KeyError, match="registered objectives"):
            parse_constraint("latency<=0.5")
        with pytest.raises(ValueError, match="in \\(0, 1\\]"):
            slo_constraint(1.5)

    def test_bound_constraint_direct(self):
        constraint = bound_constraint("chip-hours", ">=", 0.5)
        assert constraint.satisfied(make_result("k", chip_hours=1.0))
        with pytest.raises(ValueError, match="operator"):
            bound_constraint("chip-hours", "==", 0.5)
        assert fit_constraint().kind == "fit"


class TestPareto:
    def test_dominance_definition(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (2.0, 2.0))  # ties never dominate

    def test_dominates_with_margin(self):
        # 10% margin: must be at least 10% better on every axis.
        assert dominates_with_margin((0.8, 0.8), (1.0, 1.0), 0.1)
        assert not dominates_with_margin((0.95, 0.8), (1.0, 1.0), 0.1)
        assert dominates_with_margin((0.95, 0.8), (1.0, 1.0), 0.0)

    def test_non_dominated_keeps_ties_and_frontier(self):
        objectives = (get_objective("cost-per-million-tokens"),
                      get_objective("p99-ttft"))
        cheap = make_result("cheap", cost_per_million_tokens_dollars=1.0,
                            p99_ttft_s=0.5)
        fast = make_result("fast", cost_per_million_tokens_dollars=3.0,
                           p99_ttft_s=0.05)
        beaten = make_result("beaten", cost_per_million_tokens_dollars=3.5,
                             p99_ttft_s=0.5)
        tie = make_result("tie", cost_per_million_tokens_dollars=1.0,
                          p99_ttft_s=0.5)
        front = non_dominated([cheap, fast, beaten, tie], objectives)
        assert cheap in front and fast in front and tie in front
        assert beaten not in front

    def test_build_frontier_orders_extremes_and_counts(self):
        objectives = (get_objective("cost-per-million-tokens"),
                      get_objective("p99-ttft"))
        cheap = make_result("cheap", cost_per_million_tokens_dollars=1.0,
                            p99_ttft_s=0.5)
        fast = make_result("fast", cost_per_million_tokens_dollars=3.0,
                           p99_ttft_s=0.05)
        beaten = make_result("beaten", cost_per_million_tokens_dollars=3.5,
                             p99_ttft_s=0.5)
        frontier = build_frontier([cheap, fast, beaten], objectives,
                                  model_name="llama2-7b", strategy="exhaustive",
                                  candidates=3)
        assert [p.result.cache_key for p in frontier.points] == ["cheap", "fast"]
        assert frontier.dominated == 1
        assert dict(frontier.extremes) == {
            "cost-per-million-tokens": "cheap", "p99-ttft": "fast"}
        # `beaten` is dominated by both frontier points.
        assert {p.result.cache_key: p.dominated_count
                for p in frontier.points} == {"cheap": 1, "fast": 1}

    def test_frontier_rows_export_as_csv(self):
        objectives = (get_objective("chip-hours"),)
        frontier = build_frontier([make_result("only")], objectives,
                                  model_name="llama2-7b", strategy="exhaustive")
        text = to_csv(frontier.rows(), fieldnames=frontier_fieldnames())
        assert "dominated_count" in text.splitlines()[0]
        assert len(text.splitlines()) == 2

    def test_empty_frontier_shape(self):
        frontier = build_frontier([], (get_objective("chip-hours"),),
                                  model_name="llama2-7b", strategy="exhaustive")
        assert len(frontier) == 0
        assert frontier.extremes == ()
        assert frontier.signature() == ()


class TestSearchRegistry:
    def test_builtin_strategies_registered(self):
        for name in ("exhaustive", "random", "successive-halving"):
            assert name in SEARCH_REGISTRY

    def test_unknown_strategy_lists_registered_names(self):
        with pytest.raises(KeyError, match="registered strategies"):
            get_search("bayesian")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_search(SEARCH_REGISTRY["exhaustive"])

    def test_custom_strategy_plugs_in(self):
        def first_only(context):
            return (context.evaluator.evaluate(context.candidates[0]),)

        register_search(SearchStrategy(name="first-only", description="",
                                       run=first_only))
        try:
            frontier = CodesignOptimizer(
                LLAMA2_7B, SMALL_SPACE, WORKLOAD, strategy="first-only",
                **FAST).run()
            assert len(frontier.points) == 1
            assert frontier.strategy == "first-only"
        finally:
            del SEARCH_REGISTRY["first-only"]


class TestEvaluator:
    def test_rejects_non_llm_models_and_bad_rates(self):
        with pytest.raises(ValueError, match="not an LLM"):
            CandidateEvaluator(DIT_XL_2, ServingSpec(arrival_rate=8.0))
        with pytest.raises(ValueError, match="arrival_rate"):
            CandidateEvaluator(LLAMA2_7B, ServingSpec(arrival_rate=0.0))

    def test_unknown_design_raises_structured_error(self):
        evaluator = CandidateEvaluator(
            LLAMA2_7B, ServingSpec(arrival_rate=8.0, num_requests=40))
        with pytest.raises(KeyError, match="known designs"):
            evaluator.evaluate(Candidate(design="missing"))

    def test_fidelity_labels_and_counters(self):
        evaluator = CandidateEvaluator(
            LLAMA2_7B, ServingSpec(arrival_rate=16.0, num_requests=80, seed=7),
            input_tokens=64, output_tokens=16)
        candidate = Candidate(design="baseline", replicas=2)
        short = evaluator.evaluate(candidate, num_requests=20)
        full = evaluator.evaluate(candidate)
        assert short.fidelity == "short" and short.num_requests == 20
        assert full.fidelity == "full" and full.num_requests == 80
        assert short.cache_key != full.cache_key
        assert evaluator.short_runs == 1 and evaluator.full_runs == 1

    def test_capacity_lower_bound_is_memoised_and_positive(self):
        evaluator = CandidateEvaluator(
            LLAMA2_7B, ServingSpec(arrival_rate=64.0, num_requests=40),
            input_tokens=64, output_tokens=16)
        candidate = Candidate(design="baseline", replicas=1)
        bound = evaluator.capacity_lower_bound(candidate)
        assert bound >= 1
        assert evaluator.capacity_lower_bound(candidate) == bound

    def test_infeasible_rows_are_flat_and_excluded_from_frontiers(self):
        evaluator = CandidateEvaluator(
            LLAMA2_7B, ServingSpec(arrival_rate=8.0, num_requests=40))
        row = evaluator.infeasible(Candidate(design="baseline"), "too big")
        assert not row.feasible
        assert row.infeasibility == "too big"
        assert dataclasses.asdict(row)  # flat: asdict never sees nesting


class TestGoldenEquivalence:
    """The acceptance property: halving == exhaustive, strictly cheaper."""

    @pytest.fixture(scope="class")
    def frontiers(self):
        exhaustive = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                       strategy="exhaustive", **FAST).run()
        halving = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                    strategy="successive-halving", **FAST).run()
        return exhaustive, halving

    def test_halving_finds_the_exhaustive_frontier(self, frontiers):
        exhaustive, halving = frontiers
        assert halving.signature() == exhaustive.signature()
        assert [p.values for p in halving.points] == [
            p.values for p in exhaustive.points]

    def test_halving_runs_strictly_fewer_full_simulations(self, frontiers):
        exhaustive, halving = frontiers
        assert exhaustive.full_runs == len(SMALL_SPACE.candidates())
        assert halving.full_runs < exhaustive.full_runs
        assert halving.short_runs == len(SMALL_SPACE.candidates())

    def test_frontier_is_reproducible(self, frontiers):
        exhaustive, _ = frontiers
        again = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                  strategy="exhaustive", **FAST).run()
        assert again.signature() == exhaustive.signature()
        assert again.points == exhaustive.points


class TestPersistentSearch:
    def test_warm_store_search_simulates_nothing(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cold = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                 strategy="successive-halving",
                                 store=ResultStore(path), **FAST).run()
        assert cold.full_runs + cold.short_runs > 0

        warm = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                 strategy="successive-halving",
                                 store=ResultStore(path), **FAST).run()
        assert warm.full_runs + warm.short_runs == 0
        assert warm.store_served > 0
        assert warm.signature() == cold.signature()
        assert warm.points == cold.points  # bit-for-bit frontier

    def test_undecodable_store_payload_counts_as_a_simulation(self, tmp_path):
        # A record written under the current STORE_VERSION whose payload no
        # longer decodes (the forgot-to-bump drift case) forces a real
        # recompute — the accounting must report a run, not a store hit,
        # or "new simulations: 0" lies exactly when drift happens.
        import json

        from repro.optimize.evaluator import CandidateEvaluator

        path = tmp_path / "store.jsonl"
        workload = ServingSpec(arrival_rate=16.0, num_requests=40, seed=7)
        evaluator = CandidateEvaluator(LLAMA2_7B, workload, input_tokens=64,
                                       output_tokens=16,
                                       store=ResultStore(path))
        candidate = Candidate(design="baseline", replicas=2)
        evaluator.evaluate(candidate)
        assert evaluator.full_runs == 1

        # Corrupt the stored payload in place (same version, unusable body).
        records = [json.loads(line)
                   for line in path.read_text().splitlines() if line.strip()]
        for record in records:
            record["value"] = {"drifted": True}
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n",
                        encoding="utf-8")

        drifted = CandidateEvaluator(LLAMA2_7B, workload, input_tokens=64,
                                     output_tokens=16,
                                     store=ResultStore(path))
        result = drifted.evaluate(candidate)
        assert result.feasible
        assert drifted.full_runs == 1
        assert drifted.store_served == 0

    def test_store_is_shared_across_strategies(self, tmp_path):
        path = tmp_path / "store.jsonl"
        CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD, strategy="exhaustive",
                          store=ResultStore(path), **FAST).run()
        halving = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                    strategy="successive-halving",
                                    store=ResultStore(path), **FAST).run()
        # Full-fidelity evaluations are already stored; only the short
        # pruning traces are new work.
        assert halving.full_runs == 0


class TestOptimizerPolicies:
    def test_random_strategy_is_seeded_and_budgeted(self):
        kwargs = dict(FAST, strategy="random", budget=4)
        first = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD, **kwargs).run()
        second = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD, **kwargs).run()
        assert first.full_runs == 4
        assert first.signature() == second.signature()

    def test_random_rejects_non_positive_budget(self):
        with pytest.raises(ValueError, match="positive budget"):
            CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD, strategy="random",
                              budget=0, **FAST).run()

    def test_random_without_budget_prices_the_whole_space(self):
        # "--budget default: unlimited" must mean unlimited: no budget =
        # every candidate priced, i.e. the exhaustive frontier.
        unlimited = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                      strategy="random", **FAST).run()
        exhaustive = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                       strategy="exhaustive", **FAST).run()
        assert unlimited.full_runs == len(SMALL_SPACE.candidates())
        assert unlimited.signature() == exhaustive.signature()

    def test_provenance_buckets_partition_the_space(self):
        for strategy, budget in (("exhaustive", None),
                                 ("successive-halving", None),
                                 ("random", 4)):
            frontier = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                         strategy=strategy, budget=budget,
                                         **FAST).run()
            assert (len(frontier.points) + frontier.dominated
                    + frontier.constraint_filtered + frontier.infeasible
                    + frontier.strategy_pruned) == frontier.candidates

    def test_constraints_filter_the_frontier(self):
        unconstrained = CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD,
                                          strategy="exhaustive", **FAST).run()
        constrained = CodesignOptimizer(
            LLAMA2_7B, SMALL_SPACE, WORKLOAD, strategy="exhaustive",
            constraints=(parse_constraint("slo>=0.99"),), **FAST).run()
        assert all(p.result.slo_attainment >= 0.99 for p in constrained.points)
        assert constrained.constraint_filtered > 0
        assert len(constrained) <= len(unconstrained)

    def test_slo_constraint_triggers_capacity_pruning(self):
        space = DesignSpace(designs=("baseline",), replica_counts=(1, 2, 3))
        workload = ServingSpec(arrival_rate=64.0, num_requests=120, seed=7)
        frontier = CodesignOptimizer(
            LLAMA2_7B, space, workload, strategy="exhaustive",
            constraints=(parse_constraint("slo>=0.5"),), input_tokens=64,
            output_tokens=16, objectives=("cost-per-million-tokens",)).run()
        assert frontier.capacity_pruned > 0
        assert frontier.infeasible >= frontier.capacity_pruned
        disabled = CodesignOptimizer(
            LLAMA2_7B, space, workload, strategy="exhaustive",
            constraints=(parse_constraint("slo>=0.5"),), input_tokens=64,
            output_tokens=16, objectives=("cost-per-million-tokens",),
            use_capacity_bound=False).run()
        assert disabled.capacity_pruned == 0

    def test_needs_at_least_one_objective(self):
        with pytest.raises(ValueError, match="at least one objective"):
            CodesignOptimizer(LLAMA2_7B, SMALL_SPACE, WORKLOAD, objectives=())

    def test_frontier_json_and_csv_round_trip(self, tmp_path):
        frontier = CodesignOptimizer(
            LLAMA2_7B, DesignSpace(designs=("baseline",), replica_counts=(2,)),
            WORKLOAD, strategy="exhaustive", **FAST).run()
        payload = frontier.to_dict()
        assert tuple(payload["objectives"]) == ("cost-per-million-tokens",
                                                "p99-ttft")
        assert payload["points"][0]["dominated_count"] == 0
        path = write_csv(frontier.rows(), tmp_path / "frontier.csv",
                         fieldnames=frontier_fieldnames())
        header = path.read_text().splitlines()[0]
        assert "cost_per_million_tokens_dollars" in header
        assert "dominated_count" in header
