"""Tests for the serving trace generators and the JSONL loader."""

import dataclasses
import pickle
import random
import sys

import pytest

from repro.codec import encode
from repro.serving.trace import (
    TRACE_REGISTRY,
    Request,
    bursty_trace,
    diurnal_trace,
    generate_trace,
    load_trace_jsonl,
    poisson_trace,
    register_trace,
    request_classes_from_settings,
    write_trace_jsonl,
)
from repro.workloads.chat import DEFAULT_REQUEST_MIX, ChatServingSettings, RequestClass
from repro.workloads.scenario import DiTInferenceSettings, LLMInferenceSettings

MIX = (RequestClass(input_tokens=64, output_tokens=32, weight=0.7),
       RequestClass(input_tokens=512, output_tokens=128, weight=0.3))


class TestRequest:
    def test_total_tokens(self):
        request = Request(request_id=0, arrival_s=1.0, input_tokens=64, output_tokens=16)
        assert request.total_tokens == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_s=-1.0, input_tokens=64, output_tokens=16)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_s=0.0, input_tokens=0, output_tokens=16)
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_s=0.0, input_tokens=64, output_tokens=0)


class TestGeneratedRows:
    """The built-in generators build rows without the checked constructor
    (their arrivals are non-negative and their shapes come from validated
    request classes; ``TestRequest`` pins the constructor's checks), and a
    row built so is a constructed row in all but the checks."""

    @pytest.mark.parametrize("kind", ("poisson", "bursty", "diurnal"))
    def test_rows_equal_constructed_rows(self, kind):
        trace = generate_trace(kind, MIX, 5.0, 40, seed=3)
        for row in trace:
            built = Request(request_id=row.request_id, arrival_s=row.arrival_s,
                            input_tokens=row.input_tokens,
                            output_tokens=row.output_tokens)
            assert row == built
            assert hash(row) == hash(built)
            assert repr(row) == repr(built)
            assert pickle.loads(pickle.dumps(row)) == built
            assert dataclasses.replace(row) == built
            assert encode(row) == encode(built)

    def test_rows_take_no_more_memory_than_constructed_ones(self):
        # Fields set one by one share the class's key table, as the
        # constructor's do; a dict assigned whole would not, and 20,000 rows
        # of a day-scale trace would carry the difference.
        row = generate_trace("poisson", MIX, 5.0, 1, seed=3)[0]
        built = Request(request_id=row.request_id, arrival_s=row.arrival_s,
                        input_tokens=row.input_tokens,
                        output_tokens=row.output_tokens)
        assert sys.getsizeof(vars(row)) == sys.getsizeof(vars(built))


class TestGenerators:
    @pytest.mark.parametrize("kind", sorted(TRACE_REGISTRY))
    def test_seeded_generation_is_deterministic(self, kind):
        first = generate_trace(kind, MIX, rate=4.0, num_requests=50, seed=7)
        second = generate_trace(kind, MIX, rate=4.0, num_requests=50, seed=7)
        assert first == second

    @pytest.mark.parametrize("kind", sorted(TRACE_REGISTRY))
    def test_different_seeds_differ(self, kind):
        assert (generate_trace(kind, MIX, 4.0, 50, seed=1)
                != generate_trace(kind, MIX, 4.0, 50, seed=2))

    @pytest.mark.parametrize("kind", sorted(TRACE_REGISTRY))
    def test_arrivals_sorted_ids_sequential(self, kind):
        trace = generate_trace(kind, MIX, 4.0, 80, seed=3)
        assert len(trace) == 80
        arrivals = [request.arrival_s for request in trace]
        assert arrivals == sorted(arrivals)
        assert [request.request_id for request in trace] == list(range(80))

    def test_shapes_come_from_the_mix(self):
        trace = generate_trace("poisson", MIX, 4.0, 200, seed=5)
        shapes = {(r.input_tokens, r.output_tokens) for r in trace}
        assert shapes <= {(64, 32), (512, 128)}
        assert len(shapes) == 2  # both classes appear in 200 draws

    def test_mix_weights_bias_the_draw(self):
        trace = generate_trace("poisson", MIX, 4.0, 500, seed=5)
        short = sum(1 for r in trace if r.input_tokens == 64)
        assert short > 250  # the 70 % class dominates

    def test_poisson_mean_rate(self):
        trace = poisson_trace(MIX, rate=10.0, num_requests=2000,
                              rng=random.Random(11))
        span = trace[-1].arrival_s
        assert 2000 / span == pytest.approx(10.0, rel=0.15)

    def test_bursty_shares_arrival_instants(self):
        trace = bursty_trace(MIX, rate=10.0, num_requests=300,
                             rng=random.Random(1), mean_burst_size=8)
        distinct_instants = len({r.arrival_s for r in trace})
        assert distinct_instants < 150  # far fewer bursts than requests

    def test_diurnal_rate_is_modulated(self):
        trace = diurnal_trace(MIX, rate=50.0, num_requests=3000,
                              rng=random.Random(2), period_s=60.0, amplitude=0.9)
        # Count arrivals in the peak vs. trough half-periods of the first cycle.
        peak = sum(1 for r in trace if 0.0 <= r.arrival_s < 30.0)
        trough = sum(1 for r in trace if 30.0 <= r.arrival_s < 60.0)
        assert peak > 1.5 * trough

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace("poisson", MIX, rate=0.0, num_requests=10, seed=0)
        with pytest.raises(ValueError):
            generate_trace("poisson", MIX, rate=1.0, num_requests=0, seed=0)
        with pytest.raises(ValueError):
            generate_trace("poisson", (), rate=1.0, num_requests=10, seed=0)
        with pytest.raises(ValueError):
            diurnal_trace(MIX, 1.0, 10, random.Random(0), amplitude=1.5)

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(KeyError, match="poisson"):
            generate_trace("adversarial", MIX, 1.0, 10, seed=0)

    def test_register_trace_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_trace("poisson", poisson_trace)


class TestRequestClassesFromSettings:
    def test_chat_settings_carry_their_mix(self):
        settings = ChatServingSettings(batch=2, request_classes=MIX)
        assert request_classes_from_settings(settings) == MIX

    def test_llm_settings_become_one_class(self):
        settings = LLMInferenceSettings(batch=2, input_tokens=64, output_tokens=16)
        (cls,) = request_classes_from_settings(settings)
        assert (cls.input_tokens, cls.output_tokens) == (64, 16)

    def test_default_chat_mix_round_trips(self):
        settings = ChatServingSettings()
        assert request_classes_from_settings(settings) == DEFAULT_REQUEST_MIX

    def test_dit_settings_rejected(self):
        with pytest.raises(ValueError, match="request mix"):
            request_classes_from_settings(DiTInferenceSettings())


class TestJsonl:
    def test_round_trip(self, tmp_path):
        trace = generate_trace("poisson", MIX, 4.0, 30, seed=9)
        path = write_trace_jsonl(trace, tmp_path / "trace.jsonl")
        assert load_trace_jsonl(path) == trace

    def test_loader_sorts_by_arrival(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_s": 5.0, "input_tokens": 8, "output_tokens": 4}\n'
            '{"arrival_s": 1.0, "input_tokens": 16, "output_tokens": 2}\n')
        trace = load_trace_jsonl(path)
        assert [r.arrival_s for r in trace] == [1.0, 5.0]

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arrival_s": 1.0, "input_tokens": 8}\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_trace_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no requests"):
            load_trace_jsonl(path)

    def test_default_id_counts_the_requests_before_it(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text(
            '\n{"arrival_s": 0.0, "input_tokens": 8, "output_tokens": 4}\n\n'
            '{"arrival_s": 1.0, "input_tokens": 8, "output_tokens": 4}\n')
        assert [r.request_id for r in load_trace_jsonl(path)] == [0, 1]

    def test_repeated_request_id_rejected_with_its_line(self, tmp_path):
        # An explicit id 1 on line 1 and a defaulted id on line 2 (one
        # request read before it) are both 1; a fleet keys its crash
        # fix-ups by id, so replaying the file would merge two requests.
        path = tmp_path / "repeat.jsonl"
        path.write_text(
            '{"request_id": 1, "arrival_s": 0.05, "input_tokens": 8, '
            '"output_tokens": 4}\n'
            '{"arrival_s": 0.1, "input_tokens": 8, "output_tokens": 4}\n')
        with pytest.raises(ValueError,
                           match="repeat.jsonl:2: .*request_id 1.*line 1"):
            load_trace_jsonl(path)


class TestSessionIds:
    def test_session_round_trips_through_jsonl(self, tmp_path):
        trace = (Request(request_id=0, arrival_s=0.0, input_tokens=8,
                         output_tokens=4, session_id=11),
                 Request(request_id=1, arrival_s=0.5, input_tokens=8,
                         output_tokens=4))
        path = write_trace_jsonl(trace, tmp_path / "sessions.jsonl")
        loaded = load_trace_jsonl(path)
        assert loaded[0].session_id == 11
        assert loaded[1].session_id is None
        assert loaded == trace

    def test_sessionless_lines_write_explicit_null(self, tmp_path):
        # Dump/load symmetry: a standalone request's session_id is written
        # explicitly as null, not dropped, so every field round-trips.
        trace = (Request(request_id=0, arrival_s=0.0, input_tokens=8,
                         output_tokens=4),)
        path = write_trace_jsonl(trace, tmp_path / "plain.jsonl")
        assert '"session_id": null' in path.read_text()

    def test_negative_session_rejected(self):
        with pytest.raises(ValueError, match="session_id"):
            Request(request_id=0, arrival_s=0.0, input_tokens=8,
                    output_tokens=4, session_id=-1)

    def test_mixed_session_trace_round_trips_bit_for_bit(self, tmp_path):
        # Regression: a trace mixing session-carrying and standalone
        # requests must reload as the identical tuple — None session ids
        # included — or a replayed trace diverges from the in-memory run.
        trace = (
            Request(request_id=0, arrival_s=0.0, input_tokens=8,
                    output_tokens=4, session_id=3),
            Request(request_id=1, arrival_s=0.5, input_tokens=8,
                    output_tokens=4),
            Request(request_id=2, arrival_s=1.0, input_tokens=16,
                    output_tokens=8, session_id=0),
            Request(request_id=3, arrival_s=1.5, input_tokens=16,
                    output_tokens=8, session_id=None),
        )
        loaded = load_trace_jsonl(write_trace_jsonl(trace, tmp_path / "mix.jsonl"))
        assert loaded == trace

    def test_reloaded_trace_routes_identically_under_session_affinity(
            self, tmp_path):
        # The observable contract behind the symmetry fix: routing a
        # reloaded trace through the session-affinity policy must pick the
        # same replica for every request as the in-memory trace does.
        from repro.serving.router import ReplicaView, RouterContext, get_router

        rng = random.Random(11)
        trace = tuple(
            Request(request_id=i, arrival_s=0.25 * i, input_tokens=8,
                    output_tokens=4,
                    session_id=rng.choice((None, 0, 1, 2, 7)))
            for i in range(40))
        loaded = load_trace_jsonl(write_trace_jsonl(trace, tmp_path / "affinity.jsonl"))

        router = get_router("session-affinity")
        views = tuple(
            ReplicaView(index=index, tpu_name="tpu", devices=1, max_batch=32,
                        outstanding_requests=0, outstanding_tokens=0,
                        service_tokens_per_s=100.0, kv_budget_bytes=10**9,
                        kv_bytes_per_token=1000)
            for index in range(3))

        def routes(requests):
            return [router.choose(request, views,
                                  RouterContext(now_s=request.arrival_s,
                                                routed_count=i, fleet_size=3)).index
                    for i, request in enumerate(requests)]

        assert routes(loaded) == routes(trace)
