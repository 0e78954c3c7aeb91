"""Tests for the resilience metrics against hand-built miniature timelines."""

import pytest

from repro.serving.metrics import (
    SLO,
    RequestMetrics,
    RequestTally,
    ResilienceSummary,
    slo_debt_s,
)

#: Generous targets: a "good" request below meets them, a "bad" one does not.
TEST_SLO = SLO(ttft_s=1.0, tpot_s=0.1)


def req(request_id, arrival_s, ttft_s, output_tokens=1, tpot_s=0.0,
        disrupted=False):
    """One request built from its latency budget (finish derived)."""
    first = arrival_s + ttft_s
    finish = first + tpot_s * max(0, output_tokens - 1)
    return RequestMetrics.from_times(
        request_id=request_id, arrival_s=arrival_s, input_tokens=8,
        output_tokens=output_tokens, first_token_s=first, finish_s=finish,
        disrupted=disrupted)


def summarise(requests, *, crash_times=(), fault_count=None, shed=0,
              downtime=0.0, provisioned=100.0, start_s=0.0, end_s=20.0,
              **kwargs):
    return ResilienceSummary.compute(
        RequestTally.of(requests, TEST_SLO),
        fault_count=len(crash_times) if fault_count is None else fault_count,
        crash_times=crash_times, downtime_replica_s=downtime,
        provisioned_replica_s=provisioned, shed=shed,
        start_s=start_s, end_s=end_s, **kwargs)


class TestSloDebt:
    def test_meeting_request_owes_nothing(self):
        assert slo_debt_s(req(0, 0.0, ttft_s=0.5), TEST_SLO) == 0.0
        assert slo_debt_s(req(0, 0.0, ttft_s=1.0, output_tokens=10,
                              tpot_s=0.1), TEST_SLO) == 0.0

    def test_ttft_overshoot_is_the_debt(self):
        assert slo_debt_s(req(0, 0.0, ttft_s=3.5), TEST_SLO) == pytest.approx(2.5)

    def test_tpot_overshoot_scales_with_decode_tokens(self):
        # 9 decode steps, each 0.05s over target -> 0.45s of debt.
        request = req(0, 0.0, ttft_s=0.5, output_tokens=10, tpot_s=0.15)
        assert slo_debt_s(request, TEST_SLO) == pytest.approx(0.45)

    def test_single_token_request_has_no_tpot_debt(self):
        request = req(0, 0.0, ttft_s=0.5, output_tokens=1)
        assert slo_debt_s(request, TEST_SLO) == 0.0

    def test_both_overshoots_add(self):
        request = req(0, 0.0, ttft_s=2.0, output_tokens=5, tpot_s=0.2)
        assert slo_debt_s(request, TEST_SLO) == pytest.approx(1.0 + 4 * 0.1)


class TestCleanSummary:
    def test_clean_is_the_healthy_fixed_point(self):
        clean = ResilienceSummary.clean()
        assert clean.fault_count == 0
        assert clean.crash_count == 0
        assert clean.disrupted_requests == 0
        assert clean.shed_requests == 0
        assert clean.availability == 1.0
        assert clean.recovery_s == 0.0
        assert clean.slo_debt_s == 0.0


class TestAvailability:
    def test_ratio_of_up_to_billed_time(self):
        summary = summarise([req(0, 0.0, 0.1)], downtime=10.0, provisioned=90.0)
        assert summary.availability == pytest.approx(0.9)
        assert summary.downtime_replica_s == 10.0

    def test_no_billed_time_counts_as_available(self):
        summary = summarise([], downtime=0.0, provisioned=0.0)
        assert summary.availability == 1.0

    def test_never_exceeds_one(self):
        summary = summarise([req(0, 0.0, 0.1)], downtime=0.0)
        assert summary.availability == 1.0


class TestRecovery:
    def test_no_crashes_means_zero_recovery(self):
        summary = summarise([req(0, 0.0, ttft_s=5.0)])
        assert summary.recovery_s == 0.0
        assert summary.crash_count == 0

    def test_recovery_waits_for_the_first_good_window(self):
        # 5s windows from t=0.  Window [10, 15) is all SLO misses (the
        # crash's wake), [15, 20) is healthy again -> recovery ends at 20.
        requests = [req(0, 2.0, ttft_s=0.1),       # window [0, 5): healthy
                    req(1, 11.0, ttft_s=3.0),      # window [10, 15): miss
                    req(2, 16.5, ttft_s=0.2)]      # window [15, 20): healthy
        summary = summarise(requests, crash_times=[10.0])
        assert summary.recovery_s == pytest.approx(10.0)
        assert summary.crash_count == 1

    def test_worst_crash_is_reported(self):
        requests = [req(0, 2.0, ttft_s=0.1),
                    req(1, 11.0, ttft_s=3.0),
                    req(2, 16.5, ttft_s=0.2)]
        # Crash at 1.0 recovers at the end of window [0, 5) -> 4s; crash at
        # 10.0 recovers at 20 -> 10s.  The summary takes the worst.
        summary = summarise(requests, crash_times=[1.0, 10.0])
        assert summary.recovery_s == pytest.approx(10.0)
        assert summary.crash_count == 2

    def test_unrecovered_run_reports_inf(self):
        requests = [req(0, 11.0, ttft_s=3.0), req(1, 13.0, ttft_s=4.0)]
        summary = summarise(requests, crash_times=[10.0])
        assert summary.recovery_s == float("inf")

    def test_recovery_window_must_come_after_the_crash(self):
        # The only healthy window ends at 5.0 -- before the crash, so it
        # cannot count as recovery.
        requests = [req(0, 2.0, ttft_s=0.1), req(1, 12.0, ttft_s=3.0)]
        summary = summarise(requests, crash_times=[10.0])
        assert summary.recovery_s == float("inf")

    def test_window_width_changes_the_bucketing(self):
        requests = [req(0, 11.0, ttft_s=0.1)]
        summary = summarise(requests, crash_times=[10.0], window_s=2.0)
        # Healthy finish at 11.1 falls in window [10, 12) -> ends at 12.
        assert summary.recovery_s == pytest.approx(2.0)

    def test_recovery_target_validation(self):
        with pytest.raises(ValueError, match="window_s"):
            summarise([], window_s=0.0)
        with pytest.raises(ValueError, match="recovery_target"):
            summarise([], recovery_target=0.0)
        with pytest.raises(ValueError, match="recovery_target"):
            summarise([], recovery_target=1.5)


class TestGoodputUnderFailure:
    def test_counts_only_undisrupted_slo_meeting_work(self):
        requests = [req(0, 0.0, ttft_s=0.1, output_tokens=10, tpot_s=0.05),
                    req(1, 1.0, ttft_s=5.0, output_tokens=10, tpot_s=0.05),
                    req(2, 2.0, ttft_s=0.1, output_tokens=10, tpot_s=0.05,
                        disrupted=True)]
        summary = summarise(requests, start_s=0.0, end_s=10.0)
        # Only request 0 counts: request 1 missed the SLO, request 2 was
        # disrupted.  10 tokens over a 10s makespan.
        assert summary.goodput_under_failure_requests_per_second == pytest.approx(0.1)
        assert summary.goodput_under_failure_tokens_per_second == pytest.approx(1.0)
        assert summary.disrupted_requests == 1

    def test_zero_makespan_reports_zero_goodput(self):
        summary = summarise([req(0, 0.0, 0.1)], start_s=5.0, end_s=5.0)
        assert summary.goodput_under_failure_requests_per_second == 0.0
        assert summary.goodput_under_failure_tokens_per_second == 0.0

    def test_debt_sums_over_all_completed_requests(self):
        requests = [req(0, 0.0, ttft_s=3.5), req(1, 1.0, ttft_s=2.0)]
        summary = summarise(requests)
        assert summary.slo_debt_s == pytest.approx(2.5 + 1.0)

    def test_shed_and_fault_counts_pass_through(self):
        summary = summarise([], shed=3, fault_count=7)
        assert summary.shed_requests == 3
        assert summary.fault_count == 7
