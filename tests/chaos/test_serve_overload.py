"""Chaos suite: the streaming gateway driven to 2x decode capacity.

The overload contract under test, verbatim from the serving design:

* the ingress queue never exceeds its configured bound;
* sheds follow the documented order — the newest request of the worst
  priority class present loses first — and every one is counted in
  ``serve.shed`` with a reason label;
* no correlation ID is ever lost: every arrival ends in exactly one
  terminal outcome (the conservation law);
* the gateway recovers within the recovery window once the burst ends;
* delivered payload sets are identical with ``workers=0`` and
  ``workers=2`` even while crash/stall injectors kill real pool
  workers mid-decode.

Decode capacity here is 6.25 req/s (8-bit payloads at 50 bps airtime);
the burst offers 12.5 req/s — exactly 2x — for four virtual seconds.
"""

import pytest

from repro import obs
from repro.faults import parse_fault_spec
from repro.serve import (
    SHED_REASONS,
    ServeConfig,
    generate_arrivals,
    run_serve,
)
from repro.serve.request import STATUSES

pytestmark = pytest.mark.chaos

SEED = 2014

OVERLOAD = dict(
    duration_s=12.0,
    offered_load_rps=4.0,
    burst_load_rps=12.5,     # 2x the 6.25 rps decode capacity
    burst_start_s=2.0,
    burst_end_s=6.0,
    deadline_ms=2500.0,
    queue_capacity=12,
    batch_max=4,
    payload_bits=8,
    packets_per_bit=6.0,
    bit_rate_bps=50.0,
)

# Verdicts fall per supervised task, i.e. per dispatch group (~2.6
# requests here), so these are the per-request rates 0.12 / 0.08
# compounded over a group: 1 - 0.88**2.6 ~ 0.3, 1 - 0.92**2.6 ~ 0.2.
FAULT_SPEC = "worker_crash:prob=0.3;worker_stall:prob=0.2,stall=0.6"


@pytest.fixture(scope="module")
def overload():
    """One clean (fault-free) overload run shared by the assertions."""
    obs.disable()
    obs.reset()
    return run_serve(ServeConfig(**OVERLOAD), seed=SEED)


@pytest.fixture(scope="module")
def sabotaged_pair():
    """The same faulted overload run, inline and on a real pool."""
    from repro.sim.engine import shutdown_pool

    obs.disable()
    obs.reset()
    config = ServeConfig(
        **dict(OVERLOAD, duration_s=6.0, burst_start_s=1.0,
               burst_end_s=4.0, stall_timeout_s=0.2, max_attempts=2),
    )

    def run_with(workers):
        faults = parse_fault_spec(FAULT_SPEC, base_seed=7)
        return run_serve(config, faults=faults, seed=SEED,
                         workers=workers)

    inline = run_with(0)
    pooled = run_with(2)
    shutdown_pool()
    return inline, pooled


class TestOverloadContract:
    def test_queue_depth_never_exceeds_bound(self, overload):
        assert overload.report.queue_depth_max <= OVERLOAD["queue_capacity"]

    def test_overload_actually_sheds(self, overload):
        assert overload.report.shed > 0
        assert overload.report.shed_by_reason.get("queue_full", 0) > 0

    def test_conservation_law_no_request_unaccounted(self, overload):
        report = overload.report
        assert report.accounted == report.arrivals
        assert report.arrivals == (
            report.delivered + report.decode_failed + report.shed
            + report.deadline_abandoned + report.worker_lost
        )

    def test_no_correlation_ids_lost_or_duplicated(self, overload):
        arrivals = generate_arrivals(ServeConfig(**OVERLOAD), SEED)
        expected = {r.corr_id for r in arrivals}
        seen = [o.corr_id for o in overload.outcomes]
        assert len(seen) == len(set(seen)), "an outcome was duplicated"
        assert set(seen) == expected, "an arrival vanished silently"

    def test_every_outcome_has_a_terminal_status(self, overload):
        assert all(o.status in STATUSES for o in overload.outcomes)

    def test_sheds_follow_documented_priority_order(self, overload):
        queue_sheds = [e for e in overload.shed_events
                       if e.reason == "queue_full"]
        assert queue_sheds, "expected queue_full sheds at 2x capacity"
        for event in queue_sheds:
            assert event.priority == event.worst_present, (
                f"shed {event.corr_id}: priority {event.priority} but "
                f"worst class present was {event.worst_present}"
            )

    def test_every_shed_is_counted_with_a_reason(self, overload):
        report = overload.report
        assert len(overload.shed_events) == report.shed
        assert sum(report.shed_by_reason.values()) == report.shed
        assert all(e.reason in SHED_REASONS
                   for e in overload.shed_events)

    def test_shed_metrics_counted(self):
        obs.enable(metrics=True, tracing=False)
        obs.reset()
        try:
            result = run_serve(ServeConfig(**OVERLOAD), seed=SEED)
            assert obs.counter("serve.shed").value == result.report.shed
            by_reason = sum(
                obs.counter(f"serve.shed.reason.{reason}").value
                for reason in SHED_REASONS
            )
            assert by_reason == result.report.shed
        finally:
            obs.disable()
            obs.reset()

    def test_recovers_within_window_after_burst(self, overload):
        report = overload.report
        assert report.recovered, "gateway never recovered post-burst"
        assert report.recovery_s is not None
        # Recovery must be observed after the burst ends, within the
        # drain horizon of the run.
        assert 0.0 < report.recovery_s <= (
            OVERLOAD["duration_s"] - OVERLOAD["burst_end_s"]
            + ServeConfig(**OVERLOAD).drain_budget_s
        )

    def test_deadline_budget_abandons_unmeetable_requests(self, overload):
        late = [o for o in overload.outcomes
                if o.status == "deadline_abandoned"]
        budget = OVERLOAD["deadline_ms"] / 1000.0
        for o in late:
            assert o.reason == "unmeetable_slo"
            # Abandoned strictly because the remaining budget could not
            # cover one more service time.
            assert o.completed_s + 1e-9 >= o.latency_s  # sanity
            assert o.latency_s > budget - ServeConfig(
                **OVERLOAD).effective_service_s


class TestDeterminismUnderSabotage:
    def test_replay_is_bit_identical(self):
        obs.disable()
        obs.reset()
        config = ServeConfig(**dict(OVERLOAD, duration_s=4.0,
                                    burst_end_s=4.0))
        a = run_serve(config, seed=99)
        b = run_serve(config, seed=99)
        assert a.delivered_payloads() == b.delivered_payloads()
        assert [(e.seq, e.reason) for e in a.shed_events] == \
               [(e.seq, e.reason) for e in b.shed_events]

    def test_workers0_equals_workers2_delivered_sets(self, sabotaged_pair):
        inline, pooled = sabotaged_pair
        assert inline.delivered_payloads() == pooled.delivered_payloads()

    def test_workers0_equals_workers2_disposition_counts(
        self, sabotaged_pair
    ):
        inline, pooled = sabotaged_pair
        for field in ("arrivals", "delivered", "shed",
                      "deadline_abandoned", "worker_lost"):
            assert getattr(inline.report, field) == \
                getattr(pooled.report, field), field

    def test_sabotage_actually_fired(self, sabotaged_pair):
        inline, pooled = sabotaged_pair
        # The plan must have bitten in both paths, or the equality
        # above proves nothing.
        assert inline.report.worker_crashes + \
            inline.report.worker_stalls > 0
        assert pooled.report.worker_crashes + \
            pooled.report.worker_stalls > 0

    def test_conservation_holds_under_worker_loss(self, sabotaged_pair):
        for result in sabotaged_pair:
            assert result.report.accounted == result.report.arrivals
