"""Chaos suite: micro-batching under worker crashes.

With ``batch_max`` set, one decode task carries a whole micro-batch —
so a crashed worker takes the entire batch down with it.  The
contract: a dead-lettered batch loses *every* member (never a partial
batch), a supervised retry that survives re-decodes bit-identically
to a fault-free run, and the conservation law still balances every
arrival while batches are dying.
"""

import pytest

from repro import obs
from repro.faults import parse_fault_spec
from repro.obs import state as obs_state
from repro.serve import ServeConfig, run_serve
from repro.serve.request import (
    SPAN_DISPATCH,
    SPAN_REQUEST,
    STATUS_WORKER_LOST,
)

pytestmark = pytest.mark.chaos

SEED = 2014

BATCHED = dict(
    duration_s=8.0,
    offered_load_rps=4.0,
    burst_load_rps=12.5,
    burst_start_s=2.0,
    burst_end_s=6.0,
    deadline_ms=2500.0,
    queue_capacity=12,
    batch_max=8,
    batch_window_s=0.1,
    payload_bits=8,
    packets_per_bit=6.0,
    bit_rate_bps=50.0,
    stall_timeout_s=0.2,
    max_attempts=2,
)

# Two crash injectors: max=1 victims die once and survive their retry
# (exercising re-decode), max=2 victims crash on both attempts and
# dead-letter their whole batch (max_attempts=2 below).
CRASH_SPEC = "worker_crash:prob=0.5,max=1;worker_crash:prob=0.3,max=2"


def run_batched(fault_spec=None, seed=SEED, **overrides):
    faults = None
    if fault_spec:
        faults = parse_fault_spec(fault_spec, base_seed=7)
    return run_serve(
        ServeConfig(**{**BATCHED, **overrides}),
        faults=faults, seed=seed,
    )


@pytest.fixture(scope="module")
def crashed():
    """One crash-faulted batched run, traced, shared by the checks."""
    obs.disable()
    obs.reset()
    with obs_state.session(metrics=True, tracing=True):
        result = run_batched(CRASH_SPEC)
        roots = [r.to_dict() for r in obs_state.get_tracer().roots
                 if r.name == SPAN_REQUEST]
    obs.disable()
    obs.reset()
    return result, roots


@pytest.fixture(scope="module")
def clean():
    obs.disable()
    obs.reset()
    return run_batched()


def batch_memberships(roots):
    """batch_id -> list of (corr_id, status) from the span trees."""
    groups = {}
    for root in roots:
        for child in root["children"]:
            if child["name"] != SPAN_DISPATCH:
                continue
            attrs = child["attributes"]
            groups.setdefault(attrs["batch_id"], []).append(
                (root["attributes"]["corr_id"],
                 root["attributes"]["status"])
            )
    return groups


class TestBatchDeadLettering:
    def test_sabotage_actually_fired(self, crashed):
        result, _ = crashed
        assert result.report.worker_crashes > 0
        assert result.report.worker_lost > 0, (
            "no batch exhausted its attempts; the dead-letter claims "
            "below would be vacuous"
        )

    def test_dead_batches_lose_every_member(self, crashed):
        result, roots = crashed
        groups = batch_memberships(roots)
        assert groups, "no micro-batches were dispatched"
        lost_batches = 0
        for batch_id, members in groups.items():
            statuses = {status for _, status in members}
            if STATUS_WORKER_LOST in statuses:
                assert statuses == {STATUS_WORKER_LOST}, (
                    f"batch {batch_id} died partially: {members}"
                )
                lost_batches += 1
        assert lost_batches > 0
        # Every worker_lost outcome is accounted to exactly one batch.
        span_lost = sum(
            len(m) for m in groups.values()
            if {s for _, s in m} == {STATUS_WORKER_LOST}
        )
        assert span_lost == result.report.worker_lost

    def test_dead_letters_count_whole_batches(self, crashed):
        result, _ = crashed
        # The dead-letter tally counts members, so it must equal the
        # worker_lost outcomes and exceed the crash count that caused
        # them only by whole-batch multiples.
        assert result.report.dead_letters == result.report.worker_lost

    def test_conservation_balances_while_batches_die(self, crashed):
        result, _ = crashed
        report = result.report
        assert report.accounted == report.arrivals
        assert report.arrivals == (
            report.delivered + report.decode_failed + report.shed
            + report.deadline_abandoned + report.worker_lost
        )


class TestSupervisedRetry:
    def test_some_batches_survive_via_retry(self, crashed):
        # Each dead batch consumes exactly max_attempts (= 2) crash
        # verdicts, so any crashes beyond that were survived retries.
        result, roots = crashed
        assert result.report.worker_retries > 0
        lost_batches = sum(
            1 for members in batch_memberships(roots).values()
            if {s for _, s in members} == {STATUS_WORKER_LOST}
        )
        assert result.report.worker_crashes > 2 * lost_batches, (
            "every crashed batch died; no retry actually survived"
        )

    def test_survivors_redecode_bit_identically(self, crashed, clean):
        # Retries shift virtual time, so the faulted run sheds a
        # different tail of requests than the clean run — but every
        # request delivered by BOTH must carry the exact same payload.
        result, _ = crashed
        faulted = result.delivered_payloads()
        reference = clean.delivered_payloads()
        common = set(faulted) & set(reference)
        assert common, "no request was delivered by both runs"
        for corr_id in common:
            assert faulted[corr_id] == reference[corr_id], corr_id

    def test_replay_is_bit_identical(self, crashed):
        result, _ = crashed
        again = run_batched(CRASH_SPEC)
        assert again.delivered_payloads() == result.delivered_payloads()
        a, b = again.report.to_dict(), result.report.to_dict()
        for key in a:
            if key.startswith("wall"):
                continue  # real-clock fields; everything else replays
            assert a[key] == b[key], key
