"""Per-request lifecycle tracing: span shape and worker determinism.

Every settled request must carry one ``serve.request`` span tree whose
children follow ingress -> queue_wait -> dispatch -> decode ->
terminal, built entirely from virtual-time bounds — so the serialized
trees (and the latency exemplars) are byte-identical between
``workers=0`` and ``workers=2``.
"""

import math

import pytest

from repro.obs import state as obs_state
from repro.obs.export import dumps_line
from repro.obs.perf.timeseries import (
    DEFAULT_EXEMPLAR_BOUNDS,
    ExemplarReservoir,
)
from repro.serve import ServeConfig, run_serve
from repro.serve.request import (
    SPAN_DECODE,
    SPAN_DELIVER,
    SPAN_DISPATCH,
    SPAN_INGRESS,
    SPAN_QUEUE_WAIT,
    SPAN_REQUEST,
    SPAN_SHED,
    STATUS_DELIVERED,
    STATUS_SHED,
)

OVERLOAD = dict(
    duration_s=8.0,
    offered_load_rps=4.0,
    burst_load_rps=12.5,
    burst_start_s=2.0,
    burst_end_s=6.0,
    deadline_ms=2500.0,
    queue_capacity=12,
    batch_max=4,
    payload_bits=8,
    bit_rate_bps=50.0,
)


def run_traced(workers, seed=7, **overrides):
    cfg = ServeConfig(**{**OVERLOAD, "workers": workers, **overrides})
    with obs_state.session(metrics=True, tracing=True):
        result = run_serve(cfg, seed=seed)
        tracer = obs_state.get_tracer()
        spans = [
            root.to_dict() for root in tracer.roots
            if root.name == SPAN_REQUEST
        ]
    return result, spans


def children_by_name(span):
    return {c["name"]: c for c in span["children"]}


class TestSpanShape:
    def test_every_request_gets_exactly_one_root_span(self):
        result, spans = run_traced(workers=0)
        assert len(spans) == result.report.arrivals
        seqs = [s["attributes"]["seq"] for s in spans]
        assert len(set(seqs)) == len(seqs)

    def test_delivered_request_has_full_lifecycle(self):
        result, spans = run_traced(workers=0)
        by_corr = {s["attributes"]["corr_id"]: s for s in spans}
        delivered = [o for o in result.outcomes if o.delivered]
        assert delivered
        for outcome in delivered:
            root = by_corr[outcome.corr_id]
            assert root["attributes"]["status"] == STATUS_DELIVERED
            kids = children_by_name(root)
            assert set(kids) == {
                SPAN_INGRESS, SPAN_QUEUE_WAIT, SPAN_DISPATCH,
                SPAN_DECODE, SPAN_DELIVER,
            }
            assert kids[SPAN_INGRESS]["attributes"]["admitted"] is True
            assert "queue_depth_at_enqueue" in \
                kids[SPAN_INGRESS]["attributes"]
            assert "breaker_state" in kids[SPAN_INGRESS]["attributes"]
            assert kids[SPAN_QUEUE_WAIT]["attributes"]["wait_s"] >= 0.0
            assert kids[SPAN_DECODE]["attributes"]["ok"] is True
            assert kids[SPAN_DELIVER]["attributes"]["latency_s"] == \
                pytest.approx(outcome.latency_s)
            # Root covers arrival -> completion in virtual time.
            assert root["duration_s"] == pytest.approx(outcome.latency_s)

    def test_admission_shed_has_no_dispatch_or_decode(self):
        result, spans = run_traced(workers=0)
        by_corr = {s["attributes"]["corr_id"]: s for s in spans}
        shed = [
            o for o in result.outcomes
            if o.status == STATUS_SHED and o.reason == "queue_full"
        ]
        assert shed, "overload config must shed on queue_full"
        for outcome in shed:
            root = by_corr[outcome.corr_id]
            kids = children_by_name(root)
            assert SPAN_SHED in kids
            assert SPAN_DECODE not in kids
            assert kids[SPAN_SHED]["attributes"]["reason"] == "queue_full"

    def test_disabled_tracing_records_nothing(self):
        cfg = ServeConfig(**{**OVERLOAD, "workers": 0})
        with obs_state.session(metrics=True, tracing=False):
            run_serve(cfg, seed=7)
            tracer = obs_state.get_tracer()
            assert not any(
                r.name == SPAN_REQUEST for r in tracer.roots
            )


class TestWorkerDeterminism:
    def test_span_trees_byte_identical_across_worker_counts(self):
        _, spans0 = run_traced(workers=0)
        _, spans2 = run_traced(workers=2)
        assert dumps_line(spans0) == dumps_line(spans2)

    def test_exemplars_byte_identical_across_worker_counts(self):
        result0, _ = run_traced(workers=0)
        result2, _ = run_traced(workers=2)
        assert result0.report.exemplars == result2.report.exemplars
        assert dumps_line(result0.report.exemplars) == \
            dumps_line(result2.report.exemplars)

    def test_exemplars_point_at_delivered_requests(self):
        result, _ = run_traced(workers=0)
        exemplars = result.report.exemplars
        assert exemplars
        delivered = {
            o.corr_id: o for o in result.outcomes if o.delivered
        }
        for ex in exemplars:
            outcome = delivered[ex["corr_id"]]
            assert ex["value"] == pytest.approx(outcome.latency_s)
            assert ex["value"] <= ex["le"]


class TestExemplarReservoir:
    def test_keeps_worst_per_bucket(self):
        res = ExemplarReservoir()
        res.observe(0.1, "a", 1.0)
        res.observe(0.2, "b", 2.0)
        res.observe(0.15, "c", 3.0)
        (entry,) = res.to_dicts()
        assert entry["le"] == DEFAULT_EXEMPLAR_BOUNDS[0]
        assert entry["corr_id"] == "b"
        assert entry["value"] == 0.2

    def test_buckets_are_disjoint(self):
        res = ExemplarReservoir()
        res.observe(0.2, "fast", 1.0)
        res.observe(3.0, "slow", 2.0)
        res.observe(100.0, "awful", 3.0)
        entries = {e["le"]: e["corr_id"] for e in res.to_dicts()}
        assert entries[0.25] == "fast"
        assert entries[4.0] == "slow"
        assert entries[math.inf] == "awful"

    def test_nan_ignored(self):
        res = ExemplarReservoir()
        res.observe(float("nan"), "bad", 1.0)
        assert res.to_dicts() == []
