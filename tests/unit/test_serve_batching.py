"""Gateway dispatch groups: coalescing, accounting, span annotation.

Every dispatch pops up to ``batch_max`` queued requests into one
supervised ``ServeBatchTask``.  The contract: a request decodes to the
same payload whatever group it lands in, the conservation law holds,
every dispatch span carries the group annotation, the report's batch
aggregates describe what actually shipped, and each request's
``wall_s`` is its own decode time.
"""

import time

import pytest

from repro import obs
from repro.obs import state as obs_state
from repro.obs.perf.bench import FLEET_TELEMETRY_CONFIG
from repro.serve import ServeConfig, gateway, read_telemetry, run_serve
from repro.serve.request import SPAN_DISPATCH, SPAN_REQUEST

BASE = dict(
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

SEED = 2014


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def run_with(**overrides):
    return run_serve(ServeConfig(**{**BASE, **overrides}), seed=SEED)


def decoded(result):
    """corr_id -> (payload, errors) for every request the decoder saw."""
    return {o.corr_id: (o.payload, o.errors) for o in result.outcomes
            if o.status in ("delivered", "decode_failed")}


class TestCoalescingEquivalence:
    def test_group_size_does_not_change_a_request(self):
        alone = decoded(run_with(batch_max=1))
        grouped = run_with(batch_max=16, batch_window_s=0.1)
        assert grouped.report.batch_size_max > 1
        grouped = decoded(grouped)
        common = set(alone) & set(grouped)
        assert len(common) > 10
        for corr_id in common:
            assert grouped[corr_id] == alone[corr_id], corr_id

    def test_conservation_law_holds_while_batching(self):
        batched = run_with(batch_max=16, batch_window_s=0.2)
        report = batched.report
        assert report.accounted == report.arrivals

    def test_replay_is_deterministic(self):
        a = run_with(batch_max=8, batch_window_s=0.1)
        b = run_with(batch_max=8, batch_window_s=0.1)
        assert a.delivered_payloads() == b.delivered_payloads()
        assert a.report.batches == b.report.batches
        assert a.report.batch_size_mean == b.report.batch_size_mean


class TestBatchFormation:
    def test_window_grows_batches(self):
        eager = run_with(batch_max=16, batch_window_s=0.0)
        patient = run_with(batch_max=16, batch_window_s=0.3)
        assert patient.report.batch_size_mean > \
            eager.report.batch_size_mean
        assert patient.report.batches < eager.report.batches

    def test_batch_max_caps_size(self):
        result = run_with(batch_max=3, batch_window_s=0.5)
        assert 0 < result.report.batch_size_max <= 3

    def test_report_aggregates_consistent(self):
        result = run_with(batch_max=8, batch_window_s=0.1)
        report = result.report
        assert report.batches > 0
        assert 1.0 <= report.batch_size_mean <= report.batch_size_max
        d = report.to_dict()
        assert d["batches"] == report.batches
        assert d["batch_size_max"] == report.batch_size_max
        assert d["batch_size_mean"] == report.batch_size_mean

    def test_default_config_dispatches_groups_of_four(self):
        result = run_with()
        assert result.report.batches > 0
        assert result.report.batch_size_max == 4


class TestSpanAnnotation:
    def _dispatch_spans(self, **overrides):
        cfg = ServeConfig(**{**BASE, **overrides})
        with obs_state.session(metrics=True, tracing=True):
            result = run_serve(cfg, seed=SEED)
            roots = [r.to_dict() for r in obs_state.get_tracer().roots
                     if r.name == SPAN_REQUEST]
        dispatches = []
        for root in roots:
            for child in root["children"]:
                if child["name"] == SPAN_DISPATCH:
                    dispatches.append(child["attributes"])
        return result, dispatches

    def test_batching_annotates_every_dispatch(self):
        result, dispatches = self._dispatch_spans(
            batch_max=8, batch_window_s=0.1
        )
        assert dispatches
        sizes_by_id = {}
        for attrs in dispatches:
            assert "batch_id" in attrs
            assert attrs["batch_size"] >= 1
            sizes_by_id.setdefault(attrs["batch_id"], set()).add(
                attrs["batch_size"]
            )
        # Every member of a micro-batch agrees on its size, and the
        # number of distinct ids matches the report.
        assert all(len(sizes) == 1 for sizes in sizes_by_id.values())
        assert len(sizes_by_id) == result.report.batches

    def test_zero_window_annotates_every_dispatch(self):
        _, dispatches = self._dispatch_spans()
        assert dispatches
        assert all("batch_id" in attrs for attrs in dispatches)


class TestPooledBatching:
    def test_workers0_equals_workers2(self):
        from repro.sim.engine import shutdown_pool

        try:
            inline = run_with(batch_max=8, batch_window_s=0.1, workers=0)
            pooled = run_with(batch_max=8, batch_window_s=0.1, workers=2)
        finally:
            shutdown_pool()
        assert inline.delivered_payloads() == pooled.delivered_payloads()
        assert inline.report.batches == pooled.report.batches


class TestOutliers:
    def test_outlier_tag_flagged_with_micro_batching(self, tmp_path):
        # The bench's fleet shape (seed 0, as ``repro bench`` runs it)
        # with groups of up to 16: each member decodes at its own
        # distance, so sabotaged tag 7 still stands out.
        tele = str(tmp_path / "tele.jsonl")
        result = run_serve(
            ServeConfig(**{**FLEET_TELEMETRY_CONFIG, "batch_max": 16,
                           "batch_window_s": 0.1}),
            seed=0, telemetry_out=tele,
        )
        assert result.report.batch_size_max > 1
        _, snapshots, _ = read_telemetry(tele)
        assert any(
            tr["tag"] == 7 and tr["kind"] == "anomalous"
            for snap in snapshots
            for tr in (snap.get("fleet") or {}).get("transitions", [])
        )
        error_bits = result.report.fleet["offenders"]["error_bits"]
        assert error_bits[0]["key"] == "7"


class TestWallTime:
    def test_each_request_carries_its_own_decode_time(self, monkeypatch):
        calls = []
        original = gateway.decode_batch_task

        def timed(task):
            t0 = time.perf_counter()
            rows = original(task)
            calls.append((time.perf_counter() - t0, rows))
            return rows

        monkeypatch.setattr(gateway, "decode_batch_task", timed)
        run_with(batch_max=8, batch_window_s=0.1)
        assert any(len(rows) > 1 for _, rows in calls)
        for wall, rows in calls:
            assert all(row["wall_s"] > 0 for row in rows)
            assert sum(row["wall_s"] for row in rows) <= wall
