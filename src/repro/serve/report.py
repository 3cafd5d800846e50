"""Serve-run report: the gateway's accounted-for summary.

The report is the serving counterpart of a run manifest: every arrival
is attributed to exactly one disposition bucket, so operators (and the
chaos suite) can audit ``arrivals == delivered + decode_failed + shed
+ deadline_abandoned + worker_lost`` at a glance, see *why* load was
shed, and read the post-overload recovery verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ServeReport:
    """JSON-safe summary of one serve run."""

    run_id: str
    seed: int
    config: Dict[str, Any]
    arrivals: int
    delivered: int
    decode_failed: int
    shed: int
    deadline_abandoned: int
    worker_lost: int
    shed_by_reason: Dict[str, int]
    shed_by_priority: Dict[str, int]
    worker_crashes: int
    worker_stalls: int
    worker_restarts: int
    worker_retries: int
    dead_letters: int
    queue_depth_max: int
    egress_depth_max: int
    delivered_bits: int
    error_bits: int
    duration_virtual_s: float
    wall_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p99_s: float
    wall_latency_p99_s: float
    breaker_opened: int
    quarantined_tags: int
    recovery_s: Optional[float]
    recovered: bool
    alerts: List[Dict[str, Any]] = field(default_factory=list)
    stopped_early: bool = False
    #: Every burn-rate fire/clear transition, in evaluation order.
    burn_alerts: List[Dict[str, Any]] = field(default_factory=list)
    #: Error budget left over the budget window at end of run (1.0 =
    #: untouched, 0.0 = exactly spent, negative = overspent); None
    #: when no good-event samples landed.
    budget_remaining: Optional[float] = None
    #: Per-latency-bucket worst request: ``{le, value, corr_id, t_s}``.
    exemplars: List[Dict[str, Any]] = field(default_factory=list)
    #: Tags force-quarantined by the burn-rate pre-emption hook.
    breaker_preempted: int = 0
    telemetry_path: Optional[str] = None
    telemetry_snapshots: int = 0
    #: Dispatch groups (one decode task each) and their size stats.
    batches: int = 0
    batch_size_max: int = 0
    batch_size_mean: float = 0.0
    #: Fleet telemetry summary (tracked/evicted tag accounting, top-K
    #: offender boards, health histogram, anomaly state, latency
    #: sketch) — see :class:`repro.obs.fleet.FleetAggregator.summary`.
    fleet: Dict[str, Any] = field(default_factory=dict)
    #: Path of the ``--health-out`` artifact, when one was written.
    health_path: Optional[str] = None

    @property
    def accounted(self) -> int:
        """Requests with a terminal disposition (must equal arrivals)."""
        return (
            self.delivered + self.decode_failed + self.shed
            + self.deadline_abandoned + self.worker_lost
        )

    @property
    def ber(self) -> float:
        if self.delivered_bits == 0:
            return 0.0
        return self.error_bits / self.delivered_bits

    @property
    def shed_fraction(self) -> float:
        if self.arrivals == 0:
            return 0.0
        return self.shed / self.arrivals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "config": self.config,
            "arrivals": self.arrivals,
            "accounted": self.accounted,
            "delivered": self.delivered,
            "decode_failed": self.decode_failed,
            "shed": self.shed,
            "shed_fraction": self.shed_fraction,
            "shed_by_reason": dict(self.shed_by_reason),
            "shed_by_priority": dict(self.shed_by_priority),
            "deadline_abandoned": self.deadline_abandoned,
            "worker_lost": self.worker_lost,
            "worker_crashes": self.worker_crashes,
            "worker_stalls": self.worker_stalls,
            "worker_restarts": self.worker_restarts,
            "worker_retries": self.worker_retries,
            "dead_letters": self.dead_letters,
            "queue_depth_max": self.queue_depth_max,
            "egress_depth_max": self.egress_depth_max,
            "delivered_bits": self.delivered_bits,
            "error_bits": self.error_bits,
            "ber": self.ber,
            "duration_virtual_s": self.duration_virtual_s,
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput_rps,
            "latency_mean_s": self.latency_mean_s,
            "latency_p99_s": self.latency_p99_s,
            "wall_latency_p99_s": self.wall_latency_p99_s,
            "breaker_opened": self.breaker_opened,
            "quarantined_tags": self.quarantined_tags,
            "recovery_s": self.recovery_s,
            "recovered": self.recovered,
            "alerts": list(self.alerts),
            "stopped_early": self.stopped_early,
            "burn_alerts": list(self.burn_alerts),
            "budget_remaining": self.budget_remaining,
            "exemplars": list(self.exemplars),
            "breaker_preempted": self.breaker_preempted,
            "telemetry_path": self.telemetry_path,
            "telemetry_snapshots": self.telemetry_snapshots,
            "batches": self.batches,
            "batch_size_max": self.batch_size_max,
            "batch_size_mean": self.batch_size_mean,
            "fleet": dict(self.fleet),
            "health_path": self.health_path,
        }


def render_serve_text(report: ServeReport) -> str:
    """Terminal-friendly rendering of a serve report."""
    cfg = report.config
    lines = [
        f"serve run {report.run_id} (seed {report.seed})",
        (
            f"  load: {cfg.get('offered_load_rps', 0):.2f} rps offered, "
            f"{cfg.get('capacity_rps', 0):.2f} rps capacity, "
            f"{report.duration_virtual_s:.1f} s virtual "
            f"({report.wall_s:.1f} s wall)"
        ),
        (
            f"  arrivals {report.arrivals}  delivered {report.delivered}"
            f"  decode-failed {report.decode_failed}"
            f"  shed {report.shed}"
            f"  deadline-abandoned {report.deadline_abandoned}"
            f"  worker-lost {report.worker_lost}"
        ),
    ]
    if report.accounted != report.arrivals:
        lines.append(
            f"  !! accounting mismatch: {report.accounted} accounted "
            f"vs {report.arrivals} arrivals"
        )
    if report.shed:
        reasons = ", ".join(
            f"{k}={v}" for k, v in sorted(report.shed_by_reason.items())
        )
        prios = ", ".join(
            f"{k}={v}" for k, v in sorted(report.shed_by_priority.items())
        )
        lines.append(f"  shed by reason: {reasons}")
        lines.append(f"  shed by priority: {prios}")
    lines.append(
        f"  queue depth max {report.queue_depth_max}"
        f" (bound {cfg.get('queue_capacity')})"
        f"  egress depth max {report.egress_depth_max}"
    )
    lines.append(
        f"  workers: crashes {report.worker_crashes}"
        f"  stalls {report.worker_stalls}"
        f"  restarts {report.worker_restarts}"
        f"  retries {report.worker_retries}"
        f"  dead-letters {report.dead_letters}"
    )
    lines.append(
        f"  breaker: opened {report.breaker_opened}"
        f"  quarantined tags {report.quarantined_tags}"
        f"  preempted {report.breaker_preempted}"
    )
    if report.batches:
        lines.append(
            f"  micro-batches {report.batches}"
            f"  size mean {report.batch_size_mean:.1f}"
            f"  max {report.batch_size_max}"
        )
    lines.append(
        f"  delivered bits {report.delivered_bits}"
        f"  ber {report.ber:.4g}"
        f"  throughput {report.throughput_rps:.2f} req/s"
        f"  latency mean {report.latency_mean_s * 1e3:.0f} ms"
        f"  p99 {report.latency_p99_s * 1e3:.0f} ms"
    )
    if report.recovery_s is not None:
        lines.append(
            f"  recovered {report.recovery_s:.1f} s after burst end"
        )
    elif not report.recovered:
        lines.append("  !! did not recover to steady state")
    if report.budget_remaining is not None:
        lines.append(
            f"  error budget remaining {report.budget_remaining:.1%}"
        )
    if report.burn_alerts:
        fired = sum(1 for a in report.burn_alerts if a.get("kind") == "fired")
        cleared = sum(
            1 for a in report.burn_alerts if a.get("kind") == "cleared"
        )
        lines.append(
            f"  burn-rate transitions: {fired} fired, {cleared} cleared"
        )
        for alert in report.burn_alerts:
            msg = alert.get("message") or (
                f"{alert.get('kind')} {alert.get('metric')}"
            )
            lines.append(f"    - t={alert.get('at_s', 0.0):.1f}s {msg}")
    fleet = report.fleet or {}
    if fleet.get("outcomes"):
        anomalous = fleet.get("anomalous") or []
        lines.append(
            f"  fleet: {fleet.get('tags_seen', 0)} tag admissions"
            f"  tracked {fleet.get('tracked', 0)}"
            f"  evicted {fleet.get('evictions', 0)}"
            f"  anomalous {len(anomalous)}"
            + (f" ({', '.join(str(t) for t in anomalous)})"
               if anomalous else "")
        )
        offenders = fleet.get("offenders") or {}
        worst = []
        for kind in ("shed", "failure", "error_bits", "latency"):
            entries = offenders.get(kind) or []
            if entries:
                top = entries[0]
                worst.append(
                    f"{kind}: tag {top.get('key')}"
                    f" ({top.get('count'):.4g})"
                )
        if worst:
            lines.append("  fleet offenders: " + "  ".join(worst))
    if report.health_path:
        lines.append(f"  fleet health artifact -> {report.health_path}")
    if report.telemetry_path:
        lines.append(
            f"  telemetry: {report.telemetry_snapshots} snapshots"
            f" -> {report.telemetry_path}"
        )
    if report.alerts:
        lines.append(f"  slo alerts: {len(report.alerts)}")
        for alert in report.alerts:
            lines.append(f"    - {alert}")
    if report.stopped_early:
        lines.append("  stopped early (drain requested)")
    return "\n".join(lines)
