"""Outside-in layer tracer for the benchmark's traced run.

The tracer wraps the public boundary functions of each layer of
``repro`` at the place where their callers look them up (a class
attribute, a module attribute, or the name a module imported), records
one span per call, and restores every original on :meth:`Tracer.remove`.
Nothing inside ``repro`` is edited or imported for its own tracing.

Per-packet functions (``TagModulator.state``, ``ChannelMeasurement``
construction, ``MeasurementStream.append``) run thousands of times per
operation; they are ``leaf`` boundaries, timed and counted like spans
but folded into per-name totals instead of kept as span records, which
keeps memory bounded and the tracing overhead small.

A boundary that no longer exists (renamed or removed by a later change)
is reported in ``Tracer.missing`` and contributes zeros; the run goes on.

An untraced run uses a tracer of a single boundary when a workload's
time samples come from one (serve's per-request decode time, see
:meth:`Tracer.item_ms`), so there is one wrapping mechanism.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Layer that owns the benchmark's own loop (the root span of each op).
BENCH_LAYER = "bench"
#: Layer of the sim.link/sim.engine drivers that only glue the others.
GLUE_LAYER = "sim"

LAYERS = (
    "phy", "hardware", "tag", "measurement", "traces", "core",
    "core.batch", "faults", "serve", "obs", GLUE_LAYER, BENCH_LAYER,
)


def _count_arg(index: int) -> Callable[[tuple, dict, Any], int]:
    """Items = length of positional argument ``index``."""
    def items(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[index]) if len(args) > index else 0
    return items


def _int_arg(index: int) -> Callable[[tuple, dict, Any], int]:
    """Items = the integer value of positional argument ``index``."""
    def items(args: tuple, kwargs: dict, result: Any) -> int:
        return int(args[index]) if len(args) > index else 0
    return items


def _result_len(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result) if result is not None else 0


def _shed(args: tuple, kwargs: dict, result: Any) -> int:
    # BoundedPriorityQueue.offer -> (admitted, shed_event or None)
    return int(isinstance(result, tuple) and len(result) == 2
               and result[1] is not None)


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``module``/``attr`` name the lookup site that gets patched (``attr``
    may be ``Class.method``); ``name`` is the reported
    ``<layer>.<function>`` and ``items`` counts the work units one call
    handled (packets, records, lanes), when that is meaningful.
    """

    layer: str
    module: str
    attr: str
    items: Optional[Callable[[tuple, dict, Any], int]] = None
    leaf: bool = False
    name_override: Optional[str] = None

    @property
    def is_memo(self) -> bool:
        return self.attr == "MeasurementStream._memo"

    @property
    def counts_items(self) -> bool:
        return self.items is not None or self.is_memo

    @property
    def name(self) -> str:
        if self.name_override:
            return self.name_override
        if "." in self.attr:  # Class.method
            return f"{self.layer}.{self.attr}"
        module = self.module.rsplit(".", 1)[-1]
        if module == self.layer:
            return f"{self.layer}.{self.attr}"
        return f"{self.layer}.{module}.{self.attr}"


B = Boundary
BOUNDARIES: Tuple[Boundary, ...] = (
    # phy: channel construction and per-packet response synthesis.
    B("phy", "repro.sim.calibration", "make_channel"),
    B("phy", "repro.phy.backscatter_channel",
      "BackscatterChannel.response_batch", _count_arg(1)),
    B("phy", "repro.phy.fading", "TemporalDrift.sample_batch", _count_arg(1)),
    # hardware: the Intel 5300 card model.
    B("hardware", "repro.sim.calibration", "make_card"),
    B("hardware", "repro.hardware.intel5300", "Intel5300.measure_batch",
      _count_arg(1)),
    B("hardware", "repro.hardware.agc", "AgcModel.next_gains", _int_arg(1)),
    B("hardware", "repro.hardware.rssi", "RssiModel.measure_batch",
      _count_arg(1)),
    # tag: the switch state, asked once per helper packet.
    B("tag", "repro.tag.modulator", "TagModulator.state", leaf=True),
    # measurement: per-packet records and their stacked views.
    B("measurement", "repro.measurement", "ChannelMeasurement.__post_init__",
      leaf=True, name_override="measurement.ChannelMeasurement.init"),
    B("measurement", "repro.measurement", "MeasurementStream.append",
      leaf=True),
    B("measurement", "repro.measurement", "MeasurementStream.extend",
      _count_arg(1)),
    B("measurement", "repro.measurement", "MeasurementStream.csi_matrix"),
    # Stacked-view memo; items = builds, so calls - items = hits.
    B("measurement", "repro.measurement", "MeasurementStream._memo",
      name_override="measurement.MeasurementStream.memo"),
    # traces: recorded captures.
    B("traces", "repro.traces", "load_stream", _result_len),
    # core, scalar decoder and its stages.
    B("core", "repro.core.uplink_decoder", "UplinkDecoder.decode_bits"),
    B("core", "repro.core.conditioning", "condition"),
    B("core", "repro.core.subchannel", "detect_preamble"),
    B("core", "repro.core.subchannel", "select_good_subchannels"),
    B("core", "repro.core.combining", "combine"),
    B("core", "repro.core.slicer", "compute_thresholds"),
    B("core", "repro.core.slicer", "hysteresis_slice"),
    B("core", "repro.core.slicer", "majority_vote_bits"),
    # core.batch: the cross-packet batched decoder (lanes per call).
    B("core.batch", "repro.core.batch", "BatchedUplinkDecoder.decode_batch",
      _count_arg(1)),
    # faults.
    B("faults", "repro.faults.base", "FaultPlan.packet_mask", _count_arg(1)),
    B("faults", "repro.faults.base", "FaultPlan.corrupt_records",
      _count_arg(1)),
    # serve: the gateway loop, its decode task (bound by name in the
    # gateway module) and the ingress queue.
    B("serve", "repro.serve.gateway", "StreamingDecodeGateway.run"),
    B("serve", "repro.serve.gateway", "decode_batch_task", _result_len),
    B("serve", "repro.serve.queues", "BoundedPriorityQueue.offer", _shed),
    B("serve", "repro.serve.queues", "BoundedPriorityQueue.pop_batch",
      _result_len),
    # obs: fleet folding and telemetry snapshots.
    B("obs", "repro.obs.fleet.aggregate", "FleetAggregator.fold"),
    B("obs", "repro.serve.telemetry", "TelemetrySnapshotter.snapshot"),
    # glue: the drivers between the layers.
    B(GLUE_LAYER, "repro.sim.link", "run_uplink_ber"),
    B(GLUE_LAYER, "repro.sim.link", "run_uplink_trial"),
    B(GLUE_LAYER, "repro.sim.link", "synthesize_uplink_trial"),
    B(GLUE_LAYER, "repro.sim.link", "simulate_uplink_stream"),
    B(GLUE_LAYER, "repro.sim.engine", "run_trials"),
    B(GLUE_LAYER, "repro.sim.engine", "run_trials_supervised"),
)

#: Root span the benchmark loop opens around every operation.
OP_SPAN = "bench.op"


class _Stat:
    __slots__ = ("calls", "items", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and per-boundary totals for one traced phase.

    Spans are kept in memory as ``(span_id, parent_id, op_id, name, t0,
    t1, items)`` tuples and written by :meth:`write_spans`.  Self time
    is a span's duration minus the time its child spans cover; children
    are strictly nested (the program is single threaded here), so the
    covered time is the sum of their durations.
    """

    def __init__(self, only: Optional[Iterable[str]] = None) -> None:
        """Trace every boundary, or only those named in ``only``."""
        self.boundaries = tuple(b for b in BOUNDARIES
                                if only is None or b.name in only)
        self.stats: Dict[str, _Stat] = {OP_SPAN: _Stat()}
        self.layer_of: Dict[str, str] = {OP_SPAN: BENCH_LAYER}
        self.counts_items = {b.name: b.counts_items for b in self.boundaries}
        self.spans: List[tuple] = []
        self.missing: List[str] = []
        self.op_id = -1
        self._op_span = 0
        # One frame per open span: [child_seconds, span_id].
        self._stack: List[list] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        for b in self.boundaries:
            self.stats[b.name] = _Stat()
            self.layer_of[b.name] = b.layer
            try:
                owner = importlib.import_module(b.module)
                *path, leaf_attr = b.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                # Class attributes are read from the class dict so a
                # staticmethod/classmethod descriptor is not unwrapped.
                original = (owner.__dict__[leaf_attr] if isinstance(owner, type)
                            else getattr(owner, leaf_attr))
            except (ImportError, AttributeError, KeyError):
                self.missing.append(b.name)
                continue
            setattr(owner, leaf_attr, self._wrap(b, original))
            self._restore.append((owner, leaf_attr, original))
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        stat = self.stats[b.name]
        stack = self._stack
        spans = self.spans
        items_of = b.items
        name = b.name
        memo = b.is_memo
        tracer = self

        if b.leaf:
            # Per-packet path: no span record and no frame, since a
            # leaf calls no other boundary.
            def leaf(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    if stack:
                        stack[-1][0] += dur
                    stat.calls += 1
                    stat.total_s += dur
                    stat.self_s += dur

            leaf.__wrapped__ = fn
            return leaf

        def wrapper(*args, **kwargs):
            # A memo lookup builds when the public peek finds no entry.
            built = int(args[0].memo_get(args[1]) is None) if memo else 0
            parent = stack[-1][1] if stack else -1
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                spans[span_id] = (span_id, parent, tracer.op_id, name,
                                  t0, t1, 0)
            n = built if memo else (items_of(args, kwargs, result)
                                    if items_of else 0)
            stat.items += n
            if n:
                spans[span_id] = spans[span_id][:6] + (n,)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- the benchmark loop's root span -----------------------------------

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation under the root span ``bench.op``."""
        self.op_id = op_id
        stat = self.stats[OP_SPAN]
        span_id = self._op_span = len(self.spans)
        self.spans.append(None)
        frame = [0.0, span_id]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            stat.calls += 1
            stat.total_s += t1 - t0
            stat.self_s += (t1 - t0) - frame[0]
            self.spans[span_id] = (span_id, -1, op_id, OP_SPAN, t0, t1, 1)

    def item_ms(self, name: str) -> List[Tuple[float, float]]:
        """``(midpoint, ms)`` of every item of every ``name`` call in the
        last op: each call's host midpoint and duration split evenly
        over the items it handled."""
        out: List[Tuple[float, float]] = []
        for span in self.spans[self._op_span + 1:]:
            if span[3] == name and span[6]:
                mid = (span[4] + span[5]) / 2
                ms = 1e3 * (span[5] - span[4]) / span[6]
                out.extend([(mid, ms)] * span[6])
        return out

    # -- results -----------------------------------------------------------

    def summary(self, phase_s: float, ops: int) -> Dict[str, Any]:
        """Per-boundary and per-layer table over a timed phase.

        ``share`` is self time over the phase's host time.  The bench
        layer is charged the loop time outside every op span as well as
        each op span's own self time.
        """
        ops = max(ops, 1)
        entries: Dict[str, Dict[str, float]] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        inside_ops = self.stats[OP_SPAN].total_s
        for name, st in self.stats.items():
            self_s = st.self_s
            if name == OP_SPAN:
                self_s += max(phase_s - inside_ops, 0.0)
            layers[self.layer_of[name]] += self_s
            entries[name] = {
                "layer": self.layer_of[name],
                "calls": st.calls / ops,
                "items": (st.items / ops if self.counts_items.get(name)
                          else None),
                "self_ms": 1e3 * self_s / ops,
                "share": self_s / phase_s if phase_s > 0 else 0.0,
            }
        named = sum(s for layer, s in layers.items()
                    if layer not in (GLUE_LAYER, BENCH_LAYER))
        return {
            "phase_s": phase_s,
            "ops": ops,
            "entries": entries,
            "layers": {
                layer: {"self_ms": 1e3 * s / ops,
                        "share": s / phase_s if phase_s > 0 else 0.0}
                for layer, s in layers.items()
            },
            "attributed_share": named / phase_s if phase_s > 0 else 0.0,
            "missing": list(self.missing),
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, t0, t1, items in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_us": round((t0 - base) * 1e6, 1),
                    "dur_us": round((t1 - t0) * 1e6, 1), "items": items,
                }) + "\n")
