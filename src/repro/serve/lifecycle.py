"""Per-request lifecycle tracing for the serve path.

Every request admitted to the gateway carries a span tree::

    serve.request                     (arrival -> terminal)
      serve.ingress                   (admission decision, instant)
      serve.queue_wait                (arrival -> dispatch or eviction)
      serve.dispatch                  (batch pop, instant)
      serve.decode                    (virtual service slot)
      serve.deliver | serve.shed | serve.abandon   (terminal, instant)

The :class:`LifecycleTracker` accumulates *marks* (ingress, dispatch,
decode) per in-flight request and assembles the tree when the gateway
settles the terminal outcome.  All span bounds are **virtual-time**
values via :meth:`repro.obs.tracing.Span.at` — never ``perf_counter``
— and every attribute is a pure function of ``(config, seed)``:
queue depth at enqueue, breaker state at admission, batch position at
dispatch.  Two runs of the same seed therefore produce byte-identical
``serve.request`` trees regardless of ``workers``, which the lifecycle
determinism test asserts on the serialized span dicts.

Spans are built parent-side only (worker processes never see them), so
the tracker costs nothing when tracing is disabled: every hook returns
on a single ``None`` check.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.tracing import Span, Tracer
from repro.serve.request import (
    SPAN_DECODE,
    SPAN_DISPATCH,
    SPAN_INGRESS,
    SPAN_QUEUE_WAIT,
    SPAN_REQUEST,
    STATUS_DELIVERED,
    TERMINAL_SPANS,
    DecodeRequest,
    ServeOutcome,
)


class LifecycleTracker:
    """Builds one virtual-time span tree per settled request.

    Args:
        run_id: the gateway run ID, stamped on every root span.
        tracer: destination tracer; ``None`` disables the tracker
            entirely (every hook becomes a cheap no-op).
    """

    __slots__ = ("run_id", "_tracer", "_marks")

    def __init__(self, run_id: str, tracer: Optional[Tracer] = None) -> None:
        self.run_id = run_id
        self._tracer = tracer
        self._marks: Dict[int, Dict[str, Any]] = {}

    @property
    def enabled(self) -> bool:
        return self._tracer is not None

    # -- marks --------------------------------------------------------------

    def ingress(
        self,
        req: DecodeRequest,
        now_s: float,
        queue_depth: int,
        breaker_state: str,
        admitted: bool,
    ) -> None:
        """Record the admission decision for ``req``.

        ``queue_depth`` is the ingress depth *at enqueue time* (before
        this request joins); ``breaker_state`` is its tag's breaker
        state when the admission check ran.
        """
        if self._tracer is None:
            return
        self._marks[req.seq] = {
            "req": req,
            "ingress_t": float(now_s),
            "queue_depth": int(queue_depth),
            "breaker_state": str(breaker_state),
            "admitted": bool(admitted),
        }

    def dispatch(
        self,
        req: DecodeRequest,
        now_s: float,
        batch_index: int,
        batch_size: int,
        queue_depth: int,
        batch_id: int,
    ) -> None:
        """Record the batch pop that took ``req`` off the queue.

        ``batch_id`` is the dispatch group's sequence number; every
        member of one group shares it.
        """
        if self._tracer is None:
            return
        mark = self._marks.get(req.seq)
        if mark is None:
            return
        mark["dispatch_t"] = float(now_s)
        mark["batch_index"] = int(batch_index)
        mark["batch_size"] = int(batch_size)
        mark["dispatch_queue_depth"] = int(queue_depth)
        mark["batch_id"] = int(batch_id)

    def decode(
        self,
        req: DecodeRequest,
        start_s: float,
        end_s: float,
        ok: bool,
        errors: int,
    ) -> None:
        """Record the virtual decode slot ``req`` occupied."""
        if self._tracer is None:
            return
        mark = self._marks.get(req.seq)
        if mark is None:
            return
        mark["decode"] = (float(start_s), float(end_s), bool(ok),
                          int(errors))

    # -- assembly -----------------------------------------------------------

    def finish(self, outcome: ServeOutcome) -> Optional[Span]:
        """Assemble and adopt the span tree for a settled request.

        Returns the root span (or None when disabled / never marked).
        """
        if self._tracer is None:
            return None
        mark = self._marks.pop(outcome.seq, None)
        if mark is None:
            return None
        req: DecodeRequest = mark["req"]
        end_t = float(outcome.completed_s)
        root = Span.at(
            SPAN_REQUEST,
            req.arrival_s,
            end_t,
            corr_id=outcome.corr_id,
            run_id=self.run_id,
            seq=outcome.seq,
            tag_address=outcome.tag_address,
            priority=req.priority_name,
            status=outcome.status,
            reason=outcome.reason,
        )
        ingress_t = mark["ingress_t"]
        root.add_child(Span.at(
            SPAN_INGRESS,
            ingress_t,
            ingress_t,
            queue_depth_at_enqueue=mark["queue_depth"],
            breaker_state=mark["breaker_state"],
            admitted=mark["admitted"],
        ))
        dispatch_t = mark.get("dispatch_t")
        if mark["admitted"]:
            # Wait ends at dispatch, or at the terminal event for
            # requests evicted/drained while still queued.
            wait_end = dispatch_t if dispatch_t is not None else end_t
            root.add_child(Span.at(
                SPAN_QUEUE_WAIT, ingress_t, wait_end,
                wait_s=wait_end - ingress_t,
            ))
        if dispatch_t is not None:
            root.add_child(Span.at(
                SPAN_DISPATCH,
                dispatch_t,
                dispatch_t,
                batch_index=mark["batch_index"],
                batch_size=mark["batch_size"],
                queue_depth_after=mark["dispatch_queue_depth"],
                batch_id=mark["batch_id"],
            ))
        decode_mark = mark.get("decode")
        if decode_mark is not None:
            start_s, end_s, ok, errors = decode_mark
            decode_span = Span.at(
                SPAN_DECODE, start_s, end_s,
                ok=ok, errors=errors, attempts=outcome.attempts,
            )
            if not ok:
                decode_span.error = outcome.reason or outcome.status
            root.add_child(decode_span)
        terminal = Span.at(
            TERMINAL_SPANS[outcome.status],
            end_t,
            end_t,
            status=outcome.status,
            reason=outcome.reason,
        )
        if outcome.status == STATUS_DELIVERED:
            terminal.set(latency_s=outcome.latency_s,
                         payload_bits=len(outcome.payload))
        root.add_child(terminal)
        self._tracer.adopt(root)
        return root

    def pending(self) -> int:
        """Requests marked but not yet settled (should be 0 post-run)."""
        return len(self._marks)
