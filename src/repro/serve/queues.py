"""Bounded priority queues with explicit, accounted load shedding.

The ingress queue is the gateway's only backpressure mechanism: when
offered load exceeds decode capacity the queue fills, and something
must be shed.  The policy is fixed and documented — **newest request
of the lowest-priority class present loses** — so overload behaviour
is predictable: high-priority requests are only ever shed once the
queue holds nothing but high-priority requests.

Every shed is explicit: the caller receives a :class:`ShedEvent`
naming the victim, the reason, and the worst priority class present at
decision time (which the chaos suite uses to verify the ordering
contract), and the ``serve.shed`` metrics are incremented.  There is
no code path that drops a request without producing an event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro import obs
from repro.errors import ConfigurationError
from repro.serve.request import PRIORITIES, DecodeRequest


@dataclass(frozen=True)
class ShedEvent:
    """One explicit shed decision."""

    seq: int
    corr_id: str
    priority: int
    reason: str
    time_s: float
    #: Worst (numerically largest) priority class present in the queue
    #: -- including the incoming request -- when the victim was chosen.
    #: The shed-ordering contract is ``priority == worst_present``.
    worst_present: int


def count_shed(event: ShedEvent) -> None:
    """Increment the ``serve.shed`` metric family for one event."""
    obs.counter("serve.shed").inc()
    obs.counter(f"serve.shed.reason.{event.reason}").inc()
    obs.counter(f"serve.shed.priority.{PRIORITIES[event.priority]}").inc()


class BoundedPriorityQueue:
    """FIFO-per-class priority queue with a hard capacity.

    ``offer`` never grows the queue past ``capacity``: when full, the
    newest request of the worst class present (the incoming request
    itself, if it is in that class) is shed and reported.
    """

    def __init__(self, capacity: int, name: str = "serve.ingress") -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name
        self._classes: List[Deque[DecodeRequest]] = [
            deque() for _ in PRIORITIES
        ]
        self.depth_max = 0

    def __len__(self) -> int:
        return sum(len(q) for q in self._classes)

    @property
    def depth(self) -> int:
        return len(self)

    def _worst_present(self, including: int) -> int:
        worst = including
        for prio in range(len(PRIORITIES) - 1, including - 1, -1):
            if self._classes[prio]:
                return prio
        return worst

    def offer(
        self, request: DecodeRequest, now_s: float, reason: str = "queue_full"
    ) -> Tuple[bool, Optional[ShedEvent]]:
        """Admit ``request`` or shed the newest-worst request.

        Returns ``(admitted, shed_event)``.  ``admitted`` refers to the
        *incoming* request; when an already-queued request was evicted
        to make room, ``admitted`` is True and the event names the
        evicted victim.
        """
        if len(self) < self.capacity:
            self._classes[request.priority].append(request)
            self.depth_max = max(self.depth_max, len(self))
            return True, None
        worst = self._worst_present(request.priority)
        if worst <= request.priority:
            # The incoming request is (one of) the worst present; it is
            # also the newest, so it is the victim.
            event = ShedEvent(
                seq=request.seq,
                corr_id=request.corr_id,
                priority=request.priority,
                reason=reason,
                time_s=now_s,
                worst_present=worst if worst > request.priority
                else request.priority,
            )
            count_shed(event)
            return False, event
        victim = self._classes[worst].pop()
        event = ShedEvent(
            seq=victim.seq,
            corr_id=victim.corr_id,
            priority=victim.priority,
            reason=reason,
            time_s=now_s,
            worst_present=worst,
        )
        count_shed(event)
        self._classes[request.priority].append(request)
        self.depth_max = max(self.depth_max, len(self))
        return True, event

    def oldest_arrival_s(self) -> Optional[float]:
        """Arrival time of the oldest queued request (None when empty).

        Requests enter in arrival order and eviction removes from the
        newest end, so each class deque's head is its oldest member;
        the queue's oldest is the minimum across class heads.  The
        gateway anchors its coalescing window here.
        """
        heads = [q[0].arrival_s for q in self._classes if q]
        return min(heads) if heads else None

    def pop_batch(self, n: int) -> List[DecodeRequest]:
        """Up to ``n`` requests, best class first, FIFO within class."""
        batch: List[DecodeRequest] = []
        for q in self._classes:
            while q and len(batch) < n:
                batch.append(q.popleft())
            if len(batch) >= n:
                break
        return batch

    def drain(self) -> List[DecodeRequest]:
        """Remove and return everything, best-first (for shutdown)."""
        out = self.pop_batch(len(self))
        return out
