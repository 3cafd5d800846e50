"""The picklable decode task the gateway fans out to workers.

One task = one dispatch group of queued requests, each decoded in turn
through the full uplink pipeline
(:func:`repro.sim.link.run_uplink_trial`).  The task is plain data and
each member's random stream derives purely from ``(root_seed, seq)``,
so any worker — or a supervised retry after a crash — decodes the
identical payloads, whatever group a request landed in.  Fault plans
are rewound before each member so an inline (workers=0) run sees the
same injector state a freshly unpickled pool copy would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.faults.base import FaultPlan
from repro.obs import forensics


@dataclass(frozen=True)
class ServeBatchTask:
    """One dispatch group of queued requests: the supervision unit.

    The ``seq``/``corr_id`` of the group's first request double as the
    task's forensics correlation (a dead-lettered group loses every
    member, which the gateway accounts per request).
    """

    batch_id: int
    run_id: str
    root_seed: int
    payload_bits: int
    packets_per_bit: float
    mode: str
    bit_rate_bps: float
    helper_to_tag_m: float
    faults: Optional[FaultPlan]
    seqs: Tuple[int, ...]
    corr_ids: Tuple[str, ...]
    start_times_s: Tuple[float, ...]
    #: Per-member tag-to-reader distance: ``ServeConfig.tag_to_reader_m``,
    #: or ``outlier_distance_m`` for a fleet outlier tag.
    distances_m: Tuple[float, ...]
    #: Per-member flag: treat decode exceptions as failed-decode *data*
    #: even without an active fault plan.  Set for fleet outlier tags
    #: (``ServeConfig.outlier_tags``), whose requests decode at a
    #: deliberately hostile distance — their failures are the point of
    #: the experiment, not pipeline bugs.
    lenient: Tuple[bool, ...]

    @property
    def seq(self) -> int:
        return self.seqs[0] if self.seqs else -1

    @property
    def corr_id(self) -> str:
        return self.corr_ids[0] if self.corr_ids else ""

    @property
    def trial(self) -> int:
        return self.seq


def _decode_member(task: ServeBatchTask, index: int) -> Dict[str, Any]:
    """Decode member ``index`` -> plain result dict.

    Decode failures under an active fault plan (or for a lenient
    member) are *data* (the request failed, the gateway accounts for
    it), not exceptions — matching the batch drivers' convention.
    Otherwise an error propagates.  ``wall_s`` is this member's own
    synthesis + decode time.
    """
    t0 = time.perf_counter()
    seq = task.seqs[index]
    active = task.faults is not None and not task.faults.empty
    if active:
        # Inline runs reuse one plan object across requests; rewinding
        # makes its state identical to the pristine copy each pool
        # worker unpickles, keeping workers=0 == workers=N.
        task.faults.reset()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(task.root_seed, 1, seq))
    )
    recording = obs.recording_enabled()
    if recording:
        # Dead-letter correlation: the request seq doubles as the
        # forensics trial index.
        forensics.begin("serve", run_id=task.run_id, trial=seq, packet=0)
    # Local import: repro.sim.link imports the whole decode stack.
    from repro.sim.link import run_uplink_trial

    try:
        trial = run_uplink_trial(
            task.distances_m[index],
            task.packets_per_bit,
            mode=task.mode,
            num_payload_bits=task.payload_bits,
            bit_rate_bps=task.bit_rate_bps,
            traffic="cbr",
            rng=rng,
            faults=task.faults,
            start_s=task.start_times_s[index],
            helper_to_tag_m=task.helper_to_tag_m,
        )
    except ReproError as exc:
        if recording:
            forensics.commit(
                errors=task.payload_bits, failure=type(exc).__name__
            )
        if not active and not task.lenient[index]:
            raise
        obs.quantile_sketch("fleet.decode.errors").observe(
            float(task.payload_bits)
        )
        return {
            "seq": seq,
            "ok": False,
            "errors": int(task.payload_bits),
            "payload": (),
            "failure": type(exc).__name__,
            "wall_s": time.perf_counter() - t0,
        }
    if recording:
        forensics.commit(
            errors=trial.errors,
            error_bits=np.flatnonzero(trial.sent_bits != trial.decoded_bits),
        )
    # Fleet sketch: per-request decode error counts, observed in
    # whichever process ran the decode.  Integer-valued and folded per
    # request, so the parent's merged sketch is byte-identical to an
    # inline run's (see the fleet determinism contract tests).
    obs.quantile_sketch("fleet.decode.errors").observe(float(trial.errors))
    return {
        "seq": seq,
        "ok": True,
        "errors": int(trial.errors),
        "payload": tuple(int(b) for b in trial.decoded_bits),
        "failure": "",
        "wall_s": time.perf_counter() - t0,
    }


def decode_batch_task(task: ServeBatchTask) -> List[Dict[str, Any]]:
    """Engine task: decode one dispatch group -> one result dict per
    member, in member order."""
    return [_decode_member(task, i) for i in range(len(task.seqs))]
