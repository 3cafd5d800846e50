"""A fixed reference kernel that measures how fast the host is right now.

The benchmark's host-time metrics are divided by the host's speed,
measured by timing this kernel between the program's ops (RATIONALE.md).
The kernel imports nothing from ``repro``, so a change to the program
cannot move it; it does the same kinds of work as the program does per
packet (vectorised complex numpy over packet x antenna x subchannel
arrays, one small Python object per packet, an ``.npz`` round trip) so
that it slows down with the host the way the program does.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

#: Packets, antennas, subchannels of one kernel call's arrays.
SHAPE = (600, 3, 30)
#: About the kernel's mean time on the host where the benchmark was
#: defined while it was slow (6.5-8.7 ms; 3.6-3.9 ms while it was fast).
#: Host times are reported scaled to this speed: a value reads what it
#: would on a host where one kernel call takes this long.
REFERENCE_MS = 7.0
#: A single op's time is scaled by the samples taken within this many
#: seconds of it: the host's slow phases last seconds or more.
LOCAL_WINDOW_S = 1.0


class _Record:
    __slots__ = ("t", "csi", "rssi")

    def __init__(self, t, csi, rssi):
        self.t = t
        self.csi = csi
        self.rssi = rssi


def kernel() -> float:
    """Run the kernel once; returns a checksum of its (fixed) result."""
    rng = np.random.default_rng(12345)
    n = SHAPE[0]
    h = rng.standard_normal(SHAPE) + 1j * rng.standard_normal(SHAPE)
    drift = np.exp(1j * np.cumsum(rng.standard_normal(n)) * 1e-2)
    h = h * drift[:, None, None]
    amplitude = np.abs(h)
    rssi = 10.0 * np.log10((amplitude ** 2).mean(axis=2) + 1e-12)
    reported = np.round(amplitude * 8.0 + rng.normal(scale=0.1,
                                                    size=SHAPE)) / 8.0
    records = [_Record(float(i) * 1e-3, reported[i], rssi[i])
               for i in range(n)]
    csi = np.stack([r.csi for r in records]).reshape(n, -1)
    kernel_len = 16
    smooth = np.cumsum(csi, axis=0)
    smooth = (smooth[kernel_len:] - smooth[:-kernel_len]) / kernel_len
    corr = np.corrcoef(smooth[:, :30].T)
    buf = io.BytesIO()
    np.savez(buf, csi=csi, rssi=rssi)
    buf.seek(0)
    with np.load(buf) as z:
        back = z["csi"]
    return float(corr.sum() + back[-1].sum() + sum(r.t for r in records))


class HostSpeed:
    """Samples the host's speed while the program runs.

    :meth:`poll` times one kernel call when ``every_s`` has passed since
    the last one; it always returns False, so it can be handed to
    ``run_serve`` as its ``should_stop`` hook and then samples between
    the gateway's dispatches.  :attr:`scale` converts a run's host time
    to reference-host time, :meth:`scale_at` one op's; :attr:`spent_s`
    is the host time the samples took, which the caller takes out of
    the time it measured.
    """

    def __init__(self, every_s: float = 0.25) -> None:
        self.every_s = every_s
        self.samples_ms: list = []
        self.times: list = []  # midpoint of each sample, ascending
        self.spent_s = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.samples_ms.append(1e3 * (t1 - t0))
        self.times.append((t0 + t1) / 2)
        self.spent_s += t1 - t0
        self._last = t1

    def poll(self) -> bool:
        if perf_counter() - self._last >= self.every_s:
            self.sample()
        return False

    @property
    def scale(self) -> float:
        """Reference-host seconds per host second: ``REFERENCE_MS`` over
        the mean kernel time sampled."""
        return REFERENCE_MS * len(self.samples_ms) / sum(self.samples_ms)

    def scale_at(self, t: float) -> float:
        """The scale from the samples within ``LOCAL_WINDOW_S`` of host
        time ``t``, or from the nearest sample when none is."""
        lo = bisect_left(self.times, t - LOCAL_WINDOW_S)
        hi = bisect_right(self.times, t + LOCAL_WINDOW_S)
        if lo == hi:
            near = [k for k in (lo - 1, lo) if 0 <= k < len(self.times)]
            lo = min(near, key=lambda k: abs(self.times[k] - t))
            hi = lo + 1
        window = self.samples_ms[lo:hi]
        return REFERENCE_MS * len(window) / sum(window)
