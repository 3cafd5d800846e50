"""Per-packet channel measurement records.

A :class:`ChannelMeasurement` is what monitor-mode capture on a
commodity Wi-Fi card yields per received packet: a timestamp (from the
Wi-Fi header — the paper uses it to bin measurements into tag-bit
boundaries, §3.2/§5), the CSI amplitude matrix when the chipset exposes
CSI (Intel 5300: 3 antennas x 30 sub-channels), and per-antenna RSSI.

The uplink decoders consume sequences of these records; the MAC
capture layer and the trace reader both produce them, so recorded and
simulated experiments share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ChannelMeasurement:
    """One packet's channel observation at the reader.

    Attributes:
        timestamp_s: packet arrival time from the Wi-Fi header.
        csi: CSI amplitude matrix, shape ``(num_antennas,
            num_subchannels)``, or ``None`` when the chipset only
            reports RSSI (e.g. beacon frames on the Intel 5300, §7.5).
        rssi_dbm: per-antenna RSSI in dBm, shape ``(num_antennas,)``.
        source: label of the transmitter ("helper", "ap-beacon", ...).
    """

    timestamp_s: float
    csi: Optional[np.ndarray]
    rssi_dbm: np.ndarray
    source: str = "helper"

    def __post_init__(self) -> None:
        if self.csi is not None and self.csi.ndim != 2:
            raise ConfigurationError(
                f"csi must be 2-D (antennas x subchannels), got shape "
                f"{self.csi.shape}"
            )
        if np.ndim(self.rssi_dbm) != 1:
            raise ConfigurationError("rssi_dbm must be a 1-D per-antenna array")

    @property
    def has_csi(self) -> bool:
        return self.csi is not None

    @property
    def num_antennas(self) -> int:
        return len(self.rssi_dbm)


@dataclass
class MeasurementStream:
    """An ordered collection of measurements with array accessors.

    Decoders operate on matrices, not record lists; this container
    validates time ordering and exposes the stacked views they need.
    """

    measurements: List[ChannelMeasurement] = field(default_factory=list)
    #: Length-keyed memo of the stacked array views.  Decoders hit
    #: ``timestamps`` / ``flattened_csi()`` several times per decode,
    #: so each stacked view is built once per stream length and
    #: invalidated by growth.  Cached arrays are marked
    #: read-only because they are shared between callers.
    _cache: Dict[str, Tuple[int, Any]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def append(self, measurement: ChannelMeasurement) -> None:
        if self.measurements and (
            measurement.timestamp_s < self.measurements[-1].timestamp_s
        ):
            raise ConfigurationError(
                "measurements must be appended in timestamp order"
            )
        self.measurements.append(measurement)

    def _memo(self, key: str, build: Callable[[], Any]) -> Any:
        """Value of ``build()``, cached until the stream changes length.

        The memo key is the record count: ``append``/``extend`` grow the
        list, so a stale entry can never be served after new packets
        arrive.  In-place replacement of an existing record (which no
        repo code path does) is the one mutation this would not see.
        """
        entry = self._cache.get(key)
        n = len(self.measurements)
        if entry is not None and entry[0] == n:
            return entry[1]
        value = build()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        self._cache[key] = (n, value)
        return value

    def memo_get(self, key: str) -> Any:
        """Peek a memo entry without building (None when absent/stale).

        Companion to :meth:`memo_put` for callers whose build step has
        side effects that must not be skipped on a miss (the decoder's
        mode-resolution probe increments degradation counters).
        """
        entry = self._cache.get(key)
        if entry is not None and entry[0] == len(self.measurements):
            return entry[1]
        return None

    def memo_put(self, key: str, value: Any) -> Any:
        """Store a memo entry under the current stream length."""
        self._cache[key] = (len(self.measurements), value)
        return value

    def extend(self, items: Iterable[ChannelMeasurement]) -> None:
        for item in items:
            self.append(item)

    def __len__(self) -> int:
        return len(self.measurements)

    def __iter__(self):
        return iter(self.measurements)

    def __getitem__(self, index):
        return self.measurements[index]

    @property
    def timestamps(self) -> np.ndarray:
        """Packet timestamps (s), shape ``(n_packets,)``."""
        return self._memo(
            "timestamps",
            lambda: np.array([m.timestamp_s for m in self.measurements]),
        )

    def _build_csi_matrix(self) -> np.ndarray:
        if not self.measurements:
            return np.empty((0, 0, 0))
        mats = []
        for m in self.measurements:
            if m.csi is None:
                raise ConfigurationError(
                    "csi_matrix() requires CSI on every measurement; "
                    "use rssi_matrix() for RSSI-only streams"
                )
            mats.append(m.csi)
        return np.stack(mats)

    def csi_matrix(self) -> np.ndarray:
        """Stacked CSI amplitudes, shape ``(n_packets, antennas, subchannels)``.

        Raises:
            ConfigurationError: if any measurement lacks CSI or shapes
                are inconsistent.
        """
        return self._memo("csi_matrix", self._build_csi_matrix)

    def rssi_matrix(self) -> np.ndarray:
        """Stacked RSSI values, shape ``(n_packets, antennas)``."""
        return self._memo(
            "rssi_matrix",
            lambda: (
                np.empty((0, 0)) if not self.measurements
                else np.stack([m.rssi_dbm for m in self.measurements])
            ),
        )

    def flattened_csi(self) -> np.ndarray:
        """CSI flattened to (n_packets, antennas * subchannels).

        The paper treats "multiple antennas as additional sub-channels"
        (§3.2); this view implements that.
        """
        def build() -> np.ndarray:
            csi = self.csi_matrix()
            return csi.reshape(csi.shape[0], -1)

        return self._memo("flattened_csi", build)

    def csi_coverage(self) -> float:
        """Fraction of records carrying a CSI matrix (1.0 when empty).

        The degradation ladder uses this to decide whether CSI-mode
        decoding is even possible, or the stream is effectively
        RSSI-only (e.g. a beacon-dominated capture, §7.5).
        """
        def build() -> float:
            if not self.measurements:
                return 1.0
            with_csi = sum(1 for m in self.measurements if m.csi is not None)
            return with_csi / len(self.measurements)

        return self._memo("csi_coverage", build)

    def finite_column_fraction(self, mode: str) -> np.ndarray:
        """Per-column fraction of finite cells of the stacked matrix.

        ``mode`` selects :meth:`flattened_csi` (``"csi"``) or
        :meth:`rssi_matrix` (``"rssi"``).  This is exactly
        ``np.isfinite(matrix).mean(axis=0)``, cached so the decoder's
        usable-channel probe does not rescan the matrix per decode.
        """
        if mode not in ("csi", "rssi"):
            raise ConfigurationError(f"mode must be 'csi' or 'rssi', got {mode!r}")

        def build() -> np.ndarray:
            matrix = (
                self.flattened_csi() if mode == "csi" else self.rssi_matrix()
            )
            return np.isfinite(matrix).mean(axis=0)

        return self._memo(f"finite_fraction:{mode}", build)

    def nonfinite_cells(self, mode: str) -> int:
        """NaN/inf cell count of the stacked ``mode`` matrix (cached).

        Zero means the sanitize gate can pass the matrix through
        untouched, which the decoders exploit to skip a full-matrix
        ``isfinite`` scan per decode.
        """
        if mode not in ("csi", "rssi"):
            raise ConfigurationError(f"mode must be 'csi' or 'rssi', got {mode!r}")

        def build() -> int:
            matrix = (
                self.flattened_csi() if mode == "csi" else self.rssi_matrix()
            )
            return int((~np.isfinite(matrix)).sum())

        return self._memo(f"nonfinite_cells:{mode}", build)

    def non_finite_count(self) -> int:
        """Total NaN/inf cells across all CSI and RSSI arrays.

        Fault injection (and real capture logs) can poison individual
        samples; this is the cheap health probe callers use before
        deciding on a repair/reject policy.
        """
        count = 0
        for m in self.measurements:
            if m.csi is not None:
                count += int((~np.isfinite(m.csi)).sum())
            count += int((~np.isfinite(m.rssi_dbm)).sum())
        return count

    def sliced(self, start_s: float, end_s: float) -> "MeasurementStream":
        """Sub-stream with ``start_s <= t < end_s``."""
        if end_s < start_s:
            raise ConfigurationError("end_s must be >= start_s")
        subset = [
            m for m in self.measurements if start_s <= m.timestamp_s < end_s
        ]
        return MeasurementStream(measurements=subset)


def merge_streams(streams: Sequence[MeasurementStream]) -> MeasurementStream:
    """Merge several streams into one, ordered by timestamp."""
    merged = sorted(
        (m for s in streams for m in s.measurements), key=lambda m: m.timestamp_s
    )
    out = MeasurementStream()
    out.extend(merged)
    return out
