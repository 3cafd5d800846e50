"""Declarative scenario schema: one operating point of the paper's envelope.

A :class:`Scenario` is plain data — geometry, helper-traffic regime,
channel mode, an optional fault plan, and the *expected envelope*
(BER/throughput/latency bounds derived from the paper's figures).  It
round-trips losslessly through ``to_dict``/``from_dict`` (and therefore
JSON), and every constructor validates its fields, raising
:class:`repro.errors.ScenarioError` with the offending field named as a
dotted path — the CLI maps that to the configuration exit code (3).

The schema deliberately describes *what* to measure, not *how*: the
mapping onto the simulation drivers lives in
:mod:`repro.scenarios.runner`, so a scenario file written today keeps
working as the execution machinery underneath it evolves.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ScenarioError

#: Schema version stamped into serialized scenarios.
SCHEMA_VERSION = 1

#: Helper-traffic regimes the runner knows how to realize.
TRAFFIC_REGIMES = (
    "injected_cbr",   # §7.2: packets injected at a controlled rate
    "cts",            # §4.1: CTS_to_SELF-reserved helper slots (clean medium)
    "poisson",        # memoryless ambient-like arrivals
    "ambient",        # §7.4: diurnal office load, no injected traffic
    "beacon_only",    # §7.5 / Fig 16: AP beacons are the only packets
    "bursty",         # §3.2: Pareto bursts with idle gaps
)

#: Channel/decode modes (the degradation-ladder rungs plus downlink).
CHANNEL_MODES = ("csi", "rssi", "coded", "downlink")

#: Mobility trace kinds.
MOBILITY_KINDS = ("static", "linear", "random_walk")

#: Geometry sanity bounds (meters).  The paper's whole envelope fits
#: well inside these; anything outside is a typo, not an experiment.
MAX_TAG_READER_M = 3.0
MAX_HELPER_TAG_M = 30.0

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_\-]*$")


def _require(condition: bool, message: str, field_path: str) -> None:
    if not condition:
        raise ScenarioError(message, field=field_path)


def _reject_unknown(data: Dict[str, Any], known: Sequence[str],
                    prefix: str = "") -> None:
    for key in data:
        if key not in known:
            path = f"{prefix}{key}" if prefix else str(key)
            raise ScenarioError(
                f"unknown key (known: {sorted(known)})", field=path
            )


def _build(cls, data: Any, prefix: str):
    """Construct a nested dataclass from a dict, prefixing error paths."""
    if not isinstance(data, dict):
        raise ScenarioError(
            f"expected a mapping, got {type(data).__name__}",
            field=prefix.rstrip("."),
        )
    names = [f.name for f in dataclasses.fields(cls)]
    _reject_unknown(data, names, prefix)
    try:
        return cls(**data)
    except ScenarioError as exc:
        if exc.field and not exc.field.startswith(prefix):
            raise ScenarioError(
                str(exc).partition(": ")[2] or str(exc),
                field=prefix + exc.field,
            ) from None
        raise
    except TypeError as exc:
        raise ScenarioError(str(exc), field=prefix.rstrip(".")) from None


@dataclass(frozen=True)
class Mobility:
    """Tag motion over the scenario's trials.

    Motion is discretized per transmission: trial ``i`` runs at the
    trace's position ``i`` (the paper's experiments hold the tag still
    during one frame; it is the *between-frame* drift that stresses
    rate adaptation and the coded rungs).

    Attributes:
        kind: "static", "linear" (start→end sweep), or "random_walk".
        end_m: final tag-reader distance for "linear".
        step_std_m: per-trial step deviation for "random_walk".
    """

    kind: str = "static"
    end_m: Optional[float] = None
    step_std_m: float = 0.05

    def __post_init__(self) -> None:
        _require(self.kind in MOBILITY_KINDS,
                 f"must be one of {MOBILITY_KINDS}, got {self.kind!r}",
                 "kind")
        if self.kind == "linear":
            _require(self.end_m is not None,
                     "linear mobility needs end_m", "end_m")
        if self.end_m is not None:
            _require(0.0 < float(self.end_m) <= MAX_TAG_READER_M,
                     f"must be in (0, {MAX_TAG_READER_M}] m, got {self.end_m}",
                     "end_m")
        _require(self.step_std_m >= 0.0,
                 "must be >= 0", "step_std_m")

    def distances(self, start_m: float, n: int, seed: int) -> List[float]:
        """Per-trial tag-reader distances along the trace (deterministic)."""
        import numpy as np

        if self.kind == "static" or n == 1:
            return [start_m] * n
        if self.kind == "linear":
            return [
                float(v) for v in
                np.linspace(start_m, float(self.end_m), n)
            ]
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        steps = rng.normal(0.0, self.step_std_m, size=n - 1)
        out = [start_m]
        for step in steps:
            out.append(
                float(np.clip(out[-1] + step, 0.05, MAX_TAG_READER_M))
            )
        return out


@dataclass(frozen=True)
class Geometry:
    """Where the tag, reader, and helper sit.

    Attributes:
        tag_to_reader_m: backscatter link distance (uplink range knob).
        helper_to_tag_m: helper transmitter to tag distance.
        mobility: optional per-trial motion trace.
    """

    tag_to_reader_m: float = 0.3
    helper_to_tag_m: float = 3.0
    mobility: Optional[Mobility] = None

    def __post_init__(self) -> None:
        _require(
            0.0 < float(self.tag_to_reader_m) <= MAX_TAG_READER_M,
            f"must be in (0, {MAX_TAG_READER_M}] m, "
            f"got {self.tag_to_reader_m}",
            "tag_to_reader_m",
        )
        _require(
            0.0 < float(self.helper_to_tag_m) <= MAX_HELPER_TAG_M,
            f"must be in (0, {MAX_HELPER_TAG_M}] m, "
            f"got {self.helper_to_tag_m}",
            "helper_to_tag_m",
        )
        if self.mobility is not None and isinstance(self.mobility, dict):
            object.__setattr__(
                self, "mobility", _build(Mobility, self.mobility, "mobility.")
            )


@dataclass(frozen=True)
class Traffic:
    """The helper-traffic regime feeding the backscatter link.

    Attributes:
        regime: one of :data:`TRAFFIC_REGIMES`.
        rate_pps: mean helper packet rate (ignored for "ambient" and
            "beacon_only", which derive their own).
        start_hour: wall-clock hour for the "ambient" diurnal curve.
        peak_pps / base_pps: diurnal curve parameters ("ambient").
        beacon_interval_s: beacon period for "beacon_only" (the 802.11
            default TBTT is 102.4 ms).
    """

    regime: str = "injected_cbr"
    rate_pps: float = 1000.0
    start_hour: float = 14.0
    peak_pps: float = 1100.0
    base_pps: float = 100.0
    beacon_interval_s: float = 0.1024

    def __post_init__(self) -> None:
        _require(self.regime in TRAFFIC_REGIMES,
                 f"must be one of {TRAFFIC_REGIMES}, got {self.regime!r}",
                 "regime")
        _require(float(self.rate_pps) > 0, "must be positive", "rate_pps")
        _require(0.0 <= float(self.start_hour) <= 24.0,
                 "must be within [0, 24]", "start_hour")
        _require(float(self.peak_pps) > 0, "must be positive", "peak_pps")
        _require(float(self.base_pps) > 0, "must be positive", "base_pps")
        _require(float(self.beacon_interval_s) > 0,
                 "must be positive", "beacon_interval_s")

    def effective_rate_pps(self) -> float:
        """Mean helper packets/s this regime delivers."""
        if self.regime == "ambient":
            from repro.mac.traffic import office_load_pps

            return office_load_pps(
                self.start_hour, self.peak_pps, self.base_pps
            )
        if self.regime == "beacon_only":
            return 1.0 / self.beacon_interval_s
        return float(self.rate_pps)

    def arrival_kind(self) -> str:
        """The :func:`repro.sim.link.helper_packet_times` traffic kind."""
        if self.regime in ("injected_cbr", "cts", "beacon_only"):
            # CTS_to_SELF reserves the medium, so helper slots arrive
            # on schedule; beacons are timer-driven (TBTT).
            return "cbr"
        if self.regime == "bursty":
            return "bursty"
        return "poisson"


@dataclass(frozen=True)
class Channel:
    """Decode mode: which rung of the degradation ladder (or downlink).

    Attributes:
        mode: "csi" | "rssi" | "coded" | "downlink".
        code_length: chips per bit for "coded" (the paper's L).
        downlink_rate_bps: on-off keying rate for "downlink" (<=25 kbps).
    """

    mode: str = "csi"
    code_length: int = 8
    downlink_rate_bps: float = 20e3

    def __post_init__(self) -> None:
        _require(self.mode in CHANNEL_MODES,
                 f"must be one of {CHANNEL_MODES}, got {self.mode!r}",
                 "mode")
        _require(2 <= int(self.code_length) <= 512,
                 f"must be in [2, 512], got {self.code_length}",
                 "code_length")
        _require(0 < float(self.downlink_rate_bps) <= 25e3,
                 f"must be in (0, 25000] bps, got {self.downlink_rate_bps}",
                 "downlink_rate_bps")


@dataclass(frozen=True)
class TrialConfig:
    """How much Monte-Carlo to spend on the scenario.

    Attributes:
        repeats: transmissions (uplink) / chunk draws (downlink).
        payload_bits: bits per transmission.
        packets_per_bit: the paper's M (uplink bit rate is derived as
            ``traffic rate / M``); packets per *chip* for "coded".
        downlink_bits: Monte-Carlo bits for "downlink" scenarios.
    """

    repeats: int = 6
    payload_bits: int = 36
    packets_per_bit: float = 10.0
    downlink_bits: int = 20_000

    def __post_init__(self) -> None:
        _require(int(self.repeats) >= 1, "must be >= 1", "repeats")
        _require(int(self.payload_bits) >= 4, "must be >= 4", "payload_bits")
        _require(float(self.packets_per_bit) > 0,
                 "must be positive", "packets_per_bit")
        _require(int(self.downlink_bits) >= 1000,
                 "must be >= 1000", "downlink_bits")


@dataclass(frozen=True)
class Serve:
    """Streaming-gateway spell: run the scenario through the resilient
    serve loop (:mod:`repro.serve`) instead of a batch BER sweep.

    The scenario's geometry/traffic/trial sections still define the
    per-request decode physics; this section adds the serving shape —
    offered load, an optional overload burst, the latency budget, and
    the bounded-queue/supervision knobs the chaos suite exercises.

    Attributes:
        duration_s: virtual serving spell length.
        offered_load_rps: steady request arrival rate.
        burst_load_rps: overload burst rate (None = no burst).
        burst_start_s / burst_end_s: burst window within the spell.
        deadline_ms: per-request latency budget.
        queue_capacity: bounded ingress depth (overflow sheds).
        batch_max: requests dispatched per decode task.
        arrival_profile: "cbr" | "poisson" | "bursty" | "office".
        workers: decode worker processes (0 = inline).
        max_attempts: supervised retries before dead-lettering.
        n_tags: distinct tag addresses behind the gateway.
        fleet_capacity: tags tracked individually by the fleet health
            registry (overflow evicts LRU into the "other" bucket).
        outlier_tags: sabotaged tag addresses whose requests decode at
            ``outlier_distance_m`` — the fleet anomaly-surfacing path's
            ground truth.
        outlier_distance_m: hostile tag-reader distance for the
            outlier tags (required when any are set).
    """

    duration_s: float = 12.0
    offered_load_rps: float = 4.0
    burst_load_rps: Optional[float] = None
    burst_start_s: float = 0.0
    burst_end_s: float = 0.0
    deadline_ms: float = 4000.0
    queue_capacity: int = 16
    batch_max: int = 4
    arrival_profile: str = "poisson"
    workers: int = 0
    max_attempts: int = 3
    n_tags: int = 8
    fleet_capacity: int = 64
    outlier_tags: Tuple[int, ...] = ()
    outlier_distance_m: Optional[float] = None

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; canonicalize to a tuple so
        # equality holds across to_dict/from_dict.
        object.__setattr__(
            self, "outlier_tags",
            tuple(int(t) for t in self.outlier_tags),
        )
        _require(float(self.duration_s) > 0, "must be positive",
                 "duration_s")
        _require(float(self.offered_load_rps) > 0, "must be positive",
                 "offered_load_rps")
        if self.burst_load_rps is not None:
            _require(float(self.burst_load_rps) > 0, "must be positive",
                     "burst_load_rps")
            _require(float(self.burst_end_s) > float(self.burst_start_s),
                     "burst window must be non-empty", "burst_end_s")
        _require(float(self.deadline_ms) > 0, "must be positive",
                 "deadline_ms")
        _require(int(self.queue_capacity) >= 1, "must be >= 1",
                 "queue_capacity")
        _require(int(self.batch_max) >= 1, "must be >= 1",
                 "batch_max")
        from repro.serve.arrivals import ARRIVAL_PROFILES

        _require(self.arrival_profile in ARRIVAL_PROFILES,
                 f"must be one of {ARRIVAL_PROFILES}, "
                 f"got {self.arrival_profile!r}",
                 "arrival_profile")
        _require(int(self.workers) >= 0, "must be >= 0", "workers")
        _require(int(self.max_attempts) >= 1, "must be >= 1",
                 "max_attempts")
        _require(int(self.n_tags) >= 1, "must be >= 1", "n_tags")
        _require(int(self.fleet_capacity) >= 1, "must be >= 1",
                 "fleet_capacity")
        _require(all(t >= 0 for t in self.outlier_tags),
                 "tag addresses must be >= 0", "outlier_tags")
        if self.outlier_tags:
            _require(self.outlier_distance_m is not None,
                     "required when outlier_tags are set",
                     "outlier_distance_m")
        if self.outlier_distance_m is not None:
            _require(float(self.outlier_distance_m) > 0,
                     "must be positive", "outlier_distance_m")


@dataclass(frozen=True)
class Envelope:
    """Expected operating envelope, from the paper's figures.

    Any bound may be omitted (None = not asserted).  ``ber_max`` and
    ``latency_max_s`` are upper bounds, ``throughput_min_bps`` a lower
    bound on goodput (delivered correct bits/s of *link* time).
    """

    ber_max: Optional[float] = None
    throughput_min_bps: Optional[float] = None
    latency_max_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.ber_max is not None:
            _require(0.0 <= float(self.ber_max) <= 1.0,
                     "must be within [0, 1]", "ber_max")
        if self.throughput_min_bps is not None:
            _require(float(self.throughput_min_bps) >= 0.0,
                     "must be >= 0", "throughput_min_bps")
        if self.latency_max_s is not None:
            _require(float(self.latency_max_s) > 0.0,
                     "must be positive", "latency_max_s")

    def bounds(self) -> List[Tuple[str, str, float]]:
        """``(metric, op, bound)`` triples for the asserted bounds."""
        out: List[Tuple[str, str, float]] = []
        if self.ber_max is not None:
            out.append(("ber", "<=", float(self.ber_max)))
        if self.throughput_min_bps is not None:
            out.append(("throughput_bps", ">=",
                        float(self.throughput_min_bps)))
        if self.latency_max_s is not None:
            out.append(("latency_s", "<=", float(self.latency_max_s)))
        return out


@dataclass(frozen=True)
class Scenario:
    """One declarative, runnable operating point.

    Attributes:
        name: unique slug (lowercase, ``[a-z0-9_-]``).
        description: one-line human summary.
        tags: free-form labels for corpus filtering ("geometry",
            "faults", "mobility", ...).
        geometry / traffic / channel / trial / envelope: see the
            component dataclasses.
        serve: optional streaming-gateway section; when present the
            runner drives the scenario through :mod:`repro.serve`
            (csi/rssi modes only).
        faults: optional fault-plan string in the
            :mod:`repro.faults.spec` mini-language.
        slo: optional SLO rule spec (see :mod:`repro.obs.perf.slo`)
            evaluated against the run's metrics registry.
        seed: per-scenario base seed offset (combined with the soak
            run's seed so reruns are reproducible yet decorrelated).
    """

    name: str
    description: str = ""
    tags: Tuple[str, ...] = ()
    geometry: Geometry = field(default_factory=Geometry)
    traffic: Traffic = field(default_factory=Traffic)
    channel: Channel = field(default_factory=Channel)
    trial: TrialConfig = field(default_factory=TrialConfig)
    envelope: Envelope = field(default_factory=Envelope)
    serve: Optional[Serve] = None
    faults: Optional[str] = None
    slo: Optional[str] = None
    seed: int = 0

    def __post_init__(self) -> None:
        _require(bool(self.name) and _NAME_RE.match(str(self.name)) is not None,
                 "must be a lowercase [a-z0-9_-] slug", "name")
        for attr, cls in (
            ("geometry", Geometry), ("traffic", Traffic),
            ("channel", Channel), ("trial", TrialConfig),
            ("envelope", Envelope),
        ):
            value = getattr(self, attr)
            if isinstance(value, dict):
                object.__setattr__(
                    self, attr, _build(cls, value, f"{attr}.")
                )
            elif not isinstance(value, cls):
                raise ScenarioError(
                    f"expected {cls.__name__} or mapping, "
                    f"got {type(value).__name__}",
                    field=attr,
                )
        if self.serve is not None:
            if isinstance(self.serve, dict):
                object.__setattr__(
                    self, "serve", _build(Serve, self.serve, "serve.")
                )
            elif not isinstance(self.serve, Serve):
                raise ScenarioError(
                    f"expected Serve or mapping, "
                    f"got {type(self.serve).__name__}",
                    field="serve",
                )
            _require(self.channel.mode in ("csi", "rssi"),
                     "serve scenarios need an uplink channel mode "
                     "(csi or rssi)",
                     "serve")
        if isinstance(self.tags, list):
            object.__setattr__(self, "tags", tuple(self.tags))
        _require(all(isinstance(t, str) for t in self.tags),
                 "tags must be strings", "tags")
        if self.faults is not None:
            from repro.faults import parse_fault_spec

            try:
                parse_fault_spec(self.faults)
            except ConfigurationError as exc:
                raise ScenarioError(str(exc), field="faults") from None
        if self.slo is not None:
            from repro.obs.perf.slo import SloEngine

            try:
                SloEngine.from_spec(self.slo)
            except ConfigurationError as exc:
                raise ScenarioError(str(exc), field="slo") from None

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (round-trips through :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["tags"] = list(self.tags)
        data["schema_version"] = SCHEMA_VERSION
        if self.geometry.mobility is None:
            data["geometry"].pop("mobility")
        if self.serve is None:
            data.pop("serve")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Validate + build a scenario from a plain dict.

        Raises:
            ScenarioError: unknown keys (at any nesting level), missing
                name, or any out-of-range value — with ``field`` set to
                the dotted path of the offender.
        """
        if not isinstance(data, dict):
            raise ScenarioError(
                f"scenario must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if int(version) > SCHEMA_VERSION:
            raise ScenarioError(
                f"schema_version {version} is newer than supported "
                f"{SCHEMA_VERSION}",
                field="schema_version",
            )
        return _build(cls, data, "")


def scenarios_from_json(text: str) -> List[Scenario]:
    """Parse one scenario or a list of scenarios from JSON text."""
    import json

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    if isinstance(payload, dict) and "scenarios" in payload:
        payload = payload["scenarios"]
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise ScenarioError("expected a scenario object or list")
    return [Scenario.from_dict(item) for item in payload]
