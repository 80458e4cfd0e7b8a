"""Run telemetry: metric aggregates plus a structured JSONL event stream.

A :class:`MetricsRegistry` collects what the algorithms *did* during a
run — counters, gauges, histograms and per-iteration event series —
and streams every event to a sink as one JSON line.  The flow
components (:class:`~repro.place.global_placer.GlobalPlacer`,
:class:`~repro.core.rd_placer.RoutabilityDrivenPlacer`,
:class:`~repro.route.router.GlobalRouter`) accept a shared registry,
the CLI exposes it as ``--metrics-out``, and the bench harness embeds
the resulting report in ``BENCH_*.json`` payloads.

Design constraints, in order:

* **near-zero overhead when disabled** — the module-level :data:`NULL`
  registry has ``enabled = False`` and no-op methods; hot loops guard
  each emission with ``if metrics.enabled:`` so a disabled run pays one
  attribute read per iteration (asserted by a micro-benchmark test);
* **deterministic by default** — events carry a schema version, a
  sequence number and structured fields, but *no* wall-clock timestamp
  unless ``MetricsConfig(record_time=True)``; two runs with the same
  seed therefore produce bit-identical streams (the e2e determinism
  test relies on this);
* **resume-consistent** — a resumed flow appends to the same JSONL
  file; each run segment starts with a ``run.start`` event (with
  ``resumed: true`` on continuation) and sequence numbers restart per
  segment, so :func:`validate_stream` accepts concatenated segments.

Event schema (version :data:`SCHEMA_VERSION`)
---------------------------------------------
Every event is one JSON object per line with at least::

    {"v": 1, "seq": <int>, "kind": "<str>", ...}

``seq`` is contiguous from 0 within a run segment.  ``t`` (monotonic
seconds from the registry's clock) appears only when timestamps are
enabled.  Known kinds and their required fields are listed in
:data:`EVENT_FIELDS`; unknown kinds are allowed (forward
compatibility) but must still carry the envelope keys.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.utils.clock import Clock, SystemClock

SCHEMA_VERSION = 2

#: Versions :func:`validate_event` accepts.  v2 added the ``dse.*``
#: kinds (sweep expansion / sharding / run-database ingest) and later,
#: still additively, the ``eco.*`` kinds (incremental-placement flow)
#: on top of v1 without changing any existing kind's envelope or
#: fields, so v1 streams remain fully readable.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

#: Required per-kind fields beyond the ``v``/``seq``/``kind`` envelope.
#: Unknown kinds are accepted by validation; known kinds must carry at
#: least these fields (extra fields are always allowed).  Kinds that
#: only older streams carry (``job.*``, ``service.*``,
#: ``kernel.backend``) are unknown kinds now and still validate.
EVENT_FIELDS: dict = {
    "run.start": (),
    "run.end": ("counters", "gauges", "histograms"),
    # terminal marker of an abnormally-ended run (SIGTERM / interpreter
    # exit with an unflushed registry); see install_abort_flush
    "run.aborted": ("reason",),
    # one per GlobalPlacer solver iteration
    "gp.iter": ("iter", "hpwl", "overflow", "density_weight", "step", "grad_norm"),
    # one per divergence-guard trip inside the placer loop
    "gp.guard": ("iter", "guard", "detail"),
    # one per routability round (mirrors RoundRecord)
    "rd.round": (
        "round",
        "c_value",
        "mean_congestion",
        "max_congestion",
        "total_overflow",
        "hpwl",
        "lambda2",
        "mean_inflation",
        "max_inflation",
        "n_deflated",
        "netmove_grad_l1",
        "multipin_grad_l1",
        "dpa_bins",
        "dpa_charge",
        "router_fallbacks",
    ),
    # one per guard/sanitize recovery in the routability flow
    "rd.recovery": ("round", "guard", "detail", "action"),
    # flow lifecycle markers
    "rd.start": ("design", "n_cells", "n_nets"),
    "rd.resume": ("round",),
    "rd.checkpoint": ("round",),
    # one per numeric-contract violation (warn/raise modes; see
    # repro.utils.contracts)
    "contract.violation": ("site", "contract", "detail"),
    # design-space-exploration sweeps (see repro.dse) — schema v2
    "dse.sweep": ("sweep", "n_units", "n_points", "n_designs"),
    "dse.shard": ("sweep", "unit", "index", "design"),
    "dse.ingest": ("source", "source_kind", "new"),
    # incremental / ECO placement (see repro.eco) — additive v2 kinds
    "eco.diff": (
        "n_added_cells",
        "n_removed_cells",
        "n_resized_cells",
        "n_added_nets",
        "n_removed_nets",
        "n_rewired_nets",
    ),
    "eco.warm": ("source", "n_mapped", "n_seeded"),
    "eco.region": ("n_dirty_cells", "n_dirty_nets", "n_bins", "dirty_fraction"),
    "eco.place": (
        "rounds",
        "hpwl",
        "total_overflow",
        "n_dirty_cells",
        "n_dirty_nets",
        "resumed",
    ),
    "eco.compare": (
        "eco_hpwl",
        "full_hpwl",
        "hpwl_ratio",
        "eco_overflow",
        "full_overflow",
        "eco_rounds",
        "full_rounds",
    ),
    # one per global-routing pass
    "route.pass": (
        "n_segments",
        "wirelength",
        "vias",
        "total_overflow",
        "h_demand",
        "v_demand",
        "h_cap",
        "v_cap",
        "max_utilization",
        "n_fallbacks",
    ),
}


class MetricsError(ValueError):
    """An event or stream violating the metrics schema."""


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class MemorySink:
    """Keeps emitted JSON lines in memory (tests, reports)."""

    def __init__(self) -> None:
        self.lines: list = []

    def write(self, line: str) -> None:
        """Record one serialized event line."""
        self.lines.append(line)

    def flush(self) -> None:
        """No-op: nothing is buffered."""

    def close(self) -> None:
        """No-op: nothing to release."""


class JsonlSink:
    """Buffered JSONL file sink.

    Lines are buffered and written in batches of ``buffer_lines`` (and
    on :meth:`flush`/:meth:`close`), so per-event cost in the hot loop
    is a list append, not a syscall.  ``append=True`` continues an
    existing stream (resumed runs); otherwise the file is truncated.
    """

    def __init__(self, path: str, append: bool = False, buffer_lines: int = 256):
        if buffer_lines < 1:
            raise ValueError("buffer_lines must be >= 1")
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self.buffer_lines = buffer_lines
        self._buffer: list = []
        self._fh = open(path, "a" if append else "w")

    def write(self, line: str) -> None:
        """Buffer one serialized event line (flushes at the batch size)."""
        self._buffer.append(line)
        if len(self._buffer) >= self.buffer_lines:
            self.flush()

    def flush(self) -> None:
        """Write buffered lines to the file and flush the OS buffer."""
        if self._buffer:
            self._fh.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._fh.flush()

    def close(self) -> None:
        """Flush remaining lines and close the file (idempotent)."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
@dataclass
class HistStats:
    """Streaming histogram summary (count / sum / min / max)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one sample into the running summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        """JSON-ready summary (count/sum/min/max/mean; None when empty)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": None, "max": None, "mean": None}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
        }


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
class NullMetrics:
    """Disabled telemetry: every operation is a no-op.

    The flow components default to the shared :data:`NULL` instance, so
    an uninstrumented run never builds event dicts, never serialises
    JSON and never touches a sink — hot loops check ``enabled`` first
    and skip even the keyword-argument packing.
    """

    enabled = False

    def inc(self, name: str, n: float = 1) -> None:
        """No-op counter increment."""

    def gauge(self, name: str, value: float) -> None:
        """No-op gauge update."""

    def observe(self, name: str, value: float) -> None:
        """No-op histogram observation."""

    def emit(self, kind: str, **fields) -> None:
        """No-op event emission."""

    def start_run(self, **fields) -> None:
        """No-op run-segment start."""

    def close(self) -> None:
        """No-op close."""

    def flush(self) -> None:
        """No-op flush."""


#: Shared disabled registry — the default everywhere.
NULL = NullMetrics()


@dataclass
class MetricsConfig:
    """Telemetry knobs.

    Attributes
    ----------
    record_time:
        Add a ``t`` field (monotonic seconds from the registry clock)
        to every event.  Off by default so equal-seed runs emit
        bit-identical streams.
    max_series:
        In-memory cap on retained events per kind (the JSONL sink still
        receives everything; the cap only bounds report memory).
    """

    record_time: bool = False
    max_series: int = 200_000


class MetricsRegistry:
    """Enabled telemetry: aggregates in memory, events to the sink.

    ``inc``/``gauge``/``observe`` update aggregates only (no event per
    call — they are for totals the final snapshot reports).  ``emit``
    appends one schema-versioned event to the sink and to the in-memory
    per-kind series.  :meth:`close` writes a ``run.end`` event carrying
    the aggregate snapshot, making the JSONL stream self-contained.
    """

    enabled = True

    def __init__(
        self,
        sink=None,
        config: MetricsConfig | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.config = config or MetricsConfig()
        self.clock = clock or SystemClock()
        self.counters: dict = {}
        self.gauges: dict = {}
        self.histograms: dict = {}
        self.series: dict = {}
        self._seq = 0
        self._closed = False

    # ---------------------------------------------------------- aggregates
    def inc(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` (no event emitted)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value (no event emitted)."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (no event emitted)."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistStats()
        hist.observe(value)

    def snapshot(self) -> dict:
        """JSON-ready aggregate state."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: h.as_dict() for name, h in sorted(self.histograms.items())
            },
        }

    # ------------------------------------------------------------- events
    def start_run(self, **fields) -> dict:
        """Begin a run segment (``run.start``); resets the sequence."""
        self._seq = 0
        return self.emit("run.start", **fields)

    def emit(self, kind: str, **fields) -> dict:
        """Append one event to the stream (and the in-memory series)."""
        if self._closed:
            raise MetricsError("emit() on a closed MetricsRegistry")
        if self._seq == 0 and kind != "run.start":
            # streams always begin with a run.start marker; emitting it
            # lazily keeps ad-hoc registry use schema-valid
            self._append({"v": SCHEMA_VERSION, "seq": 0, "kind": "run.start"})
        event = {"v": SCHEMA_VERSION, "seq": self._seq, "kind": kind}
        if self.config.record_time:
            event["t"] = self.clock.now()
        event.update(fields)
        self._append(event)
        return event

    def _append(self, event: dict) -> None:
        self._seq = event["seq"] + 1
        bucket = self.series.setdefault(event["kind"], [])
        if len(bucket) < self.config.max_series:
            bucket.append(event)
        self.sink.write(json.dumps(event, separators=(",", ":")))

    def flush(self) -> None:
        """Flush the sink's buffered lines."""
        self.sink.flush()

    def close(self) -> None:
        """Emit ``run.end`` with the aggregate snapshot and close the sink."""
        if self._closed:
            return
        self.emit("run.end", **self.snapshot())
        self._closed = True
        self.sink.close()


# ----------------------------------------------------------------------
# abnormal-exit flushing
# ----------------------------------------------------------------------
class AbortFlush:
    """SIGTERM/atexit safety net for a buffered metrics registry.

    A killed or crashed run would otherwise lose whatever the
    :class:`JsonlSink` still buffers.  Installing an :class:`AbortFlush`
    arranges that

    * **SIGTERM** emits a terminal ``run.aborted`` event (carrying the
      signal name and the profiler's currently-open stages, when one is
      attached), flushes the sink, and re-raises as ``SystemExit(143)``
      so cleanup handlers still run;
    * **interpreter exit** with a registry that was never closed (an
      unhandled exception unwound past the flow) emits ``run.aborted``
      with ``reason="exit-without-close"`` and flushes.

    Either way the on-disk JSONL stream stays valid — truncated, but
    parseable and ``validate_stream``-clean up to the abort marker.
    Use :func:`install_abort_flush`; call :meth:`uninstall` once the
    run closed normally (idempotent).  Signal handlers can only be
    installed from the main thread; elsewhere only the atexit hook is
    armed.
    """

    def __init__(self, registry: "MetricsRegistry", profiler=None) -> None:
        self.registry = registry
        self.profiler = profiler
        self._prev_handlers: dict = {}
        self._installed = False
        self._fired = False

    # ------------------------------------------------------------------
    def install(self, signals: tuple = None) -> "AbortFlush":
        """Arm the atexit hook and (main thread only) signal handlers."""
        import atexit
        import signal as signal_mod

        if self._installed:
            return self
        self._installed = True
        atexit.register(self._atexit_hook)
        for sig in signals if signals is not None else (signal_mod.SIGTERM,):
            try:
                self._prev_handlers[sig] = signal_mod.signal(
                    sig, self._signal_hook
                )
            except ValueError:
                # not the main thread (or an unsupported signal):
                # atexit coverage only
                pass
        return self

    def uninstall(self) -> None:
        """Disarm hooks and restore previous signal handlers."""
        import atexit
        import signal as signal_mod

        if not self._installed:
            return
        self._installed = False
        atexit.unregister(self._atexit_hook)
        for sig, prev in self._prev_handlers.items():
            try:
                signal_mod.signal(sig, prev)
            except (ValueError, TypeError):
                pass
        self._prev_handlers.clear()

    # ------------------------------------------------------------------
    def trigger(self, reason: str) -> bool:
        """Emit ``run.aborted`` + flush; True when the event was written.

        Safe to call from signal handlers and atexit: never raises,
        fires at most once, and is a no-op on an already-closed
        registry (a normal shutdown).
        """
        if self._fired or getattr(self.registry, "_closed", True):
            return False
        self._fired = True
        try:
            fields = {"reason": reason}
            if self.profiler is not None and self.profiler.open_stages:
                fields["open_stages"] = list(self.profiler.open_stages)
            self.registry.emit("run.aborted", **fields)
            self.registry.flush()
        except Exception:  # pragma: no cover — last-resort guard
            return False
        return True

    def _atexit_hook(self) -> None:
        self.trigger("exit-without-close")

    def _signal_hook(self, signum, frame) -> None:
        import signal as signal_mod

        try:
            name = signal_mod.Signals(signum).name.lower()
        except ValueError:  # pragma: no cover — unknown signal number
            name = str(signum)
        self.trigger(f"signal:{name}")
        raise SystemExit(128 + signum)


def install_abort_flush(registry: "MetricsRegistry", profiler=None) -> AbortFlush:
    """Install and return an armed :class:`AbortFlush` for ``registry``."""
    return AbortFlush(registry, profiler=profiler).install()


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_event(event: dict) -> None:
    """Check one event against the schema; raises :class:`MetricsError`."""
    if not isinstance(event, dict):
        raise MetricsError(f"event is not an object: {event!r}")
    for key in ("v", "seq", "kind"):
        if key not in event:
            raise MetricsError(f"event missing envelope key {key!r}: {event!r}")
    if event["v"] not in SUPPORTED_SCHEMA_VERSIONS:
        raise MetricsError(f"unsupported schema version {event['v']!r}")
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        raise MetricsError(f"seq must be a non-negative int: {event['seq']!r}")
    if not isinstance(event["kind"], str) or not event["kind"]:
        raise MetricsError(f"kind must be a non-empty string: {event['kind']!r}")
    required = EVENT_FIELDS.get(event["kind"])
    if required:
        missing = [f for f in required if f not in event]
        if missing:
            raise MetricsError(
                f"{event['kind']!r} event missing fields {missing}: {event!r}"
            )


def validate_stream(events: list) -> None:
    """Validate a full stream (possibly several appended run segments).

    Each segment must start with ``run.start`` at ``seq == 0`` and be
    seq-contiguous until the next ``run.start``.
    """
    if not events:
        raise MetricsError("empty metrics stream")
    expected = 0
    for k, event in enumerate(events):
        validate_event(event)
        if event["kind"] == "run.start":
            if event["seq"] != 0:
                raise MetricsError(f"run.start at seq {event['seq']} (line {k})")
            expected = 1
            continue
        if k == 0:
            raise MetricsError("stream does not begin with run.start")
        if event["seq"] != expected:
            raise MetricsError(
                f"seq gap at line {k}: got {event['seq']}, expected {expected}"
            )
        expected += 1


def read_jsonl(path: str) -> list:
    """Parse a JSONL metrics file into a list of event dicts."""
    events = []
    with open(path) as fh:
        for k, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise MetricsError(f"{path}:{k + 1}: invalid JSON: {exc}") from exc
    return events


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
_SUMMARY_SKIP = frozenset(("v", "seq", "kind", "t"))


@dataclass
class MetricsReport:
    """Run summary derived from an event stream.

    Aggregates per-kind event counts, numeric field trajectories
    (first / last / min / max over each series) and the final
    ``run.end`` snapshot; renders as text (:meth:`render`) or JSON
    (:meth:`as_dict`).
    """

    events: list = field(default_factory=list)

    @classmethod
    def from_jsonl(cls, path: str) -> "MetricsReport":
        """Rebuild a report offline from a JSONL metrics file."""
        return cls(events=read_jsonl(path))

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "MetricsReport":
        """Build a report from a (possibly still-open) registry."""
        events = [e for kind in registry.series.values() for e in kind]
        events.sort(key=lambda e: (e.get("segment", 0), e["seq"]))
        report = cls(events=events)
        # a live registry may not have emitted run.end yet; graft the
        # current aggregate snapshot so the report is complete
        if not any(e["kind"] == "run.end" for e in events):
            report._snapshot = registry.snapshot()
        return report

    _snapshot: dict | None = None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """Summarize the stream: kind counts, series ranges, snapshot."""
        kinds: dict = {}
        series: dict = {}
        segments = 0
        snapshot = self._snapshot
        for event in self.events:
            kind = event["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "run.start":
                segments += 1
            if kind == "run.end":
                snapshot = {
                    "counters": event.get("counters", {}),
                    "gauges": event.get("gauges", {}),
                    "histograms": event.get("histograms", {}),
                }
                continue
            summary = series.setdefault(kind, {})
            for name, value in event.items():
                if name in _SUMMARY_SKIP or isinstance(value, (str, list, dict)):
                    continue
                if isinstance(value, bool):
                    continue
                st = summary.get(name)
                if st is None:
                    summary[name] = {
                        "first": value, "last": value, "min": value, "max": value,
                    }
                else:
                    st["last"] = value
                    if value < st["min"]:
                        st["min"] = value
                    if value > st["max"]:
                        st["max"] = value
        return {
            "schema_version": SCHEMA_VERSION,
            "n_events": len(self.events),
            "segments": segments,
            "kinds": dict(sorted(kinds.items())),
            "series": {k: series[k] for k in sorted(series)},
            "snapshot": snapshot or {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def to_json(self, path: str) -> dict:
        """Write :meth:`as_dict` to ``path``; returns the payload."""
        payload = self.as_dict()
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
        return payload

    def render(self, title: str = "metrics report") -> str:
        """Human-readable multi-line summary (what the CLI prints)."""
        data = self.as_dict()
        lines = [
            title,
            f"  events: {data['n_events']}  segments: {data['segments']}",
        ]
        for kind, count in data["kinds"].items():
            lines.append(f"  {kind:<16} x{count}")
        for kind, summary in data["series"].items():
            for name, st in sorted(summary.items()):
                lines.append(
                    f"    {kind}.{name:<22} first {st['first']:.6g}"
                    f"  last {st['last']:.6g}"
                    f"  min {st['min']:.6g}  max {st['max']:.6g}"
                )
        snap = data["snapshot"]
        for name, value in snap["counters"].items():
            lines.append(f"  counter {name:<24} {value:g}")
        for name, value in snap["gauges"].items():
            lines.append(f"  gauge   {name:<24} {value:g}")
        for name, h in snap["histograms"].items():
            if h["count"]:
                lines.append(
                    f"  hist    {name:<24} n={h['count']} mean={h['mean']:.6g}"
                    f" min={h['min']:.6g} max={h['max']:.6g}"
                )
        return "\n".join(lines)
