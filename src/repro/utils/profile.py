"""Named per-stage wall-clock profiling.

A :class:`StageProfiler` accumulates time, call and error counts under
hierarchical dot-scoped stage names (``"route.initial"``,
``"gp.poisson"``).  It records stage wall time and nothing else: what
a stage *did* (segments routed, rounds run, guard trips) belongs to
the event stream of :mod:`repro.utils.metrics` and to the flows'
result dataclasses.  Flow components
(:class:`~repro.route.router.GlobalRouter`,
:class:`~repro.place.global_placer.GlobalPlacer`,
:class:`~repro.core.rd_placer.RoutabilityDrivenPlacer`) accept a
shared profiler so one object collects the whole per-stage breakdown
of a run; the CLI prints it and the bench harness serialises it into
``BENCH_*.json`` files.

Nested timers are allowed and simply overlap: ``rd.nesterov`` includes
the ``gp.*`` stages recorded inside the solver loop.  The report
groups by prefix, so inclusive parents read naturally above their
children.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.utils.clock import Clock, SystemClock


@dataclass
class StageStats:
    """Accumulated wall time, invocation count and error count of one stage."""

    time: float = 0.0
    calls: int = 0
    errors: int = 0


@dataclass
class StageProfiler:
    """Accumulating per-stage wall-clock profiler.

    Example
    -------
    >>> prof = StageProfiler()
    >>> with prof.timer("route.initial"):
    ...     pass
    >>> prof.stages["route.initial"].calls
    1
    """

    stages: dict = field(default_factory=dict)
    open_stages: list = field(default_factory=list)
    # injectable clock so tests assert on deterministic fake time
    # instead of sleeping
    clock: Clock = field(default_factory=SystemClock, repr=False)

    # ------------------------------------------------------------------
    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating elapsed wall time under ``name``.

        Exception-safe: when the timed block raises, the elapsed time
        is still recorded (the partial breakdown survives a crashed
        flow), the stage's ``errors`` counter is bumped, and the
        exception propagates unchanged.  ``open_stages`` always
        reflects the stack of currently-running timers, so a report
        taken from an exception handler names the stage that failed.
        """
        t0 = self.clock.now()
        self.open_stages.append(name)
        try:
            yield self
        except BaseException:
            self.stages.setdefault(name, StageStats()).errors += 1
            raise
        finally:
            self.add_time(name, self.clock.now() - t0)
            # a raising inner timer may leave deeper entries; drop
            # everything from this stage's (innermost) frame down so
            # the stack stays sane
            if name in self.open_stages:
                last = len(self.open_stages) - 1 - self.open_stages[::-1].index(name)
                del self.open_stages[last:]

    def add_time(self, name: str, dt: float) -> None:
        """Accumulate one call of ``dt`` seconds on a stage."""
        st = self.stages.setdefault(name, StageStats())
        st.time += dt
        st.calls += 1

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-ready snapshot: ``{"stages": {name: {time_s, calls, errors}}}``."""
        return {
            "stages": {
                name: {"time_s": st.time, "calls": st.calls, "errors": st.errors}
                for name, st in sorted(self.stages.items())
            },
        }

    # ------------------------------------------------------------------
    def report(self, title: str = "stage profile") -> str:
        """Human-readable table, stages sorted by time descending."""
        lines = [title]
        if self.stages:
            width = max(len(name) for name in self.stages)
            order = sorted(
                self.stages.items(), key=lambda kv: kv[1].time, reverse=True
            )
            for name, st in order:
                err = f"  !{st.errors}" if st.errors else ""
                lines.append(
                    f"  {name:<{width}}  {st.time:10.4f}s  x{st.calls}{err}"
                )
        else:
            lines.append("  (no stages recorded)")
        return "\n".join(lines)
