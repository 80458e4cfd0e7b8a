"""Injectable monotonic clock of the stage profiler.

:class:`~repro.utils.profile.StageProfiler` reads time through a
:class:`Clock` object instead of calling ``time.perf_counter()``
directly, so tests can drive a :class:`FakeClock` deterministically
instead of sleeping and asserting on real wall time.  Flow-level
PT/RT columns are plain ``time.perf_counter()`` differences.
"""

from __future__ import annotations

import time


class Clock:
    """Monotonic clock interface: ``now()`` returns seconds."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError


class SystemClock(Clock):
    """Real wall clock backed by ``time.perf_counter``."""

    __slots__ = ()

    def now(self) -> float:
        """Monotonic wall-clock via ``time.perf_counter``."""
        return time.perf_counter()


class FakeClock(Clock):
    """Manually-advanced clock for tests.

    Example
    -------
    >>> clock = FakeClock()
    >>> clock.advance(1.5)
    1.5
    >>> clock.now()
    1.5
    """

    __slots__ = ("_t",)

    def __init__(self, start: float = 0.0) -> None:
        self._t = float(start)

    def now(self) -> float:
        """The manually controlled current time."""
        return self._t

    def advance(self, dt: float) -> float:
        """Move the fake time forward by ``dt`` seconds; returns it."""
        if dt < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self._t += dt
        return self._t
