"""Numerical sentinels for the placement flow.

The routability loop iterates router -> MCI -> DPA -> Nesterov on a
non-convex, non-monotone objective; a single NaN in the WA or
electrostatic gradient, a secant step-size blow-up, or a degenerate
congestion map can silently corrupt every position downstream.  This
module centralizes the detection and the (cheap) recovery primitives:

* :func:`all_finite` / :func:`scrub_nonfinite` — NaN/Inf detection and
  repair of numeric arrays;
* :class:`DivergenceSentinel` — rolling-baseline watchdog over a scalar
  trajectory (HPWL, overflow); trips when the metric blows up relative
  to the best recently-seen value;
* the thresholds: :data:`BLOWUP_FACTOR`, :data:`WINDOW`, :data:`WARMUP`
  and :data:`MAX_BACKOFFS` (the step backoff factor is
  :data:`repro.optim.nesterov.BACKOFF_FACTOR`).

Trips are recorded once, by the guarded component: ``gp.guard`` and
``rd.recovery`` telemetry events, counted in
``RoundRecord.guard_trips`` and ``RDResult.n_guard_events``.

The guarded components (:class:`~repro.optim.nesterov.NesterovOptimizer`,
:class:`~repro.place.global_placer.GlobalPlacer`,
:class:`~repro.core.rd_placer.RoutabilityDrivenPlacer`) share the
policy: *detect, back off, restart from the last good state* — never
abort the flow, never return non-finite positions.
"""

from __future__ import annotations

import numpy as np


class NumericalFault(RuntimeError):
    """A non-recoverable numerical corruption (all backoffs exhausted)."""


#: A metric observation above ``BLOWUP_FACTOR x`` the rolling baseline
#: counts as divergence.
BLOWUP_FACTOR = 10.0
#: Number of recent observations forming the rolling baseline (their
#: minimum is the reference).
WINDOW = 8
#: Observations to collect before the sentinel can trip (the first
#: iterations after a restart legitimately move a lot).
WARMUP = 3
#: Consecutive step-backoff attempts before a guard gives up and
#: scrubs/restores instead.
MAX_BACKOFFS = 4


def all_finite(arr: np.ndarray) -> bool:
    """True when every entry of ``arr`` is finite (empty arrays pass)."""
    a = np.asarray(arr)
    if a.size == 0:
        return True
    return bool(np.isfinite(a).all())


def scrub_nonfinite(arr: np.ndarray, fill: float = 0.0) -> tuple:
    """Replace NaN/Inf entries by ``fill`` in place; returns (arr, n_bad).

    The array is returned unchanged (and untouched) when already clean,
    so the healthy path costs one vectorized check and no copy.
    """
    a = np.asarray(arr)
    bad = ~np.isfinite(a)
    n_bad = int(bad.sum())
    if n_bad:
        a[bad] = fill
    return a, n_bad


class DivergenceSentinel:
    """Rolling-baseline watchdog over a scalar metric trajectory.

    ``observe(value)`` returns a verdict string:

    * ``"ok"`` — finite and within ``BLOWUP_FACTOR x`` the baseline;
    * ``"nonfinite"`` — NaN/Inf observation;
    * ``"diverging"`` — blow-up relative to the rolling minimum of the
      last ``WINDOW`` healthy observations (only after ``WARMUP``
      healthy points, so restarts are not punished for moving).

    Unhealthy observations never enter the baseline, so one excursion
    cannot raise the bar for detecting the next one.
    """

    def __init__(self) -> None:
        self._recent: list = []
        self.trips = 0

    @property
    def baseline(self) -> float:
        """Rolling minimum over the recent healthy observations."""
        return min(self._recent) if self._recent else np.inf

    def observe(self, value: float) -> str:
        """Classify one observation: ``ok``, ``nonfinite`` or ``diverging``."""
        v = float(value)
        if not np.isfinite(v):
            self.trips += 1
            return "nonfinite"
        if len(self._recent) >= WARMUP and v > BLOWUP_FACTOR * max(
            self.baseline, 1e-300
        ):
            self.trips += 1
            return "diverging"
        self._recent.append(v)
        if len(self._recent) > WINDOW:
            self._recent.pop(0)
        return "ok"

    def reset(self) -> None:
        """Forget the baseline (after a rollback the landscape moved)."""
        self._recent.clear()
