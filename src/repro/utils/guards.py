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
* :class:`GuardConfig` — the tuning knobs.

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

from dataclasses import dataclass

import numpy as np


class NumericalFault(RuntimeError):
    """A non-recoverable numerical corruption (all backoffs exhausted)."""


@dataclass
class GuardConfig:
    """Thresholds of the divergence/NaN guards.

    Attributes
    ----------
    enabled:
        Master switch; disabled guards never mutate solver state.
    blowup_factor:
        A metric observation above ``blowup_factor x`` the rolling
        baseline counts as divergence.
    window:
        Number of recent observations forming the rolling baseline
        (their minimum is the reference).
    warmup:
        Observations to collect before the sentinel can trip (the
        first iterations after a restart legitimately move a lot).
    max_backoffs:
        Consecutive step-backoff attempts before the guard gives up
        and scrubs/restores instead.
    backoff_factor:
        Multiplier applied to the step length on every backoff.
    """

    enabled: bool = True
    blowup_factor: float = 10.0
    window: int = 8
    warmup: int = 3
    max_backoffs: int = 4
    backoff_factor: float = 0.25

    def __post_init__(self) -> None:
        if self.blowup_factor <= 1.0:
            raise ValueError("blowup_factor must exceed 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_backoffs < 1:
            raise ValueError("max_backoffs must be >= 1")
        if not 0.0 < self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be in (0, 1)")


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

    * ``"ok"`` — finite and within ``blowup_factor x`` the baseline;
    * ``"nonfinite"`` — NaN/Inf observation;
    * ``"diverging"`` — blow-up relative to the rolling minimum of the
      last ``window`` healthy observations (only after ``warmup``
      healthy points, so restarts are not punished for moving).

    Unhealthy observations never enter the baseline, so one excursion
    cannot raise the bar for detecting the next one.
    """

    def __init__(self, config: GuardConfig | None = None) -> None:
        self.config = config or GuardConfig()
        self._recent: list = []
        self.trips = 0

    @property
    def baseline(self) -> float:
        """Rolling minimum over the recent healthy observations."""
        return min(self._recent) if self._recent else np.inf

    def observe(self, value: float) -> str:
        """Classify one observation: ``ok``, ``nonfinite`` or ``diverging``."""
        cfg = self.config
        v = float(value)
        if not np.isfinite(v):
            self.trips += 1
            return "nonfinite"
        if (
            cfg.enabled
            and len(self._recent) >= cfg.warmup
            and v > cfg.blowup_factor * max(self.baseline, 1e-300)
        ):
            self.trips += 1
            return "diverging"
        self._recent.append(v)
        if len(self._recent) > cfg.window:
            self._recent.pop(0)
        return "ok"

    def reset(self) -> None:
        """Forget the baseline (after a rollback the landscape moved)."""
        self._recent.clear()
