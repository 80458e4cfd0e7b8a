"""Deterministic fault injection for exercising recovery paths.

Production code is instrumented with named *fault sites*::

    from repro.utils import faults
    g = faults.fire("optim.gradient", g)

With no injector installed, :func:`fire` is a dictionary miss — cheap
enough to leave in hot paths.  Tests install an injector with one or
more :class:`FaultPlan` entries; when a plan's site matches and its
trigger count is reached the plan fires deterministically:

* ``mode="nan"`` — overwrite every ``stride``-th entry of the payload
  array with NaN (in a copy; the caller decides what to do with it);
* ``mode="inf"`` — same with ``+inf``;
* ``mode="poison"`` — multiply the payload by ``scale`` and NaN-poison
  entry 0 (degenerate congestion maps);
* ``mode="raise"`` — raise :class:`InjectedFault` at the site.

Chaos modes — the failure vocabulary of the supervised job runtime
(:mod:`repro.jobs`); these model *processes* misbehaving, not values:

* ``mode="delay"`` — sleep ``delay`` seconds, then continue (a *slow*
  worker: progress heartbeats keep flowing);
* ``mode="hang"`` — sleep ``delay`` seconds (default effectively
  forever) in the calling thread, so progress heartbeats stop (a
  *hung* worker; the supervisor reaps it at the heartbeat deadline);
* ``mode="sigkill"`` — SIGKILL the calling process (a hard worker
  death: no exception, no cleanup, no result);
* ``mode="torn"`` — truncate a ``bytes`` payload to half its length
  (a torn file write; the checkpoint writer fires the
  ``checkpoint.write`` site with the archive bytes).

Plans carried into the supervised runtime may set ``attempts=N`` so
the fault only fires on the first ``N`` job attempts — retries then
exercise the recovery path instead of dying identically forever.

Known sites
-----------
``optim.gradient``
    Gradient vector inside :class:`~repro.optim.nesterov.NesterovOptimizer`.
``rd.congestion``
    Congestion map entering a routability round.
``route.batched``
    Top of a routing pass (raise for a failed routing pass: the error
    propagates to the caller, e.g. an RD-round rollback).
``route.batched_chunk``
    One cost-refresh chunk of a routing pass (raise to force the
    bit-identical one-segment-at-a-time retry of that chunk).
``checkpoint.write``
    Serialized archive bytes inside
    :func:`~repro.utils.checkpoint.write_checkpoint` (``torn`` plans
    corrupt the file that lands on disk).
``checkpoint.read``
    Top of :func:`~repro.utils.checkpoint.
    read_checkpoint_with_fallback` (``delay`` plans hold a resuming
    job inside the read so cancel-during-resume is testable).
``bench.design.<name>``
    Fired by a sweep worker before running design ``<name>``.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: Sleep ceiling of ``mode="hang"`` plans with no explicit ``delay`` —
#: long enough to be "forever" for any supervisor deadline, short
#: enough that an unsupervised test cannot wedge CI for a day.
HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """Raised by ``mode="raise"`` plans; carries the site name."""

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at site {site!r}")
        self.site = site


@dataclass
class FaultPlan:
    """One deterministic fault: where, when, and what to corrupt.

    Attributes
    ----------
    site:
        Fault-site name the plan matches.
    mode:
        ``"nan" | "inf" | "poison" | "raise"`` (value faults) or
        ``"delay" | "hang" | "sigkill" | "torn"`` (chaos faults).
    trigger:
        0-based invocation index of the site at which the plan starts
        firing (e.g. ``trigger=2`` corrupts the third gradient).
    count:
        Number of consecutive firings (``-1`` = every call from
        ``trigger`` on).
    stride:
        For ``nan``/``inf``: corrupt every ``stride``-th entry.
    scale:
        For ``poison``: multiplier applied to the payload.
    delay:
        Seconds slept by ``delay``/``hang`` plans (``hang`` defaults
        to :data:`HANG_SECONDS` when left at 0).
    attempts:
        Supervised-runtime filter: when ``>= 0``, the plan is only
        installed for job attempt indices ``< attempts`` (so
        ``attempts=1`` faults the first attempt and lets the retry
        succeed).  ``-1`` (default) fires on every attempt.
    """

    site: str
    mode: str = "nan"
    trigger: int = 0
    count: int = 1
    stride: int = 7
    scale: float = 1e30
    delay: float = 0.0
    attempts: int = -1

    def __post_init__(self) -> None:
        if self.mode not in (
            "nan", "inf", "poison", "raise", "delay", "hang", "sigkill", "torn"
        ):
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def active_on_attempt(self, attempt: int) -> bool:
        """True when the plan applies to job attempt index ``attempt``."""
        return self.attempts < 0 or attempt < self.attempts

    def active_at(self, hit: int) -> bool:
        """True when the ``hit``-th invocation falls in the trigger window."""
        if hit < self.trigger:
            return False
        return self.count < 0 or hit < self.trigger + self.count


@dataclass
class FaultInjector:
    """Holds active plans and per-site hit counters."""

    plans: list = field(default_factory=list)
    hits: dict = field(default_factory=dict)
    fired: list = field(default_factory=list)

    def add(self, plan: FaultPlan) -> "FaultInjector":
        """Register a plan; returns ``self`` for chaining."""
        self.plans.append(plan)
        return self

    def fire(self, site: str, value=None):
        """Count a hit at ``site``; corrupt/raise when a plan is active."""
        hit = self.hits.get(site, 0)
        self.hits[site] = hit + 1
        for plan in self.plans:
            if plan.site != site or not plan.active_at(hit):
                continue
            self.fired.append((site, hit, plan.mode))
            if plan.mode == "raise":
                raise InjectedFault(site)
            if plan.mode == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            if plan.mode in ("delay", "hang"):
                seconds = plan.delay
                if plan.mode == "hang" and seconds <= 0:
                    seconds = HANG_SECONDS
                time.sleep(seconds)
                continue
            if plan.mode == "torn":
                if isinstance(value, (bytes, bytearray)) and len(value) > 1:
                    value = bytes(value[: len(value) // 2])
                continue
            if value is None:
                continue
            out = np.array(value, dtype=np.float64, copy=True)
            flat = out.reshape(-1)
            if plan.mode == "nan":
                flat[:: plan.stride] = np.nan
            elif plan.mode == "inf":
                flat[:: plan.stride] = np.inf
            elif plan.mode == "poison":
                flat *= plan.scale
                if flat.size:
                    flat[0] = np.nan
            value = out
        return value

    def count_fired(self, site: str) -> int:
        """How many times a plan actually fired at ``site``."""
        return sum(1 for s, _, _ in self.fired if s == site)


_ACTIVE: FaultInjector | None = None


def install(injector: FaultInjector) -> FaultInjector:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    """Remove the process-wide injector (sites become identities again)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    """The currently installed injector, or ``None``."""
    return _ACTIVE


def fire(site: str, value=None):
    """Fault hook: returns ``value`` (possibly corrupted) or raises.

    No-op (identity) when no injector is installed.
    """
    if _ACTIVE is None:
        return value
    return _ACTIVE.fire(site, value)


def plans_for_attempt(plans, attempt: int) -> tuple:
    """Filter fault plans down to those active on job ``attempt``.

    Used by the supervised job runtime so ``attempts``-limited plans
    stop firing on retries (see :class:`FaultPlan`).
    """
    return tuple(p for p in plans if p.active_on_attempt(attempt))


@contextmanager
def injected(*plans: FaultPlan):
    """Context manager installing ``plans`` for the enclosed block."""
    injector = FaultInjector()
    for plan in plans:
        injector.add(plan)
    install(injector)
    try:
        yield injector
    finally:
        uninstall()
