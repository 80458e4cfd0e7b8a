"""Progress heartbeats: a process-wide hook fired at flow milestones.

Long-running flow loops call :func:`beat` at natural progress points
(one global-placement iteration, one routability round, one placer of
a bench design).  With no handler installed — the default in every
normal run — a beat is a single attribute read, cheap enough for hot
loops.

The supervised job runtime (:mod:`repro.jobs`) installs a handler in
worker processes that records liveness to a heartbeat file the
supervisor watches, so a *hung* worker (no progress) is
distinguishable from a *slow* one (still beating).

A handler may raise (the worker's writes a file), so
:func:`beat` is only called where unwinding is safe (loop boundaries,
not mid-update).  The hook lives in ``utils`` so flow components
depend on this tiny module, not on the jobs runtime.
"""

from __future__ import annotations

_HANDLER = None


def set_handler(handler) -> None:
    """Install ``handler`` as the process-wide beat hook."""
    global _HANDLER
    _HANDLER = handler


def clear_handler() -> None:
    """Remove the process-wide beat hook (beats become no-ops again)."""
    global _HANDLER
    _HANDLER = None


def active():
    """The currently installed handler, or ``None``."""
    return _HANDLER


def beat() -> None:
    """Signal one unit of progress; no-op without a handler.

    The installed handler may raise, so call sites must be
    exception-safe unwind points.
    """
    if _HANDLER is None:
        return
    _HANDLER()
