"""Nesterov's accelerated gradient method with Lipschitz step estimation.

This is the solver ePlace [15] proposes for analytical placement and the
one the paper plugs its routability-augmented objective into (Fig. 2,
"Nesterov solver").  Implementation follows the ePlace/DREAMPlace
scheme:

* iterate on a *reference* point ``v`` (lookahead) and a *major* point
  ``u``;
* the inverse Lipschitz constant is estimated from successive reference
  gradients, ``alpha = ||v_k - v_{k-1}|| / ||g_k - g_{k-1}||`` (a
  Barzilai-Borwein-flavoured secant estimate), clamped for safety;
* the momentum coefficient follows the classic
  ``a_{k+1} = (1 + sqrt(4 a_k^2 + 1)) / 2`` recursion.

The optimizer is objective-agnostic: it receives a gradient callback
over a flat parameter vector, so the placer composes wirelength,
density and congestion gradients outside.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils import faults
from repro.utils.guards import (
    GuardConfig,
    NumericalFault,
    all_finite,
    scrub_nonfinite,
)


class NesterovOptimizer:
    """Accelerated gradient descent over a flat parameter vector."""

    def __init__(
        self,
        x0: np.ndarray,
        grad_fn: Callable[[np.ndarray], np.ndarray],
        initial_step: float = 1.0,
        max_step: float | None = None,
        min_step: float = 1e-12,
        max_move: float | None = None,
        guard: GuardConfig | None = None,
        on_guard: Callable[[str, str, str], None] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        x0:
            Initial parameter vector (copied).
        grad_fn:
            Callback returning the gradient at a parameter vector.
        initial_step:
            Step length for the very first iteration, before a secant
            estimate exists.  In placement this is typically set so the
            first move is a fraction of a bin.
        max_step / min_step:
            Clamp range for the secant step estimate.
        max_move:
            Trust region: cap on the infinity-norm displacement of any
            coordinate in one step.  Prevents the secant estimate from
            exploding when successive gradients become nearly equal
            (e.g. when cells pile against the die boundary).
        guard:
            NaN/Inf sentinel policy.  A non-finite gradient triggers a
            solver restart (momentum cleared, reference point pulled
            back to the major point) with a shrunken step, retried up
            to ``guard.max_backoffs`` times; a gradient that stays
            corrupted afterwards has its bad entries scrubbed to zero
            so the trajectory continues on the healthy coordinates.
            Checks are read-only on the healthy path.
        on_guard:
            Called as ``on_guard(kind, detail, action)`` on every
            backoff and scrub, so the owning placer can record the
            trip.
        """
        self.u = np.array(x0, dtype=np.float64, copy=True)
        self.v = self.u.copy()
        self.grad_fn = grad_fn
        self.a = 1.0
        self.step = float(initial_step)
        self.max_step = max_step
        self.min_step = min_step
        self.max_move = max_move
        self.guard = guard or GuardConfig()
        self.on_guard = on_guard or (lambda kind, detail, action: None)
        self._prev_v: np.ndarray | None = None
        self._prev_g: np.ndarray | None = None
        self.iteration = 0

    def _estimate_step(self, g: np.ndarray) -> float:
        if self._prev_v is None or self._prev_g is None:
            return self.step
        dv = self.v - self._prev_v
        dg = g - self._prev_g
        dg_norm = float(np.linalg.norm(dg))
        if dg_norm <= 1e-30:
            return self.step
        est = float(np.linalg.norm(dv)) / dg_norm
        if est <= 0.0 or not np.isfinite(est):
            return self.step
        est = max(est, self.min_step)
        if self.max_step is not None:
            est = min(est, self.max_step)
        return est

    def _backoff(self) -> None:
        """Solver restart with a shrunken step (guard trip response)."""
        self.a = 1.0
        self.v = self.u.copy()
        self._prev_v = None
        self._prev_g = None
        self.step = max(self.step * self.guard.backoff_factor, self.min_step)

    def _eval_gradient(self) -> np.ndarray:
        """Gradient at ``v`` with the NaN/Inf sentinel applied.

        Non-finite entries (or an arithmetic error inside the
        callback) trigger backoff-and-retry; a gradient that is still
        corrupted after ``max_backoffs`` attempts is scrubbed so the
        healthy coordinates keep descending.
        """
        guard = self.guard
        attempts = guard.max_backoffs if guard.enabled else 0
        g: np.ndarray | None = None
        error: str = ""
        for attempt in range(attempts + 1):
            if attempt:
                self.on_guard("nonfinite", error, "backoff")
                self._backoff()
            try:
                g = faults.fire("optim.gradient", self.grad_fn(self.v))
            except (ArithmeticError, faults.InjectedFault) as exc:
                g = None
                error = f"gradient raised {type(exc).__name__}: {exc}"
                continue
            if all_finite(g):
                return g
            error = f"{int((~np.isfinite(g)).sum())} non-finite gradient entries"
            if not guard.enabled:
                return g
        if g is None:
            raise NumericalFault(
                f"gradient callback failed {attempts + 1} times: {error}"
            )
        _, n_bad = scrub_nonfinite(g)
        self.on_guard(
            "nonfinite", f"scrubbed {n_bad} entries after {attempts} backoffs", "scrub"
        )
        return g

    def do_step(self) -> dict:
        """One Nesterov iteration; returns diagnostics.

        The new major point is ``u_new = v - step * g(v)``; the next
        reference extrapolates along the momentum direction.
        """
        g = self._eval_gradient()
        self.step = self._estimate_step(g)
        if self.max_move is not None:
            g_inf = float(np.abs(g).max()) if len(g) else 0.0
            if g_inf > 0.0:
                self.step = min(self.step, self.max_move / g_inf)

        u_new = self.v - self.step * g
        a_new = (1.0 + np.sqrt(4.0 * self.a * self.a + 1.0)) / 2.0
        coef = (self.a - 1.0) / a_new
        v_new = u_new + coef * (u_new - self.u)

        self._prev_v = self.v
        self._prev_g = g
        self.u = u_new
        self.v = v_new
        self.a = a_new
        self.iteration += 1
        return {
            "iteration": self.iteration,
            "step": self.step,
            "grad_norm": float(np.linalg.norm(g)),
        }

    def reset_momentum(self) -> None:
        """Restart acceleration (used when the objective changes shape,

        e.g. after a cell-inflation or congestion-map update the
        landscape shifts and stale momentum can overshoot).
        """
        self.a = 1.0
        self.v = self.u.copy()
        self._prev_v = None
        self._prev_g = None
