"""Wirelength-driven electrostatic global placer (Xplace/ePlace stand-in).

Solves Eq. (2) of the paper::

    min_{x,y}  sum_e WA_e(x, y) + lambda_1 * D(x, y)

with the WA wirelength model, the FFT-based electrostatic density
penalty and Nesterov's solver.  Three extension hooks let the
routability-driven placer of :mod:`repro.core.rd_placer` turn this into
the full Eq. (5) engine without duplicating the machinery:

* ``size_scale`` — per-cell multiplicative inflation of the footprint
  used in the *density* system only (momentum-based cell inflation);
* ``extra_static_charge`` — an additional charge map added to the
  density (dynamic PG-rail density of Eq. 14);
* ``extra_grad_fn`` — a callback returning an additional per-cell
  gradient, already weighted (the lambda_2-scaled congestion gradient
  of Alg. 2).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.density.electrostatic import ElectrostaticSystem, FieldSolution
from repro.netlist.netlist import Netlist
from repro.optim.nesterov import NesterovOptimizer
from repro.place.config import GPConfig, placement_grid
from repro.place.initial import scatter_fillers
from repro.utils.contracts import CONTRACTS
from repro.utils.guards import (
    MAX_BACKOFFS,
    DivergenceSentinel,
    NumericalFault,
    scrub_nonfinite,
)
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.wirelength.hpwl import hpwl
from repro.wirelength.wa import WAWirelength

logger = get_logger("place.global_placer")

#: Convergence threshold on the density overflow ratio.
STOP_OVERFLOW = 0.07
#: Upper clamp on the density-to-wirelength force ratio used by the
#: per-iteration force balancing.
DENSITY_FORCE_CAP = 100.0
#: First-step displacement target, as a fraction of a bin.
INITIAL_MOVE_FRACTION = 0.1


@dataclass
class PlacementHistory:
    """Per-iteration metric trace of one placement run."""

    records: list = field(default_factory=list)

    def append(self, **kwargs) -> None:
        """Record one iteration's metrics."""
        self.records.append(dict(kwargs))

    def series(self, key: str) -> list:
        """Trajectory of one recorded metric across iterations."""
        return [r[key] for r in self.records]

    @property
    def final(self) -> dict:
        """The last record (empty dict before the first iteration)."""
        return self.records[-1] if self.records else {}

    def __len__(self) -> int:
        return len(self.records)


class GlobalPlacer:
    """Electrostatic analytical placer over a :class:`Netlist`.

    Mutates ``netlist.x`` / ``netlist.y`` in place; :meth:`run` returns
    the metric history.
    """

    # reference relative HPWL growth per iteration for the mu feedback
    _MU_REF_DELTA = 2e-3

    def __init__(
        self,
        netlist: Netlist,
        config: GPConfig | None = None,
        profiler: StageProfiler | None = None,
        metrics=None,
    ) -> None:
        self.netlist = netlist
        self.config = config or GPConfig()
        self.profiler = profiler or StageProfiler()
        self.metrics = metrics if metrics is not None else NULL
        cfg = self.config

        self.grid = placement_grid(netlist)

        mv = netlist.movable
        self.mv_ids = np.flatnonzero(mv)
        self.n_mv = len(self.mv_ids)

        fixed_ids = np.flatnonzero(~mv)
        if len(fixed_ids):
            self.fixed_charge = ElectrostaticSystem.static_charge_from(
                self.grid,
                netlist.x[fixed_ids],
                netlist.y[fixed_ids],
                netlist.cell_width[fixed_ids],
                netlist.cell_height[fixed_ids],
            )
        else:
            self.fixed_charge = self.grid.zeros()

        fx, fy, fw, fh = scatter_fillers(netlist, cfg.target_density, cfg.seed)
        self.filler_x, self.filler_y = fx.copy(), fy.copy()
        self.filler_w, self.filler_h = fw, fh
        self.n_fill = len(fx)

        self.system = ElectrostaticSystem(
            self.grid, cfg.target_density, static_charge=self.fixed_charge
        )
        self._lower, self._upper = self._entry_bounds()
        base_unit = 0.5 * (self.grid.dx + self.grid.dy)
        self.wa = WAWirelength(base_unit=base_unit)

        # extension hooks (see module docstring); size_scale and
        # extra_static_charge are rebound, not edited in place
        self.size_scale = np.ones(netlist.n_cells, dtype=np.float64)
        self.extra_static_charge: np.ndarray | None = None
        self._density_cache: tuple | None = None
        self.extra_grad_fn: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None

        self.density_weight = 0.0  # lambda_1, initialised on first gradient
        self._prev_hpwl: float | None = None
        self.last_solution: FieldSolution | None = None
        self.last_wl_grad_l1 = 0.0
        self.history = PlacementHistory()
        self._optimizer = None

        # divergence guard: rolling HPWL watchdog plus the last known
        # healthy parameter vector the loop can roll back to; trips of
        # both this loop and the optimizer are counted by _note_guard
        self.n_guard_trips = 0
        self._sentinel = DivergenceSentinel()
        self._last_good: np.ndarray | None = None

    # ------------------------------------------------------------------
    # parameter vector: [x_cells, x_fill, y_cells, y_fill]
    # ------------------------------------------------------------------
    def _pack(self) -> np.ndarray:
        nl = self.netlist
        return np.concatenate(
            [
                nl.x[self.mv_ids],
                self.filler_x,
                nl.y[self.mv_ids],
                self.filler_y,
            ]
        )

    def _entry_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-entry ``(lower, upper)`` center bounds keeping rectangles on the die.

        The cells' bounds are :meth:`Netlist.clamp_to_die`'s, the
        fillers' their own half sizes in from the die edges.
        """
        nl = self.netlist
        die = nl.die
        half_w = nl.cell_width[self.mv_ids] * 0.5
        half_h = nl.cell_height[self.mv_ids] * 0.5
        lo_x = die.xlo + half_w
        lo_y = die.ylo + half_h
        lower = np.concatenate([
            lo_x, die.xlo + self.filler_w / 2, lo_y, die.ylo + self.filler_h / 2,
        ])
        upper = np.concatenate([
            np.maximum(die.xhi - half_w, lo_x),
            die.xhi - self.filler_w / 2,
            np.maximum(die.yhi - half_h, lo_y),
            die.yhi - self.filler_h / 2,
        ])
        return lower, upper

    def _load(self, pos: np.ndarray) -> None:
        """Set the cells (in the netlist) and the fillers to ``pos``."""
        n, m = self.n_mv, self.n_fill
        nl = self.netlist
        nl.x[self.mv_ids] = pos[:n]
        self.filler_x = pos[n : n + m]
        nl.y[self.mv_ids] = pos[n + m : 2 * n + m]
        self.filler_y = pos[2 * n + m :]

    def _project(self) -> None:
        """Clip both optimizer points to the entry bounds, in place; load ``u``.

        Without projecting the reference point ``v``, the momentum
        extrapolation diverges when cells press against the boundary.
        """
        opt = self._optimizer
        np.clip(opt.v, self._lower, self._upper, out=opt.v)
        np.clip(opt.u, self._lower, self._upper, out=opt.u)
        self._load(opt.u)

    # ------------------------------------------------------------------
    # objective pieces
    # ------------------------------------------------------------------
    def _filler_compensation(self, inflated_area: float) -> float:
        """Shrink factor for filler dimensions.

        Inflation and extra static charge (PG density) add charge the
        die was not budgeted for; without compensation the total charge
        exceeds the target capacity and the overflow can never resolve.
        Fillers give that budget back: their total area is reduced by
        the surplus (standard practice when placers inflate cells).
        """
        base_filler_area = float((self.filler_w * self.filler_h).sum())
        if base_filler_area <= 0.0:
            return 1.0
        base_movable = float(
            (
                self.netlist.cell_width[self.mv_ids]
                * self.netlist.cell_height[self.mv_ids]
            ).sum()
        )
        surplus = inflated_area - base_movable
        if self.extra_static_charge is not None:
            surplus += float(self.extra_static_charge.sum())
        remaining = max(base_filler_area - max(surplus, 0.0), 0.0)
        return float(np.sqrt(remaining / base_filler_area))

    def _density_inputs(self) -> tuple:
        """``(width, height, static charge)`` of the density system.

        Width and height cover the cells (inflated by ``size_scale``)
        then the fillers (shrunk by :meth:`_filler_compensation`).
        They are built once per binding of ``size_scale`` and
        ``extra_static_charge`` and rebuilt when either is rebound, as
        every RD round does; arrays edited in place are not seen.
        """
        scale, extra = self.size_scale, self.extra_static_charge
        cache = self._density_cache
        if cache is None or cache[0] is not scale or cache[1] is not extra:
            nl = self.netlist
            ids = self.mv_ids
            w = nl.cell_width[ids] * scale[ids]
            h = nl.cell_height[ids] * scale[ids]
            shrink = self._filler_compensation(float((w * h).sum()))
            w = np.concatenate([w, self.filler_w * shrink])
            h = np.concatenate([h, self.filler_h * shrink])
            static = self.fixed_charge if extra is None else self.fixed_charge + extra
            cache = self._density_cache = (scale, extra, w, h, static)
        return cache[2:]

    def solve_density(self) -> FieldSolution:
        """One electrostatic solve at the current positions."""
        w, h, static = self._density_inputs()
        self.system.static_charge = static
        with self.profiler.timer("gp.poisson"):
            nl = self.netlist
            x = np.concatenate([nl.x[self.mv_ids], self.filler_x])
            y = np.concatenate([nl.y[self.mv_ids], self.filler_y])
            sol = self.system.solve(x, y, w, h)
        self.last_solution = sol
        return sol

    def _gradient(self, pos: np.ndarray) -> np.ndarray:
        self._load(np.clip(pos, self._lower, self._upper))
        nl = self.netlist
        n, m = self.n_mv, self.n_fill

        with self.profiler.timer("gp.wirelength"):
            _, wl_gx, wl_gy = self.wa(nl)
        self.last_wl_grad_l1 = float(
            np.abs(wl_gx[self.mv_ids]).sum() + np.abs(wl_gy[self.mv_ids]).sum()
        )
        sol = self.solve_density()

        d_l1 = float(np.abs(sol.grad_x).sum() + np.abs(sol.grad_y).sum())
        if self.density_weight == 0.0:
            # ePlace initialisation: equal L1 force norms
            self.density_weight = self.last_wl_grad_l1 / max(d_l1, 1e-12)
        else:
            # never let the density force exceed cap x the wirelength
            # force (numerical guard; the mu feedback in run() is the
            # real controller)
            ratio_unit = self.last_wl_grad_l1 / max(d_l1, 1e-12)
            cap = DENSITY_FORCE_CAP * ratio_unit
            self.density_weight = min(self.density_weight, cap)
            # ...and never let it collapse while the placement is far
            # from legal: repeated mu-shrinks can trap the trajectory
            # in a clump/spread limit cycle where cells pile up 10x
            # over capacity yet the wirelength term dominates forever
            if sol.overflow > 0.4:
                self.density_weight = max(self.density_weight, ratio_unit)
        if CONTRACTS.enabled:
            CONTRACTS.check_finite_scalar(
                "global_placer.gradient",
                "density_weight",
                self.density_weight,
                nonneg=True,
            )

        gx = np.zeros(n + m)
        gy = np.zeros(n + m)
        gx += self.density_weight * sol.grad_x
        gy += self.density_weight * sol.grad_y
        gx[:n] += wl_gx[self.mv_ids]
        gy[:n] += wl_gy[self.mv_ids]

        if self.extra_grad_fn is not None:
            with self.profiler.timer("gp.congestion_grad"):
                cgx, cgy = self.extra_grad_fn()
            gx[:n] += cgx[self.mv_ids]
            gy[:n] += cgy[self.mv_ids]

        return np.concatenate([gx, gy])

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _make_optimizer(self) -> None:
        pos0 = self._pack()
        g0 = self._gradient(pos0)
        gmax = float(np.abs(g0).max())
        bin_unit = 0.5 * (self.grid.dx + self.grid.dy)
        step0 = INITIAL_MOVE_FRACTION * bin_unit / max(gmax, 1e-12)
        # the optimizer calls back through a weak reference: a bound
        # method would make placer and optimizer a reference cycle that
        # keeps a dropped placer alive until the cyclic collector runs
        placer = weakref.proxy(self)
        self._optimizer = NesterovOptimizer(
            pos0,
            lambda pos: placer._gradient(pos),
            initial_step=step0,
            max_move=1.0 * bin_unit,
            on_guard=lambda *trip: placer._note_guard(*trip),
        )

    def prepare(self) -> None:
        """Build the optimizer at the current positions (once)."""
        if self._optimizer is None:
            self._make_optimizer()

    def reset_solver(self) -> None:
        """Restart after the objective landscape changed.

        Clears Nesterov momentum and re-initialises the density weight
        at the current point (inflation, PG charge or congestion
        gradients shift the force balance, so the old lambda_1 and the
        old momentum direction are both stale).
        """
        if self._optimizer is not None:
            self._optimizer.reset_momentum()
        self.density_weight = 0.0
        self._prev_hpwl = None
        self._sentinel.reset()

    def run(self, max_iters: int | None = None, min_iters: int = 10) -> PlacementHistory:
        """Iterate until the overflow target or the iteration cap.

        Can be called repeatedly (e.g. once per routability round);
        state persists across calls.
        """
        cfg = self.config
        self.prepare()
        iters = max_iters if max_iters is not None else cfg.max_iters

        consecutive_trips = 0
        for it in range(iters):
            # inclusive of gp.wirelength / gp.poisson / gp.congestion_grad
            try:
                with self.profiler.timer("gp.step"):
                    info = self._optimizer.do_step()
            except NumericalFault as exc:
                consecutive_trips += 1
                self._recover_from_trip("exception", str(exc))
                if consecutive_trips > MAX_BACKOFFS:
                    break
                continue
            self._project()
            sol = self.last_solution
            overflow = sol.overflow if sol is not None else 1.0
            cur_hpwl = hpwl(self.netlist)
            verdict = self._sentinel.observe(cur_hpwl)
            if verdict != "ok":
                consecutive_trips += 1
                self._recover_from_trip(
                    verdict,
                    f"hpwl={cur_hpwl:.4e} vs baseline "
                    f"{self._sentinel.baseline:.4e}",
                )
                if consecutive_trips > MAX_BACKOFFS:
                    break
                continue
            consecutive_trips = 0
            self._last_good = self._optimizer.u.copy()
            self.wa.update_gamma(overflow)
            self._update_mu(cur_hpwl)
            self.history.append(
                hpwl=cur_hpwl,
                overflow=overflow,
                step=info["step"],
                grad_norm=info["grad_norm"],
                density_weight=self.density_weight,
            )
            # disabled telemetry must stay off the hot path: one
            # attribute read, no dict building
            if self.metrics.enabled:
                self.metrics.emit(
                    "gp.iter",
                    iter=len(self.history),
                    hpwl=cur_hpwl,
                    overflow=overflow,
                    density_weight=self.density_weight,
                    step=info["step"],
                    grad_norm=info["grad_norm"],
                    gamma=self.wa.gamma,
                )
            if it >= min_iters and overflow <= STOP_OVERFLOW:
                break
        self._load(np.clip(self._optimizer.u, self._lower, self._upper))
        return self.history

    def run_bursts(self, n_bursts: int, burst_iters: int = 50) -> None:
        """Short rebalanced bursts: reset + fixed-length run, repeated."""
        for _ in range(n_bursts):
            self.reset_solver()
            self.run(max_iters=burst_iters, min_iters=burst_iters)

    def _note_guard(self, kind: str, detail: str, action: str) -> None:
        """Record one guard trip of this placer or its optimizer.

        ``action`` is ``"rollback"`` for a placement-level trip (see
        :meth:`_recover_from_trip`) and ``"backoff"``/``"scrub"`` for a
        gradient trip inside :class:`NesterovOptimizer`.
        """
        self.n_guard_trips += 1
        logger.warning("guard tripped (%s, %s): %s", kind, action, detail)
        if self.metrics.enabled:
            self.metrics.emit(
                "gp.guard",
                iter=len(self.history),
                guard=kind,
                detail=detail,
                action=action,
            )

    def _recover_from_trip(self, kind: str, detail: str) -> None:
        """Roll the solver back to the last healthy point and back off.

        Used when an iteration produced a non-finite or blown-up HPWL
        (or the optimizer exhausted its own gradient backoffs): the
        major point is restored to the last iterate the sentinel
        accepted, momentum is cleared, the step length is shrunk and
        the force balance re-initialised, so the next iteration
        descends again from known-good coordinates instead of
        propagating garbage.
        """
        self._note_guard(kind, detail, "rollback")
        opt = self._optimizer
        if self._last_good is not None:
            opt.u = self._last_good.copy()
        else:
            scrub_nonfinite(opt.u)
        opt._backoff()  # clears momentum, v <- u, shrinks step
        np.clip(opt.u, self._lower, self._upper, out=opt.u)
        self._load(opt.u)
        opt.v = opt.u.copy()
        self.density_weight = 0.0
        self._prev_hpwl = None
        self._sentinel.reset()

    def _update_mu(self, cur_hpwl: float) -> None:
        """ePlace lambda feedback: ``mu = 1.1^(1 - dHPWL/ref)``.

        When HPWL holds or improves, the density weight grows by up to
        1.1x; when it degrades faster than the reference rate the
        weight *shrinks* (down to 0.75x), handing force back to
        wirelength.  This bidirectional control is what keeps the
        trajectory near the Pareto front instead of running away into
        pure spreading.
        """
        if self._prev_hpwl is not None and self._prev_hpwl > 0:
            delta_rel = (cur_hpwl - self._prev_hpwl) / self._prev_hpwl
            mu = 1.1 ** (1.0 - delta_rel / self._MU_REF_DELTA)
            mu = float(np.clip(mu, 0.75, 1.1))
            self.density_weight *= mu
        self._prev_hpwl = cur_hpwl


def converge_placement(
    netlist: Netlist,
    config: GPConfig | None = None,
    max_batches: int = 8,
    bursts_per_batch: int = 8,
    burst_iters: int = 50,
    hpwl_tol: float = 0.01,
    profiler: StageProfiler | None = None,
    metrics=None,
) -> int:
    """Drive a wirelength-driven GP to its practical fixed point.

    One long run alone leaves substantial wirelength on the table: the
    gamma/lambda trajectories drift and Nesterov momentum goes stale.
    Re-instantiating the placer (fresh gamma annealing, fresh filler
    scatter, fresh step estimate) and running short rebalanced bursts
    recovers it.  Batches of such bursts repeat, each from a brand-new
    placer instance, until the HPWL change between batches falls below
    ``hpwl_tol``.  Returns the total iteration count.

    This is the placement every benchmark flow starts from, so the
    routability techniques are measured against a *converged* baseline
    rather than against leftover optimization slack.
    """
    cfg = config or GPConfig()
    prev: float | None = None
    total = 0
    for batch in range(max_batches):
        placer = GlobalPlacer(netlist, cfg, profiler=profiler, metrics=metrics)
        if batch == 0:
            placer.run()
        placer.run_bursts(bursts_per_batch, burst_iters)
        total += len(placer.history)
        cur = hpwl(netlist)
        if prev is not None and prev > 0 and abs(prev - cur) / prev < hpwl_tol:
            break
        prev = cur
    return total
