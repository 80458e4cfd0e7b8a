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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.density.electrostatic import ElectrostaticSystem, FieldSolution
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.optim.nesterov import NesterovOptimizer
from repro.place.config import GPConfig, auto_grid_dim
from repro.place.initial import initial_placement, scatter_fillers
from repro.utils.contracts import CONTRACTS
from repro.utils.guards import (
    DivergenceSentinel,
    GuardEvent,
    GuardLog,
    NumericalFault,
    scrub_nonfinite,
)
from repro.utils.logging import get_logger
from repro.utils.metrics import NULL
from repro.utils.profile import StageProfiler
from repro.wirelength.hpwl import hpwl
from repro.wirelength.wa import WAWirelength

logger = get_logger("place.global_placer")


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

        nx = cfg.grid_nx or auto_grid_dim(netlist.n_cells)
        ny = cfg.grid_ny or auto_grid_dim(netlist.n_cells)
        self.grid = Grid2D(netlist.die, nx, ny)

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

        if cfg.use_fillers:
            fx, fy, fw, fh = scatter_fillers(netlist, cfg.target_density, cfg.seed)
        else:
            fx = fy = fw = fh = np.zeros(0)
        self.filler_x, self.filler_y = fx.copy(), fy.copy()
        self.filler_w, self.filler_h = fw, fh
        self.n_fill = len(fx)

        self.system = ElectrostaticSystem(
            self.grid, cfg.target_density, static_charge=self.fixed_charge
        )
        base_unit = 0.5 * (self.grid.dx + self.grid.dy)
        self.wa = WAWirelength(base_unit=base_unit, gamma0=cfg.gamma0)

        # extension hooks (see module docstring)
        self.size_scale = np.ones(netlist.n_cells, dtype=np.float64)
        self.extra_static_charge: np.ndarray | None = None
        self.extra_grad_fn: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None

        self.density_weight = 0.0  # lambda_1, initialised on first gradient
        self._prev_hpwl: float | None = None
        self.last_solution: FieldSolution | None = None
        self.last_wl_grad_l1 = 0.0
        self.last_density_grad_l1 = 0.0
        self.history = PlacementHistory()
        self._optimizer = None

        # divergence guard: rolling HPWL watchdog plus the last known
        # healthy parameter vector the loop can roll back to
        self.guard_log = GuardLog()
        self._sentinel = DivergenceSentinel(cfg.guard)
        self._last_good: np.ndarray | None = None

    # ------------------------------------------------------------------
    # parameter vector packing: [x_cells, x_fill, y_cells, y_fill]
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Movable cells plus fillers — the optimization vector length."""
        return self.n_mv + self.n_fill

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

    def _unpack(self, pos: np.ndarray) -> None:
        n, m = self.n_mv, self.n_fill
        nl = self.netlist
        nl.x[self.mv_ids] = pos[:n]
        self.filler_x = pos[n : n + m]
        nl.y[self.mv_ids] = pos[n + m : 2 * n + m]
        self.filler_y = pos[2 * n + m :]
        self._clamp_entries()

    def _clamp_entries(self) -> None:
        self.netlist.clamp_to_die()
        if self.n_fill:
            die = self.netlist.die
            np.clip(
                self.filler_x,
                die.xlo + self.filler_w / 2,
                die.xhi - self.filler_w / 2,
                out=self.filler_x,
            )
            np.clip(
                self.filler_y,
                die.ylo + self.filler_h / 2,
                die.yhi - self.filler_h / 2,
                out=self.filler_y,
            )

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

    def _entry_geometry(self):
        """Positions and (inflated) sizes of all density participants."""
        nl = self.netlist
        ids = self.mv_ids
        w = nl.cell_width[ids] * self.size_scale[ids]
        h = nl.cell_height[ids] * self.size_scale[ids]
        shrink = self._filler_compensation(float((w * h).sum()))
        x = np.concatenate([nl.x[ids], self.filler_x])
        y = np.concatenate([nl.y[ids], self.filler_y])
        w = np.concatenate([w, self.filler_w * shrink])
        h = np.concatenate([h, self.filler_h * shrink])
        return x, y, w, h

    def solve_density(self) -> FieldSolution:
        """One electrostatic solve at the current positions."""
        self.system.static_charge = (
            self.fixed_charge
            if self.extra_static_charge is None
            else self.fixed_charge + self.extra_static_charge
        )
        with self.profiler.timer("gp.poisson"):
            sol = self.system.solve(*self._entry_geometry())
        self.last_solution = sol
        return sol

    def _gradient(self, pos: np.ndarray) -> np.ndarray:
        self._unpack(pos)
        nl = self.netlist
        n, m = self.n_mv, self.n_fill

        with self.profiler.timer("gp.wirelength"):
            _, wl_gx, wl_gy = self.wa(nl)
        self.last_wl_grad_l1 = float(
            np.abs(wl_gx[self.mv_ids]).sum() + np.abs(wl_gy[self.mv_ids]).sum()
        )
        sol = self.solve_density()

        d_l1 = float(np.abs(sol.grad_x).sum() + np.abs(sol.grad_y).sum())
        self.last_density_grad_l1 = d_l1
        if self.density_weight == 0.0:
            # ePlace initialisation: equal L1 force norms
            self.density_weight = self.last_wl_grad_l1 / max(d_l1, 1e-12)
        else:
            # never let the density force exceed cap x the wirelength
            # force (numerical guard; the mu feedback in run() is the
            # real controller)
            ratio_unit = self.last_wl_grad_l1 / max(d_l1, 1e-12)
            cap = self.config.density_force_cap * ratio_unit
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
        step0 = self.config.initial_move_fraction * bin_unit / max(gmax, 1e-12)
        self._optimizer = NesterovOptimizer(
            pos0,
            self._gradient,
            initial_step=step0,
            max_move=1.0 * bin_unit,
            guard=self.config.guard,
        )
        # one shared log: optimizer-level gradient trips and
        # placement-level divergence trips read as one stream
        self._optimizer.guard_log = self.guard_log

    def prepare(self, reinitialize_positions: bool = False) -> None:
        """Build the optimizer (optionally re-centering cells first)."""
        if reinitialize_positions:
            initial_placement(self.netlist, self.config.seed)
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
                if consecutive_trips > cfg.guard.max_backoffs:
                    break
                continue
            # project both optimizer points back into the die (clamp
            # happens inside _unpack); without projecting the reference
            # point v, the momentum extrapolation diverges when cells
            # press against the boundary.  u is projected last so the
            # netlist state reflects the major point.
            self._unpack(self._optimizer.v)
            self._optimizer.v = self._pack()
            self._unpack(self._optimizer.u)
            self._optimizer.u = self._pack()

            sol = self.last_solution
            overflow = sol.overflow if sol is not None else 1.0
            cur_hpwl = hpwl(self.netlist)
            verdict = self._sentinel.observe(cur_hpwl)
            if cfg.guard.enabled and verdict != "ok":
                consecutive_trips += 1
                self._recover_from_trip(
                    verdict,
                    f"hpwl={cur_hpwl:.4e} vs baseline "
                    f"{self._sentinel.baseline:.4e}",
                )
                if consecutive_trips > cfg.guard.max_backoffs:
                    break
                continue
            consecutive_trips = 0
            self._last_good = self._optimizer.u.copy()
            self.wa.update_gamma(overflow)
            self._update_mu(cur_hpwl)
            self.history.append(
                hpwl=cur_hpwl,
                overflow=overflow,
                energy=sol.energy if sol else 0.0,
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
            if cfg.verbose and it % 20 == 0:
                logger.warning(
                    "iter %4d  hpwl %.4e  ovfl %.4f  lambda %.3e",
                    it,
                    cur_hpwl,
                    overflow,
                    self.density_weight,
                )
            if it >= min_iters and overflow <= cfg.stop_overflow:
                break
        self._unpack(self._optimizer.u)
        return self.history

    def run_bursts(self, n_bursts: int, burst_iters: int = 50) -> None:
        """Short rebalanced bursts: reset + fixed-length run, repeated."""
        for _ in range(n_bursts):
            self.reset_solver()
            self.run(max_iters=burst_iters, min_iters=burst_iters)

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
        self.guard_log.record(
            GuardEvent(
                site="gp.run",
                kind=kind,
                iteration=len(self.history),
                detail=detail,
                action="rollback",
            )
        )
        self.profiler.count("gp.guard_trips")
        if self.metrics.enabled:
            self.metrics.inc("gp.guard_trips")
            self.metrics.emit(
                "gp.guard", iter=len(self.history), guard=kind, detail=detail
            )
        logger.warning("divergence guard tripped (%s): %s", kind, detail)
        opt = self._optimizer
        if self._last_good is not None:
            opt.u = self._last_good.copy()
        else:
            scrub_nonfinite(opt.u)
        opt._backoff()  # clears momentum, v <- u, shrinks step
        self._unpack(opt.u)
        opt.u = self._pack()
        opt.v = opt.u.copy()
        self.density_weight = 0.0
        self._prev_hpwl = None
        self._sentinel.reset()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Resumable snapshot of the placer's mutable state.

        Together with the netlist positions (owned by the caller) this
        captures everything :meth:`run` reads across iterations, so a
        placer reconstructed from the same config + netlist and fed
        this state continues bit-identically.
        """
        return {
            "filler_x": self.filler_x.copy(),
            "filler_y": self.filler_y.copy(),
            "size_scale": self.size_scale.copy(),
            "extra_static_charge": (
                None
                if self.extra_static_charge is None
                else self.extra_static_charge.copy()
            ),
            "density_weight": self.density_weight,
            "prev_hpwl": self._prev_hpwl,
            "wa_gamma": self.wa.gamma,
            "optimizer": (
                None if self._optimizer is None else self._optimizer.state_dict()
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        Rebuilds the optimizer directly from the serialized vectors
        (no extra gradient evaluation, so no side effects that would
        diverge from an uninterrupted run).
        """
        self.filler_x = np.array(state["filler_x"], dtype=np.float64, copy=True)
        self.filler_y = np.array(state["filler_y"], dtype=np.float64, copy=True)
        self.size_scale = np.array(state["size_scale"], dtype=np.float64, copy=True)
        extra = state.get("extra_static_charge")
        self.extra_static_charge = (
            None if extra is None else np.array(extra, dtype=np.float64, copy=True)
        )
        self.density_weight = float(state["density_weight"])
        prev = state.get("prev_hpwl")
        self._prev_hpwl = None if prev is None else float(prev)
        self.wa.gamma = float(state["wa_gamma"])
        opt_state = state.get("optimizer")
        if opt_state is None:
            self._optimizer = None
        else:
            bin_unit = 0.5 * (self.grid.dx + self.grid.dy)
            opt = NesterovOptimizer(
                opt_state["u"],
                self._gradient,
                initial_step=float(opt_state["step"]),
                max_move=1.0 * bin_unit,
                guard=self.config.guard,
            )
            opt.guard_log = self.guard_log
            opt.load_state_dict(opt_state)
            self._optimizer = opt
        self._last_good = None
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

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def overflow(self) -> float:
        """Current density overflow (solves the density system)."""
        sol = self.solve_density()
        return sol.overflow

    def hpwl(self) -> float:
        """Current half-perimeter wirelength of the netlist."""
        return hpwl(self.netlist)


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
