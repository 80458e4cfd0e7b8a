"""Global placer tests: convergence, hooks, filler compensation."""

import numpy as np
import pytest

from repro.place import (
    GlobalPlacer,
    GPConfig,
    converge_placement,
    initial_placement,
    scatter_fillers,
)
from repro.place.config import auto_grid_dim
from repro.wirelength import hpwl


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GPConfig(target_density=0.0)
        with pytest.raises(ValueError):
            GPConfig(max_iters=0)

    def test_auto_grid_dim(self):
        assert auto_grid_dim(10) == 16
        assert auto_grid_dim(300) == 32
        assert auto_grid_dim(10_000_000) == 256


class TestInitialPlacement:
    def test_centers_cells(self, toy120):
        initial_placement(toy120, seed=0)
        mv = toy120.movable
        cx, cy = toy120.die.center
        assert abs(toy120.x[mv].mean() - cx) < 0.2 * toy120.die.width
        assert abs(toy120.y[mv].mean() - cy) < 0.2 * toy120.die.height

    def test_deterministic(self, toy120):
        a = toy120.copy()
        b = toy120.copy()
        initial_placement(a, seed=5)
        initial_placement(b, seed=5)
        assert np.array_equal(a.x, b.x)

    def test_does_not_move_fixed(self, toy120):
        fixed = ~toy120.movable
        before = toy120.x[fixed].copy()
        initial_placement(toy120, seed=1)
        assert np.array_equal(toy120.x[fixed], before)


class TestFillers:
    def test_budget(self, toy120):
        fx, fy, fw, fh = scatter_fillers(toy120, target_density=0.9, seed=0)
        mv = toy120.movable
        fixed_area = toy120.cell_area[~mv].sum()
        free = toy120.die.area - fixed_area
        budget = free * 0.9 - toy120.cell_area[mv].sum()
        assert (fw * fh).sum() == pytest.approx(budget, rel=0.05)

    def test_no_fillers_when_full(self, toy120):
        fx, *_ = scatter_fillers(toy120, target_density=0.3, seed=0)
        # utilization ~0.6 > 0.3 target: no filler budget
        assert len(fx) == 0

    def test_fillers_inside_die(self, toy120):
        fx, fy, fw, fh = scatter_fillers(toy120, 0.9, 0)
        die = toy120.die
        assert (fx - fw / 2 >= die.xlo).all() and (fx + fw / 2 <= die.xhi).all()
        assert (fy - fh / 2 >= die.ylo).all() and (fy + fh / 2 <= die.yhi).all()


class TestPlacerRun:
    def test_overflow_decreases(self, toy300):
        initial_placement(toy300, 0)
        gp = GlobalPlacer(toy300, GPConfig(max_iters=600))
        hist = gp.run()
        ovfl = hist.series("overflow")
        assert ovfl[-1] < ovfl[0]
        assert ovfl[-1] < 0.25

    def test_history_keys(self, toy120):
        initial_placement(toy120, 0)
        gp = GlobalPlacer(toy120, GPConfig(max_iters=20))
        hist = gp.run()
        assert {"hpwl", "overflow", "energy", "step", "grad_norm"} <= set(hist.records[0])
        assert len(hist) == 20 or hist.final["overflow"] <= 0.07

    def test_fixed_cells_never_move(self, toy120):
        fixed = ~toy120.movable
        before = toy120.x[fixed].copy()
        initial_placement(toy120, 0)
        GlobalPlacer(toy120, GPConfig(max_iters=60)).run()
        assert np.array_equal(toy120.x[fixed], before)

    def test_cells_stay_in_die(self, toy300):
        initial_placement(toy300, 0)
        GlobalPlacer(toy300, GPConfig(max_iters=100)).run()
        half_w = toy300.cell_width / 2
        mv = toy300.movable
        assert (toy300.x[mv] - half_w[mv] >= toy300.die.xlo - 1e-6).all()
        assert (toy300.x[mv] + half_w[mv] <= toy300.die.xhi + 1e-6).all()

    def test_run_bursts_keep_quality_once_converged(self, toy300):
        initial_placement(toy300, 0)
        gp = GlobalPlacer(toy300, GPConfig(max_iters=600))
        hist = gp.run()
        assert hist.final["overflow"] <= 0.15  # converged start
        before = hpwl(toy300)
        gp.run_bursts(4, 40)
        # from a converged state, rebalanced bursts must not blow up
        # the wirelength (they usually improve it slightly)
        assert hpwl(toy300) <= before * 1.10

    def test_converge_placement_function(self, toy120):
        initial_placement(toy120, 0)
        iters = converge_placement(toy120, GPConfig(max_iters=150), max_batches=3)
        assert iters > 0


class TestHooks:
    def _ready(self, nl, **cfg):
        initial_placement(nl, 0)
        return GlobalPlacer(nl, GPConfig(max_iters=30, **cfg))

    def test_size_scale_changes_density(self, toy120):
        gp = self._ready(toy120)
        sol1 = gp.solve_density()
        gp.size_scale = np.full(toy120.n_cells, 1.4)
        sol2 = gp.solve_density()
        # inflation raises local density (fillers shrink but cells grow)
        assert sol2.density.max() > sol1.density.max()

    def test_extra_static_charge_included(self, toy120):
        gp = self._ready(toy120)
        base = gp.solve_density().density.sum()
        extra = gp.grid.zeros()
        extra[2, 2] = 5.0
        gp.extra_static_charge = extra
        with_extra = gp.solve_density()
        # charge appears at the bin (filler compensation removes the
        # same total elsewhere, so check locally)
        assert with_extra.density[2, 2] > 0

    def test_extra_grad_fn_called(self, toy120):
        gp = self._ready(toy120)
        calls = []

        def hook():
            calls.append(1)
            return np.zeros(toy120.n_cells), np.zeros(toy120.n_cells)

        gp.extra_grad_fn = hook
        gp.run(max_iters=5, min_iters=5)
        assert len(calls) >= 5

    def test_filler_compensation_shrinks_with_inflation(self, toy120):
        gp = self._ready(toy120)
        s1 = gp._filler_compensation(float(toy120.cell_area[gp.mv_ids].sum()))
        s2 = gp._filler_compensation(float(toy120.cell_area[gp.mv_ids].sum()) * 1.3)
        assert s1 == pytest.approx(1.0)
        assert s2 < 1.0

    def test_reset_solver_reinitializes_weight(self, toy120):
        gp = self._ready(toy120)
        gp.run(max_iters=10, min_iters=10)
        assert gp.density_weight > 0
        gp.reset_solver()
        assert gp.density_weight == 0.0
