"""Routability-driven placer flow tests (Fig. 2) and congestion field."""

import numpy as np
import pytest

from repro.baselines.flows import make_gp_seed
from repro.core import (
    CongestionField,
    RDConfig,
    RoutabilityDrivenPlacer,
    rd_placer,
)
from repro.geometry import Grid2D, Rect
from repro.place import GPConfig


@pytest.fixture
def fast_cfg():
    return RDConfig(
        gp=GPConfig(max_iters=120),
        max_rounds=3,
        iters_per_round=15,
    )


def _seeded(netlist, cfg):
    """``netlist`` at the wirelength-driven seed the loop starts from."""
    return make_gp_seed(netlist, cfg.gp).netlist


class TestConfig:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RDConfig(inflation_mode="bogus")
        with pytest.raises(ValueError):
            RDConfig(pg_mode="bogus")
        with pytest.raises(ValueError):
            RDConfig(max_rounds=0)
        # Table II's baseline row is present/static: no recipe turns a
        # technique off entirely
        with pytest.raises(ValueError):
            RDConfig(inflation_mode="off")
        with pytest.raises(ValueError):
            RDConfig(pg_mode="off")


class TestCongestionField:
    def test_penalty_positive_at_hotspot(self):
        grid = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        util = np.full(grid.shape, 0.2)
        util[8, 8] = 3.0
        fld = CongestionField(grid, util)
        hot = fld.penalty(np.array([4.25]), np.array([4.25]), 1.0)
        cold = fld.penalty(np.array([1.0]), np.array([1.0]), 1.0)
        assert hot > cold

    def test_gradient_toward_descent(self):
        grid = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        util = np.zeros(grid.shape)
        util[8, 8] = 5.0
        fld = CongestionField(grid, util)
        gx, gy = fld.gradient_at(np.array([3.0]), np.array([4.25]), 1.0)
        # west of hotspot: -grad points further west
        assert -gx[0] < 0

    def test_shape_mismatch(self):
        grid = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        with pytest.raises(ValueError):
            CongestionField(grid, np.zeros((4, 4)))


class TestRDFlow:
    def test_full_run(self, toy300, fast_cfg):
        rd = RoutabilityDrivenPlacer(_seeded(toy300, fast_cfg), fast_cfg)
        result = rd.run()
        assert 1 <= result.n_rounds <= fast_cfg.max_rounds
        assert result.final_routing is not None
        assert result.placement_time > 0
        assert len(result.selected_rails) > 0
        rec = result.rounds[0]
        assert rec.hpwl > 0
        assert rec.mean_congestion >= 0

    def test_ablation_modes_run(self, toy120):
        for infl in ("momentum", "present"):
            for pg in ("dynamic", "static"):
                cfg = RDConfig(
                    gp=GPConfig(max_iters=60),
                    max_rounds=2,
                    iters_per_round=10,
                    inflation_mode=infl,
                    pg_mode=pg,
                    enable_dc=(infl == "momentum"),
                )
                nl = _seeded(toy120, cfg)
                result = RoutabilityDrivenPlacer(nl, cfg).run()
                assert result.n_rounds >= 1

    def test_starts_from_given_placement(self, toy120, fast_cfg):
        from repro.place import GlobalPlacer, initial_placement
        from repro.wirelength import hpwl

        initial_placement(toy120, 0)
        GlobalPlacer(toy120, GPConfig(max_iters=100)).run()
        x_before = toy120.x.copy()
        hpwl_before = hpwl(toy120)
        rd = RoutabilityDrivenPlacer(toy120, fast_cfg)
        result = rd.run()
        # positions moved in rounds but started from the given placement
        assert not np.array_equal(toy120.x, x_before)
        assert result.rounds[0].hpwl == hpwl_before

    def test_c_value_recorded_and_stop(self, toy300, monkeypatch):
        monkeypatch.setattr(rd_placer, "PATIENCE", 1)
        # essentially any non-halving stalls
        monkeypatch.setattr(rd_placer, "C_IMPROVE_TOL", 0.5)
        cfg = RDConfig(
            gp=GPConfig(max_iters=120),
            max_rounds=6,
            iters_per_round=10,
        )
        result = RoutabilityDrivenPlacer(_seeded(toy300, cfg), cfg).run()
        # aggressive tolerance stops the loop well before max_rounds
        assert result.n_rounds <= 4

    def test_inflation_state_grows_in_momentum_mode(self, toy300, fast_cfg):
        rd = RoutabilityDrivenPlacer(_seeded(toy300, fast_cfg), fast_cfg)
        result = rd.run()
        if result.rounds[-1].mean_congestion > 0:
            assert rd.inflation.round >= 1
            assert (rd.inflation.rates >= 0.9).all()

    def test_lambda2_nonnegative(self, toy300, fast_cfg):
        rd = RoutabilityDrivenPlacer(_seeded(toy300, fast_cfg), fast_cfg)
        result = rd.run()
        assert all(r.lambda2 >= 0 for r in result.rounds)

    def test_series_accessor(self, toy120, fast_cfg):
        result = RoutabilityDrivenPlacer(_seeded(toy120, fast_cfg), fast_cfg).run()
        assert len(result.series("hpwl")) == result.n_rounds
