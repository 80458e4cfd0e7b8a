"""Routing-outcome evaluator tests."""

import numpy as np
import pytest

from repro.evalrt import EvalConfig, MetricRow, evaluate_routing, format_table, pin_access_violations, ratio_row
from repro.evalrt.evaluator import evaluation_grid
from repro.evalrt.pinaccess import PIN_BUDGET_PER_AREA, pins_under_rails
from repro.geometry import Grid2D, Rect
from repro.legalize import legalize
from repro.netlist import CellSpec, Netlist, NetSpec, PGRailSpec, PinSpec
from repro.place import GlobalPlacer, GPConfig, initial_placement


@pytest.fixture
def placed_toy(toy300):
    initial_placement(toy300, 0)
    GlobalPlacer(toy300, GPConfig(max_iters=150)).run()
    legalize(toy300)
    return toy300


class TestPinsUnderRails:
    def test_band_membership(self):
        die = Rect(0, 0, 10, 10)
        cells = [
            CellSpec("on", 0.5, 0.5, x=5, y=2.0),
            CellSpec("off", 0.5, 0.5, x=5, y=5.0),
        ]
        nets = [NetSpec("n", [PinSpec("on"), PinSpec("off")])]
        rails = [PGRailSpec(Rect(0, 1.95, 10, 2.05), horizontal=True)]
        nl = Netlist.from_specs("d", die, cells, nets, pg_rails=rails)
        covered = pins_under_rails(nl, margin_fraction=0.2)
        assert covered[0] and not covered[1]

    def test_margin_extends_band(self):
        die = Rect(0, 0, 10, 10)
        cells = [CellSpec("near", 0.5, 0.5, x=5, y=2.2)]
        nets = [NetSpec("n", [PinSpec("near"), PinSpec("near", 0.1, 0)])]
        rails = [PGRailSpec(Rect(0, 1.95, 10, 2.05), horizontal=True)]
        nl = Netlist.from_specs("d", die, cells, nets, pg_rails=rails)
        assert pins_under_rails(nl, margin_fraction=0.2).all()
        assert not pins_under_rails(nl, margin_fraction=0.05).any()

    def test_no_rails(self, tiny_netlist):
        assert not pins_under_rails(tiny_netlist).any()


class TestViolationModel:
    def test_zero_when_uncongested(self, tiny_netlist):
        grid = Grid2D(tiny_netlist.die, 16, 16)
        rep = pin_access_violations(tiny_netlist, grid, np.zeros(grid.shape))
        assert rep.covered_pin_drvs == 0.0

    def test_ramp_behavior(self):
        die = Rect(0, 0, 10, 10)
        cells = [CellSpec("a", 0.5, 0.5, x=5, y=2.0)]
        nets = [NetSpec("n", [PinSpec("a"), PinSpec("a", 0.1, 0)])]
        rails = [PGRailSpec(Rect(0, 1.95, 10, 2.05), horizontal=True)]
        nl = Netlist.from_specs("d", die, cells, nets, pg_rails=rails)
        grid = Grid2D(die, 10, 10)
        low = pin_access_violations(nl, grid, np.full(grid.shape, 0.4))
        mid = pin_access_violations(nl, grid, np.full(grid.shape, 0.85))
        high = pin_access_violations(nl, grid, np.full(grid.shape, 2.0))
        assert low.covered_pin_drvs == 0.0
        assert 0 < mid.covered_pin_drvs < high.covered_pin_drvs
        assert high.covered_pin_drvs == pytest.approx(2.0)  # both pins certain to fail

    def test_crowding(self):
        die = Rect(0, 0, 10, 10)
        # 60 pins piled into one tiny area
        cells = [CellSpec(f"c{i}", 0.2, 0.2, x=5.0, y=5.0) for i in range(30)]
        nets = [
            NetSpec(f"n{i}", [PinSpec(f"c{i}"), PinSpec(f"c{(i+1) % 30}")])
            for i in range(30)
        ]
        nl = Netlist.from_specs("crowd", die, cells, nets)
        grid = Grid2D(die, 10, 10)
        rep = pin_access_violations(nl, grid, np.zeros(grid.shape))
        budget = PIN_BUDGET_PER_AREA * grid.bin_area
        assert rep.crowding_drvs == pytest.approx(60 - budget)


class TestEvaluator:
    def test_fields_populated(self, placed_toy):
        ev = evaluate_routing(placed_toy)
        assert ev.drwl > 0
        assert ev.n_vias > 0
        assert ev.n_drvs >= 0
        assert ev.routing_time > 0
        row = ev.as_row()
        assert {"DRWL", "#DRVias", "#DRVs", "RT"} == set(row)

    def test_deterministic(self, placed_toy):
        cfg = EvalConfig()
        grid = evaluation_grid(placed_toy, cfg)
        e1 = evaluate_routing(placed_toy, cfg, grid)
        e2 = evaluate_routing(placed_toy, cfg, grid)
        assert e1.n_drvs == e2.n_drvs
        assert e1.drwl == e2.drwl

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvalConfig(grid_dim_factor=0)

    def test_grid_dim_scales(self, toy120):
        g1 = evaluation_grid(toy120, EvalConfig(grid_dim_factor=1))
        g2 = evaluation_grid(toy120, EvalConfig(grid_dim_factor=2))
        assert g2.nx == 2 * g1.nx


class TestReport:
    def _rows(self):
        return [
            MetricRow("d1", "A", {"#DRVs": 100.0, "DRWL": 10.0}),
            MetricRow("d1", "B", {"#DRVs": 50.0, "DRWL": 10.0}),
            MetricRow("d2", "A", {"#DRVs": 30.0, "DRWL": 20.0}),
            MetricRow("d2", "B", {"#DRVs": 10.0, "DRWL": 22.0}),
        ]

    def test_ratio_row(self):
        r = ratio_row(self._rows(), "B", keys=("#DRVs", "DRWL"))
        assert r["B"]["#DRVs"] == pytest.approx(1.0)
        assert r["A"]["#DRVs"] == pytest.approx((100 / 50 + 30 / 10) / 2)

    def test_exclusion(self):
        r = ratio_row(
            self._rows(),
            "B",
            keys=("#DRVs",),
            exclude={"#DRVs": {("d2", "A")}},
        )
        assert r["A"]["#DRVs"] == pytest.approx(2.0)

    def test_format_table_contains_everything(self):
        text = format_table(self._rows(), keys=("#DRVs", "DRWL"), reference_placer="B")
        assert "d1" in text and "d2" in text
        assert "Avg. Ratio" in text
