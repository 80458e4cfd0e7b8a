"""Routing grid and global router tests."""

import numpy as np
import pytest

from repro.geometry import Grid2D, Rect
from repro.route import (
    GlobalRouter,
    RouterConfig,
    RoutingGrid,
    congestion_from_demand,
    rudy_map,
)
from repro.route.grid import N_LAYERS, VIA_WEIGHT


@pytest.fixture
def rgrid():
    return RoutingGrid(Grid2D(Rect(0, 0, 8, 8), 16, 16), RouterConfig())


class TestRoutingGrid:
    def test_capacity_positive(self, rgrid):
        assert (rgrid.h_cap > 0).all()
        assert (rgrid.v_cap > 0).all()

    def test_layer_split(self):
        g = Grid2D(Rect(0, 0, 8, 8), 16, 16)
        rg = RoutingGrid(g, RouterConfig(wire_pitch=0.25))
        # N_LAYERS = 4: 2 horizontal layers x (dy / pitch) tracks
        assert N_LAYERS == 4
        assert rg.h_cap[0, 0] == pytest.approx(2 * g.dy / 0.25)
        assert rg.v_cap[0, 0] == pytest.approx(2 * g.dx / 0.25)

    def test_demand_add_and_remove(self, rgrid):
        rgrid.add_h_run(3, 2, 6)
        assert rgrid.h_demand[2:7, 3].sum() == pytest.approx(5.0)
        rgrid.add_h_run(3, 6, 2, sign=-1.0)
        assert np.allclose(rgrid.h_demand, 0.0)

    def test_via_demand(self, rgrid):
        rgrid.add_via(4, 4, 2.0)
        assert rgrid.via_demand[4, 4] == 2.0
        td = rgrid.total_demand()
        assert td[4, 4] == pytest.approx(2.0 * VIA_WEIGHT)

    def test_utilization_and_overflow(self, rgrid):
        rgrid.h_demand[5, 5] = rgrid.h_cap[5, 5] + 3.0
        ov = rgrid.overflow_map()
        assert ov[5, 5] == pytest.approx(3.0)
        util = rgrid.utilization()
        assert util[5, 5] > 0.5

    def test_macro_blockage_reduces_capacity(self, toy120):
        g = Grid2D(toy120.die, 32, 32)
        with_nl = RoutingGrid(g, RouterConfig(), toy120)
        without = RoutingGrid(g, RouterConfig())
        assert with_nl.h_cap.sum() < without.h_cap.sum()

    def test_rail_blockage_reduces_capacity(self, toy120):
        g = Grid2D(toy120.die, 32, 32)
        rails_on = RoutingGrid(g, RouterConfig(), toy120)
        bare = toy120.copy()
        bare.pg_rails = []
        rails_off = RoutingGrid(g, RouterConfig(), bare)
        assert rails_on.h_cap.sum() < rails_off.h_cap.sum()

    def test_cost_maps_monotone_in_demand(self, rgrid):
        h0, _ = rgrid.cost_maps()
        rgrid.h_demand[4, 4] = rgrid.h_cap[4, 4]
        h1, _ = rgrid.cost_maps()
        assert h1[4, 4] > h0[4, 4]

    def test_history_accumulation(self, rgrid):
        rgrid.h_demand[3, 3] = rgrid.h_cap[3, 3] + 1
        rgrid.accumulate_history()
        rgrid.accumulate_history()
        assert rgrid.history[3, 3] == 2.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RouterConfig(wire_pitch=0)


class TestGlobalRouter:
    def test_routes_toy_design(self, toy120):
        g = Grid2D(toy120.die, 32, 32)
        res = GlobalRouter(g).route(toy120)
        assert res.n_segments > 0
        assert res.wirelength > 0
        assert res.n_vias > 0
        assert res.congestion_map.shape == g.shape

    def test_deterministic(self, toy120):
        g = Grid2D(toy120.die, 32, 32)
        r1 = GlobalRouter(g).route(toy120)
        r2 = GlobalRouter(g).route(toy120)
        assert r1.wirelength == r2.wirelength
        assert np.array_equal(r1.congestion_map, r2.congestion_map)

    def test_wirelength_at_least_mst_bound(self, toy120):
        # routed wirelength >= sum of manhattan segment spans (discretized)
        from repro.route import segment_endpoints

        g = Grid2D(toy120.die, 32, 32)
        res = GlobalRouter(g).route(toy120)
        _, x1, y1, x2, y2 = segment_endpoints(toy120)
        i1, j1 = g.index_of(x1, y1)
        i2, j2 = g.index_of(x2, y2)
        lower = float((np.abs(i2 - i1) * g.dx + np.abs(j2 - j1) * g.dy).sum())
        assert res.wirelength >= lower - 1e-6

    def test_rrr_reduces_or_keeps_overflow(self, toy300):
        g = Grid2D(toy300.die, 32, 32)
        no_rrr = GlobalRouter(g, RouterConfig(rrr_rounds=0)).route(toy300)
        rrr = GlobalRouter(g, RouterConfig(rrr_rounds=3)).route(toy300)
        assert rrr.total_overflow <= no_rrr.total_overflow * 1.05 + 5

    def test_congestion_eq3(self, rgrid):
        rgrid.h_demand[2, 2] = 2 * (rgrid.h_cap[2, 2] + rgrid.v_cap[2, 2])
        data = congestion_from_demand(rgrid)
        # Dmd/Cap = 2 exactly at that cell (via=0): C = max(rho-1, 0) = 1
        assert data.congestion[2, 2] == pytest.approx(1.0, rel=1e-6)
        assert data.utilization[2, 2] == pytest.approx(2.0, rel=1e-6)
        assert data.max_congestion >= 1.0
        assert data.congested_mask()[2, 2]


class TestRudy:
    def test_total_mass(self, tiny_netlist):
        g = Grid2D(tiny_netlist.die, 20, 20)
        r = rudy_map(tiny_netlist, g)
        assert r.shape == g.shape
        assert (r >= -1e-12).all()
        assert r.sum() > 0

    def test_single_net_box(self):
        from repro.geometry import Rect
        from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec

        cells = [CellSpec("a", 0.1, 0.1, x=2, y=2), CellSpec("b", 0.1, 0.1, x=6, y=6)]
        nets = [NetSpec("n", [PinSpec("a"), PinSpec("b")])]
        nl = Netlist.from_specs("d", Rect(0, 0, 8, 8), cells, nets)
        g = Grid2D(nl.die, 16, 16)
        r = rudy_map(nl, g)
        # density (w+h)/(w*h) = 8/16 = 0.5 inside the box, 0 outside
        assert r[g.index_of(4.0, 4.0)] == pytest.approx(0.5)
        assert r[g.index_of(1.0, 7.0)] == pytest.approx(0.0)

    def test_empty_netlist_map(self):
        from repro.geometry import Rect
        from repro.netlist import Netlist

        nl = Netlist.from_specs("e", Rect(0, 0, 4, 4), [], [])
        g = Grid2D(nl.die, 8, 8)
        assert rudy_map(nl, g).sum() == 0.0
