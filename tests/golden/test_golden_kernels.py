"""Golden numeric regressions for the paper's kernels.

Every test drives one kernel on a frozen deterministic scenario and
compares the full output arrays against ``data/*.npz`` at ``atol=1e-9``
(``rtol=0``).  A failure means the numerics changed: either fix the
regression or — for an intentional change — regenerate with
``pytest tests/golden --regen-golden`` and commit the new references.

Covered kernels:

* the differentiable congestion (DC) field of Eq. (1)-(2)
  (:class:`~repro.core.congestion_field.CongestionField`);
* two-pin net-moving gradients, Alg. 1 / Eq. (6)-(9)
  (:func:`~repro.core.netmove.two_pin_net_gradients`);
* multi-pin cell-moving gradients, Alg. 2
  (:func:`~repro.core.multipin.multi_pin_cell_gradients`);
* momentum inflation rates, Eq. (11)-(12), on a sequence that triggers
  deflation (:class:`~repro.core.inflation.MomentumInflation`);
* PG-rail selection and the dynamic density adjustment, Eq. (13)-(15)
  (:mod:`~repro.core.pgrails`, :mod:`~repro.core.pinaccess`);
* the WA wirelength objective and gradient, Sec. II-A
  (:func:`~repro.wirelength.wa.wa_wirelength_and_grad`) — this one
  also pins the bucketed four-row WA layout: any drift beyond 1e-9
  fails here;
* the global router's demand, history and Eq. (3) congestion maps
  plus its wirelength / via / overflow totals
  (:meth:`~repro.route.GlobalRouter.route`) under the default, STT and
  maze-cleanup configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.congestion_field import CongestionField
from repro.core.inflation import (
    InflationConfig,
    MomentumInflation,
    congestion_at_cell_centers,
)
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import (
    NetMoveConfig,
    two_pin_net_gradients,
    virtual_cell_positions,
)
from repro.core.pgrails import rail_area_map, select_pg_rails
from repro.core.pinaccess import PinAccessConfig, pg_density_charge
from repro.geometry import Grid2D
from repro.place.initial import initial_placement
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.wirelength.wa import WAWirelength, wa_wirelength_and_grad

from tests.golden import GOLDEN_ATOL, GoldenChecker


@pytest.fixture
def golden(regen_golden) -> GoldenChecker:
    return GoldenChecker(regen=regen_golden)


@pytest.fixture(scope="module")
def scenario():
    """Frozen routing snapshot all kernel goldens derive from.

    A 150-cell toy design (one macro, PG rails), deterministic initial
    placement, one batched routing pass on a 16x16 grid.  Everything
    downstream (field, gradients, inflation inputs, DPA charge) is a
    pure function of this state.
    """
    netlist = toy_design(150, seed=5)
    initial_placement(netlist, 0)
    grid = Grid2D(netlist.die, 16, 16)
    routing = GlobalRouter(grid, RouterConfig()).route(netlist)
    field = CongestionField(grid, routing.utilization_map)
    std = netlist.movable & ~netlist.cell_macro
    virtual_area = float(netlist.cell_area[std].mean())
    return {
        "netlist": netlist,
        "grid": grid,
        "routing": routing,
        "field": field,
        "virtual_area": virtual_area,
    }


class TestDCField:
    def test_congestion_field_golden(self, scenario, golden):
        field = scenario["field"]
        nl = scenario["netlist"]
        # probe the smooth interpolants where the flow actually reads
        # them: at every cell center, with the real cell areas
        gx, gy = field.gradient_at(nl.x, nl.y, nl.cell_area)
        golden.check("dc_field", {
            "utilization": field.utilization,
            "potential": field.potential,
            "field_x": field.field_x,
            "field_y": field.field_y,
            "potential_at_cells": field.potential_at(nl.x, nl.y),
            "grad_x_at_cells": gx,
            "grad_y_at_cells": gy,
            "penalty": field.penalty(nl.x, nl.y, nl.cell_area),
        })


class TestNetMove:
    def test_two_pin_gradients_golden(self, scenario, golden):
        nl = scenario["netlist"]
        cfg = NetMoveConfig()
        info = virtual_cell_positions(
            nl, scenario["grid"], scenario["routing"].congestion_map, cfg
        )
        grad_x, grad_y, _ = two_pin_net_gradients(
            nl,
            scenario["grid"],
            scenario["routing"].congestion_map,
            scenario["field"],
            scenario["virtual_area"],
            cfg,
        )
        assert info["active"].any(), "scenario exercises no two-pin net"
        assert np.abs(grad_x).sum() > 0, "scenario produces a zero gradient"
        golden.check("netmove", {
            "net_ids": info["net_ids"],
            "xv": info["xv"],
            "yv": info["yv"],
            "congestion": info["congestion"],
            "active": info["active"].astype(np.int8),
            "grad_x": grad_x,
            "grad_y": grad_y,
        })


class TestMultiPin:
    def test_multi_pin_gradients_golden(self, scenario, golden):
        nl = scenario["netlist"]
        grad_x, grad_y, selected = multi_pin_cell_gradients(
            nl,
            scenario["grid"],
            scenario["routing"].congestion_map,
            scenario["field"],
            threshold=0.7,
        )
        assert selected.any(), "scenario selects no multi-pin cell"
        golden.check("multipin", {
            "grad_x": grad_x,
            "grad_y": grad_y,
            "selected": selected.astype(np.int8),
        })


class TestWA:
    def test_wa_wirelength_golden(self, scenario, golden):
        """Freeze the WA value and gradient at two gamma regimes.

        The loose gamma is the flow's starting value
        (:class:`WAWirelength` with the scenario's bin pitch as base
        unit); the tight gamma (quartered) pins the near-HPWL regime
        where the shifted exponentials are most saturation-prone.  Net
        weights exercise the weighted accumulation path.
        """
        nl = scenario["netlist"]
        gamma = WAWirelength(base_unit=scenario["grid"].dx).gamma
        wl, gx, gy = wa_wirelength_and_grad(nl, gamma)
        assert wl > 0.0, "scenario has zero wirelength"
        assert np.abs(gx).sum() > 0, "scenario produces a zero gradient"
        wl_t, gx_t, gy_t = wa_wirelength_and_grad(nl, 0.25 * gamma)
        weights = 1.0 + (np.arange(nl.n_nets) % 3) * 0.5
        wl_w, gx_w, gy_w = wa_wirelength_and_grad(nl, gamma, weights)
        golden.check("wa", {
            "wl": np.array([wl, wl_t, wl_w]),
            "grad_x": gx,
            "grad_y": gy,
            "grad_x_tight": gx_t,
            "grad_y_tight": gy_t,
            "grad_x_weighted": gx_w,
            "grad_y_weighted": gy_w,
        })


class TestRouteGolden:
    #: (key prefix, RouterConfig overrides) of every pinned pass
    CONFIGS = (
        ("default", {}),
        ("stt", {"topology": "stt"}),
        ("maze", {"maze_fallback": True, "rrr_rounds": 1}),
    )

    def test_router_output_golden(self, toy300, golden):
        """Absolute router output on toy300 over a 24x24 grid."""
        grid = Grid2D(toy300.die, 24, 24)
        out = {}
        for name, overrides in self.CONFIGS:
            res = GlobalRouter(grid, RouterConfig(**overrides)).route(toy300)
            assert res.total_overflow > 0, f"{name}: pass has no overflow"
            out.update({
                f"{name}_h_demand": res.grid.h_demand,
                f"{name}_v_demand": res.grid.v_demand,
                f"{name}_via_demand": res.grid.via_demand,
                f"{name}_history": res.grid.history,
                f"{name}_congestion": res.congestion_map,
                f"{name}_totals": np.array(
                    [res.wirelength, res.n_vias, res.total_overflow]
                ),
            })
        golden.check("route", out)


class TestMCI:
    def test_momentum_inflation_golden(self, scenario, golden):
        """Three Eq. (11)-(12) rounds, the middle one deflating.

        Round 1 observes the real scenario congestion; round 2 moves
        the initially-hot cells into a cold region (above-average ->
        below-average, firing the Eq. 12 deflation); round 3 checks the
        momentum carried across the correction.
        """
        nl = scenario["netlist"]
        raw = congestion_at_cell_centers(
            nl, scenario["grid"], scenario["routing"].congestion_map
        )
        # normalize to [0, 1] so round-1 rates stay inside (r_min, r_max)
        # — saturated rates would make the golden insensitive
        c1 = raw / raw.max()
        hot = c1 > c1.mean()
        c2 = np.where(hot, 0.05 * c1, c1 + 0.2)  # hot cells escaped
        c3 = 0.5 * (c1 + c2)

        mci = MomentumInflation(nl.n_cells, InflationConfig())
        out = {}
        deflated = []
        for round_id, c in enumerate((c1, c2, c3), start=1):
            rates = mci.update(c)
            out[f"rates_r{round_id}"] = rates.copy()
            out[f"delta_rates_r{round_id}"] = mci.delta_rates.copy()
            deflated.append(mci.last_n_deflated)
        # the constructed sequence must actually trigger deflation
        assert deflated[0] == 0  # round 1 has no history
        assert deflated[1] > 0, "deflation sequence did not fire Eq. 12"
        out["n_deflated"] = np.array(deflated)
        out["size_scale"] = mci.size_scale()
        golden.check("mci", out)

    def test_deflation_shrinks_escaped_cells(self):
        """Behavioral (golden-independent): an escaped cell deflates.

        Cell 0 sits far above the round-1 mean, then lands moderately
        below the round-2 mean; the Eq. 12 negative correction
        (weighted ``1 - alpha``) outweighs the carried momentum
        (``alpha * dr^1``), so its rate shrinks within one round while
        the cells entering congestion keep inflating.
        """
        c1 = np.array([0.8, 0.05, 0.05, 0.05])
        c2 = np.array([0.25, 0.5, 0.5, 0.5])
        mci = MomentumInflation(4, InflationConfig())
        r1 = mci.update(c1).copy()
        r2 = mci.update(c2)
        assert mci.last_n_deflated == 1
        assert r2[0] < r1[0]
        assert (r2[1:] >= r1[1:]).all()


class TestDPA:
    def test_rail_selection_and_density_golden(self, scenario, golden):
        nl = scenario["netlist"]
        grid = scenario["grid"]
        rails = select_pg_rails(nl)
        assert rails, "scenario selects no PG rail piece"
        assert len(rails) >= len(nl.pg_rails) - nl.cell_macro.sum() * 2, \
            "macro cutting removed implausibly many rails"
        rail_area = rail_area_map(rails, grid)
        charge = pg_density_charge(
            grid, rail_area, scenario["routing"].congestion_map,
            PinAccessConfig(),
        )
        assert (charge > 0).any(), "scenario adjusts no density bin"
        golden.check("dpa", {
            "rail_rects": np.array(
                [[r.rect.xlo, r.rect.ylo, r.rect.xhi, r.rect.yhi] for r in rails]
            ),
            "rail_horizontal": np.array(
                [r.horizontal for r in rails], dtype=np.int8
            ),
            "rail_area": rail_area,
            "charge": charge,
        })


class TestHarnessSensitivity:
    def test_perturbation_beyond_atol_fails(self, scenario, golden):
        """The harness must flag a 2e-9 numeric drift.

        This is the guard on the guard: if the comparison tolerance
        were ever loosened past 1e-9, this test fails first.
        """
        if golden.regen:
            pytest.skip("regenerating goldens")
        path = golden.path("netmove")
        with np.load(path) as ref:
            drifted = ref["grad_x"] + 2.0 * GOLDEN_ATOL
            with pytest.raises(AssertionError):
                np.testing.assert_allclose(
                    drifted, ref["grad_x"], rtol=0.0, atol=GOLDEN_ATOL
                )

    def test_unperturbed_reference_passes(self, golden):
        if golden.regen:
            pytest.skip("regenerating goldens")
        path = golden.path("netmove")
        with np.load(path) as ref:
            np.testing.assert_allclose(
                ref["grad_x"], ref["grad_x"].copy(), rtol=0.0, atol=GOLDEN_ATOL
            )

    def test_missing_golden_names_the_fix(self, regen_golden):
        checker = GoldenChecker(regen=False)
        with pytest.raises(AssertionError, match="--regen-golden"):
            checker.check("does_not_exist", {"x": np.zeros(3)})

    def test_key_mismatch_is_reported(self, tmp_path, monkeypatch):
        import tests.golden as G

        monkeypatch.setattr(G, "DATA_DIR", str(tmp_path))
        checker = GoldenChecker(regen=True)
        checker.check("k", {"a": np.ones(2)})
        checker.regen = False
        checker.check("k", {"a": np.ones(2)})  # clean round trip
        with pytest.raises(AssertionError, match="keys"):
            checker.check("k", {"b": np.ones(2)})

    def test_non_finite_arrays_rejected(self):
        checker = GoldenChecker(regen=True)
        with pytest.raises(AssertionError, match="non-finite"):
            checker.check("bad", {"x": np.array([1.0, np.nan])})
