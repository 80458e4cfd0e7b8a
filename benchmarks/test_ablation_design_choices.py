"""Component-level ablations of design choices called out in DESIGN.md.

Not paper artifacts, but the knobs a user would want quantified:

* momentum coefficient ``alpha`` of the cell-inflation recursion;
* candidate-sample cap of the two-pin net-moving (Eq. 6 fidelity);
* maze-routing fallback on top of Z-shape rip-up-and-reroute.
"""

from __future__ import annotations

import numpy as np
import pytest
from conftest import run_once

from repro.core import CongestionField, InflationConfig, MomentumInflation, NetMoveConfig, two_pin_net_gradients
from repro.place import GlobalPlacer, GPConfig, initial_placement
from repro.route import GlobalRouter, RouterConfig
from repro.synth import suite_design


@pytest.fixture(scope="module")
def placed():
    netlist = suite_design("matrix_mult_b", scale=0.5)
    initial_placement(netlist, 0)
    placer = GlobalPlacer(netlist, GPConfig(max_iters=400))
    placer.run()
    return netlist, placer


def test_ablation_momentum_alpha(benchmark):
    """Higher alpha -> smoother inflation response to a congestion pulse."""

    def experiment():
        pulse = [0.8, 0.8, 0.0, 0.0, 0.0, 0.0]
        curves = {}
        for alpha in (0.0, 0.4, 0.8):
            infl = MomentumInflation(1, InflationConfig(alpha=alpha))
            curves[alpha] = [float(infl.update(np.array([c]))[0]) for c in pulse]
        return curves

    curves = run_once(benchmark, experiment)
    print("\nalpha sweep (rate after congestion pulse 0.8,0.8,0,0,0,0):")
    for alpha, curve in curves.items():
        print(f"  alpha={alpha}: {[round(v, 3) for v in curve]}")
    # with more momentum, the rate keeps growing longer after the pulse
    assert curves[0.8][3] >= curves[0.0][3] - 1e-9
    # all stay clamped
    for curve in curves.values():
        assert max(curve) <= 2.0


def test_ablation_netmove_samples(benchmark, placed):
    """Eq. 6 sampling density: coarse sampling misses congestion peaks."""
    netlist, placer = placed
    routing = GlobalRouter(placer.grid).route(netlist)
    fld = CongestionField(placer.grid, routing.utilization_map)
    cong = routing.congestion_map

    def experiment():
        out = {}
        for cap in (2, 8, 48):
            gx, gy, info = two_pin_net_gradients(
                netlist, placer.grid, cong, fld, 0.3, NetMoveConfig(max_samples=cap)
            )
            out[cap] = int(info["active"].sum())
        return out

    active = run_once(benchmark, experiment)
    print(f"\nactive two-pin nets by sample cap: {active}")
    # denser sampling can only find at-least-as-many congested crossings
    assert active[48] >= active[8] >= active[2]


def test_ablation_maze_fallback(benchmark, placed):
    """Maze fallback must never increase overflow (admission control)."""
    netlist, placer = placed

    def experiment():
        off = GlobalRouter(
            placer.grid, RouterConfig(rrr_rounds=1, maze_fallback=False)
        ).route(netlist)
        on = GlobalRouter(
            placer.grid, RouterConfig(rrr_rounds=1, maze_fallback=True)
        ).route(netlist)
        return off.total_overflow, on.total_overflow

    off, on = run_once(benchmark, experiment)
    print(f"\nmaze fallback: overflow {off:.0f} -> {on:.0f}")
    assert on <= off + 1e-6
