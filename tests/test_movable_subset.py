"""The per-iteration passes over what can move, against the all-nets forms.

WA (:class:`WAWirelength`), Alg. 1 (:func:`two_pin_net_gradients`) and
Alg. 2 (:func:`multi_pin_cell_gradients`) evaluate only the nets and
cells with a movable pin.  The all-nets forms in :mod:`tests.oracle`
must give the same per-cell gradients, bit for bit, for any
``cell_fixed`` mask: all cells movable, a single movable cell, nets
with no movable pin and a two-pin net with both pins on one cell.  A
GP run with the RD congestion closure on a partly frozen design must
follow the same trajectory, position for position, under both.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import rd_placer
from repro.core.congestion_field import CongestionField
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import NetMoveConfig, TwoPinNets, two_pin_net_gradients
from repro.core.rd_placer import RDConfig, RoutabilityDrivenPlacer
from repro.place import GlobalPlacer, GPConfig
from repro.place.initial import initial_placement
from repro.route import GlobalRouter, RouterConfig
from repro.synth import toy_design
from repro.geometry import Grid2D
from repro.wirelength.wa import WAWirelength
from tests import oracle
from tests.test_kernel_backends import _assert_match
from tests.test_property_kernels import _congestion_scene, coords16, gammas, map_seeds

ALL_MOVABLE = [False] * 8
ONE_MOVABLE = [True] * 7 + [False]
#: c2 alone: the same-cell two-pin net is the only two-pin net that moves
SAME_CELL_ONLY = [True, True, False, True, True, True, True, True]
#: pair01 and pair45 have no movable pin
NO_MOVABLE_PIN = [True, True, False, False, True, True, False, False]
ALL_FIXED = [True] * 8
POSITIONS = [0.1 * (k % 9) + 0.05 for k in range(16)]


def _assert_passes_match(netlist, grid, congestion, field, gamma, threshold):
    """WA, Alg. 1 and Alg. 2: movable subset against all nets, bit for bit."""
    wa = WAWirelength(base_unit=1.0, gamma=gamma)
    _, gx, gy = wa(netlist)
    _, ref_gx, ref_gy = oracle.wa_call(wa, netlist)
    _assert_match(gx, ref_gx, "wa grad_x")
    _assert_match(gy, ref_gy, "wa grad_y")
    weights = np.linspace(0.5, 2.0, netlist.n_nets)
    _, gx, gy = wa(netlist, weights)
    _, ref_gx, ref_gy = oracle.wa_call(wa, netlist, weights)
    _assert_match(gx, ref_gx, "weighted wa grad_x")
    _assert_match(gy, ref_gy, "weighted wa grad_y")

    cfg = NetMoveConfig()
    args = (netlist, grid, congestion, field, 0.375, cfg)
    gx, gy, info = two_pin_net_gradients(*args, TwoPinNets(netlist))
    ref_gx, ref_gy, _ = oracle.two_pin_net_gradients(*args)
    _assert_match(gx, ref_gx, "netmove grad_x")
    _assert_match(gy, ref_gy, "netmove grad_y")
    # only nets with a movable endpoint are sampled
    ends = netlist.pin_cell[np.concatenate((info["p1"], info["p2"]))]
    assert np.all(netlist.movable[ends.reshape(2, -1)].any(axis=0))

    args = (netlist, grid, congestion, field, threshold)
    gx, gy, sel = multi_pin_cell_gradients(*args)
    ref_gx, ref_gy, ref_sel = oracle.multi_pin_cell_gradients(*args)
    _assert_match(gx, ref_gx, "multipin grad_x")
    _assert_match(gy, ref_gy, "multipin grad_y")
    _assert_match(sel, ref_sel, "multipin selection")


class TestPassesAgreeOnRandomMasks:
    @given(
        positions=coords16,
        fixed_mask=st.lists(st.booleans(), min_size=8, max_size=8),
        gamma=gammas,
        map_seed=map_seeds,
        threshold=st.floats(0.0, 1.4),
    )
    @example(POSITIONS, ALL_MOVABLE, 0.5, 0, 0.3)
    @example(POSITIONS, ONE_MOVABLE, 0.5, 1, 0.3)
    @example(POSITIONS, SAME_CELL_ONLY, 0.5, 2, 0.0)
    @example(POSITIONS, NO_MOVABLE_PIN, 0.5, 3, 0.3)
    @example(POSITIONS, ALL_FIXED, 0.5, 4, 0.3)
    @settings(max_examples=40, deadline=None)
    def test_scene(self, positions, fixed_mask, gamma, map_seed, threshold):
        netlist, grid, congestion, field = _congestion_scene(
            positions, fixed_mask, map_seed
        )
        _assert_passes_match(netlist, grid, congestion, field, gamma, threshold)

    @pytest.mark.parametrize("n_movable", [1, 6, 90, None])
    def test_routed_design(self, n_movable):
        """A real routed congestion map; ``None`` keeps every cell movable."""
        netlist = toy_design(300, seed=11)
        initial_placement(netlist, 0)
        grid = Grid2D(netlist.die, 24, 20)
        routing = GlobalRouter(grid, RouterConfig()).route(netlist)
        field = CongestionField(grid, routing.utilization_map)
        if n_movable is not None:
            movable = np.flatnonzero(netlist.movable)
            keep = np.random.default_rng(n_movable).choice(
                movable, n_movable, replace=False
            )
            fixed = np.ones(netlist.n_cells, dtype=bool)
            fixed[keep] = False
            netlist.cell_fixed = fixed | netlist.cell_fixed
        _assert_passes_match(
            netlist, grid, routing.congestion_map, field, 0.5 * grid.dx, 0.0
        )


def _frozen_design():
    """Placed toy design with about a quarter of its movable cells left free."""
    netlist = toy_design(300, seed=5)
    initial_placement(netlist, 0)
    GlobalPlacer(netlist, GPConfig(max_iters=40)).run()
    movable = np.flatnonzero(netlist.movable)
    keep = np.random.default_rng(7).choice(movable, len(movable) // 4, replace=False)
    frozen = netlist.copy()
    fixed = np.ones(netlist.n_cells, dtype=bool)
    fixed[keep] = False
    frozen.cell_fixed = fixed | netlist.cell_fixed
    return frozen


def _closure_run(netlist):
    """30 GP iterations with the RD congestion closure of one round."""
    rd = RoutabilityDrivenPlacer(
        netlist, RDConfig(gp=GPConfig(max_iters=30), multipin_threshold=0.0)
    )
    routing = rd.router.route(netlist)
    field = CongestionField(rd.gp.grid, routing.utilization_map)
    rd.gp.extra_grad_fn = rd._make_congestion_grad(field, routing.congestion_map)
    rd.gp.run(max_iters=30, min_iters=30)
    return rd


def test_closure_run_matches_all_nets_passes():
    """A partly frozen GP run follows the all-nets trajectory exactly."""
    frozen = _frozen_design()
    assert 0 < frozen.movable.sum() < frozen.n_cells // 2
    got = frozen.copy()
    rd = _closure_run(got)
    ref = frozen.copy()
    with oracle.all_nets_passes():
        assert rd_placer.two_pin_net_gradients is oracle.two_pin_net_gradients
        ref_rd = _closure_run(ref)
    # both congestion techniques fired, so the comparison covers them
    assert rd.last_netmove_l1 > 0 and rd.last_multipin_l1 > 0
    assert len(rd.gp.history) == len(ref_rd.gp.history) == 30
    _assert_match(got.x, ref.x, "x")
    _assert_match(got.y, ref.y, "y")
    _assert_match(rd.gp.filler_x, ref_rd.gp.filler_x, "filler x")
    assert rd.gp.history.series("hpwl") == ref_rd.gp.history.series("hpwl")
    assert rd.last_lambda2 == ref_rd.last_lambda2
