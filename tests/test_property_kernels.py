"""Hypothesis property: call sites agree with the oracle on random scenes.

The equivalence tests in ``test_kernel_backends.py`` pin one frozen
scenario; this module lets hypothesis hunt for a scene where a call
site diverges from :mod:`tests.oracle`.  Scenes deliberately include
the degenerate structure the bucketed/broadcast layouts are most
sensitive to:

* **same-cell nets** — both pins on one cell, so per-net max == min and
  the shifted exponentials all collapse to ``e^0``;
* **fixed cells** — which must receive exactly zero gradient;
* **single-pin nets** — degree < 2 nets interleaved between real ones,
  shifting the CSR segment boundaries (the regime where the reference's
  ``reduceat`` start-clamp quirk is live);
* **coincident / boundary-hugging cells** — zero-width overlap windows
  in the rasterizer, repeated bin samples in the Alg. 1 virtual-cell
  search and zero-length two-pin routes;
* **random congestion maps** — arbitrary per-bin values (and therefore
  arbitrary arg-max ties) for the net-moving gradients and the
  batched router's bend choice;
* **empty nets, a trailing empty net and duplicate pins** — the HPWL
  spans read from the WA buckets, whose clamped segments shorten the
  net before a trailing empty one;
* **a rasterizer moved between position sets** — including a wide cell
  whose boundary clipping moves it between the small and large paths.

Every call site must match the oracle bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.congestion_field import CongestionField
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import (
    NetMoveConfig,
    two_pin_net_gradients,
    virtual_cell_positions,
)
from repro.density.rasterize import CellRasterizer
from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec
from repro.route import GlobalRouter, RouterConfig
from repro.wirelength import hpwl, hpwl_per_net
from repro.wirelength.wa import wa_wirelength_and_grad
from tests import oracle
from tests.oracle import oracle_kernels
from tests.test_kernel_backends import _assert_match


def _scene(positions, fixed_mask):
    """Random 8-cell scene with degenerate nets mixed into the CSR.

    Cells land anywhere on (and slightly past) the die so the raster
    clip paths fire; nets cover two-pin, same-cell two-pin, single-pin
    and a hub net over every cell.
    """
    die = Rect(0.0, 0.0, 12.0, 12.0)
    cells = []
    n = len(positions) // 2
    for k in range(n):
        x = die.xlo + 13.0 * positions[2 * k] - 0.5
        y = die.ylo + 13.0 * positions[2 * k + 1] - 0.5
        cells.append(
            CellSpec(
                f"c{k}", 0.75, 0.5, x=x, y=y, fixed=bool(fixed_mask[k])
            )
        )
    nets = [
        NetSpec("pair01", [PinSpec("c0", 0.1, 0.0), PinSpec("c1", -0.1, 0.0)]),
        # degenerate: both pins on the same cell (max == min per axis)
        NetSpec("same2", [PinSpec("c2"), PinSpec("c2", 0.05, -0.05)]),
        # degree-1 net between real ones shifts every later CSR start
        NetSpec("lone3", [PinSpec("c3")]),
        NetSpec("pair45", [PinSpec("c4"), PinSpec("c5", 0.0, 0.2)]),
        NetSpec("hub", [PinSpec(f"c{k}") for k in range(n)]),
        # trailing degree-1 net: starts[-1] near the pin-count boundary,
        # the regime the reference reduceat clamp actually changes
        NetSpec("tail", [PinSpec("c6")]),
    ]
    return Netlist.from_specs("prop", die, cells, nets), die


coords16 = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=16, max_size=16
)
fixed8 = st.lists(st.booleans(), min_size=8, max_size=8)
gammas = st.floats(0.05, 8.0, allow_nan=False)
map_seeds = st.integers(0, 2**32 - 1)


#: nets as lists of ``(cell, pin offset)``; degrees 0-5, so empty,
#: single-pin and duplicate-pin nets all occur
pin_lists = st.lists(
    st.lists(
        st.tuples(st.integers(0, 7), st.sampled_from([0.0, 0.125, -0.25])),
        max_size=5,
    ),
    min_size=1,
    max_size=8,
)


def _net_scene(positions, nets, trailing_empty):
    """Eight cells and the given nets, optionally plus an empty last net."""
    die = Rect(0.0, 0.0, 12.0, 12.0)
    cells = [
        CellSpec(f"c{k}", 0.75, 0.5,
                 x=13.0 * positions[2 * k] - 0.5, y=13.0 * positions[2 * k + 1] - 0.5)
        for k in range(8)
    ]
    specs = [
        NetSpec(f"n{i}", [PinSpec(f"c{c}", off, -off) for c, off in pins])
        for i, pins in enumerate(nets)
    ]
    if trailing_empty:
        specs.append(NetSpec("tail", []))
    return Netlist.from_specs("hpwl", die, cells, specs)


def _congestion_scene(positions, fixed_mask, map_seed):
    """Scene plus a 12x12 grid, a random congestion map and its field."""
    netlist, die = _scene(positions, fixed_mask)
    grid = Grid2D(die, 12, 12)
    congestion = 1.5 * np.random.default_rng(map_seed).random(grid.shape)
    return netlist, grid, congestion, CongestionField(grid, congestion)


class TestOracleAgrees:
    @given(positions=coords16, fixed_mask=fixed8, gamma=gammas)
    @settings(max_examples=30, deadline=None)
    def test_wa_wirelength_and_grad(self, positions, fixed_mask, gamma):
        netlist, _ = _scene(positions, fixed_mask)
        with oracle_kernels():
            ref = wa_wirelength_and_grad(netlist, gamma)
        wl, gx, gy = wa_wirelength_and_grad(netlist, gamma)
        _assert_match(wl, ref[0], "wa wl")
        _assert_match(gx, ref[1], "wa grad_x")
        _assert_match(gy, ref[2], "wa grad_y")
        assert np.all(gx[netlist.cell_fixed] == 0.0)
        assert np.all(gy[netlist.cell_fixed] == 0.0)

    @given(positions=coords16, fixed_mask=fixed8)
    @settings(max_examples=30, deadline=None)
    def test_rasterized_density(self, positions, fixed_mask):
        netlist, die = _scene(positions, fixed_mask)
        grid = Grid2D(die, 12, 12)
        args = (grid, netlist.x, netlist.y, netlist.cell_width, netlist.cell_height)
        with oracle_kernels():
            ref_raster = CellRasterizer(*args)
            ref_charge = ref_raster.charge_map()
            field = np.sin(ref_charge)
            ref_gather = ref_raster.gather(field)
        raster = CellRasterizer(*args)
        _assert_match(raster.charge_map(), ref_charge, "charge")
        _assert_match(raster.gather(field), ref_gather, "gather")

    @given(
        first=coords16,
        second=coords16,
        wide=st.floats(0.25, 9.0, allow_nan=False),
        field_seed=map_seeds,
    )
    # the wide cell is large at the center and small clipped at the corner
    @example(first=[0.5] * 16, second=[0.0] * 16, wide=8.0, field_seed=1)
    @settings(max_examples=30, deadline=None)
    def test_moved_rasterizer(self, first, second, wide, field_seed):
        """``move_to`` equals the per-call rasterizer built at the new centers."""
        grid = Grid2D(Rect(0.0, 0.0, 12.0, 12.0), 12, 12)
        w = np.array([0.75] * 7 + [wide])
        h = np.array([0.5] * 7 + [0.8 * wide])
        xa, ya = (13.0 * np.array(first[k::2]) - 0.5 for k in (0, 1))
        xb, yb = (13.0 * np.array(second[k::2]) - 0.5 for k in (0, 1))
        fx, fy = np.random.default_rng(field_seed).normal(size=(2, *grid.shape))
        raster = CellRasterizer(grid, xa, ya, w, h)
        for x, y in ((xa, ya), (xb, yb)):
            raster.move_to(x, y)
            ref = oracle.CellRasterizer(grid, x, y, w, h)
            _assert_match(raster.charge_map(), ref.charge_map(), "charge")
            _assert_match(raster.gather(fx), ref.gather(fx), "gather")
            both = raster.gather_xy(fx, fy)
            _assert_match(both[0], ref.gather(fx), "gather_xy x")
            _assert_match(both[1], ref.gather(fy), "gather_xy y")
            assert raster.total_charge() == ref.total_charge()

    @given(
        positions=coords16,
        nets=pin_lists,
        trailing_empty=st.booleans(),
        weight_seed=map_seeds,
    )
    @example(
        positions=[0.5] * 16,
        nets=[[(0, 0.0), (1, 0.125)], [], [(2, 0.0)], [(3, 0.0), (3, 0.0), (4, -0.25)]],
        trailing_empty=True,
        weight_seed=0,
    )
    @settings(max_examples=60, deadline=None)
    def test_hpwl(self, positions, nets, trailing_empty, weight_seed):
        """HPWL from the WA buckets equals the ``reduceat`` form."""
        netlist = _net_scene(positions, nets, trailing_empty)
        weights = np.random.default_rng(weight_seed).uniform(0.5, 2.0, netlist.n_nets)
        for w in (None, weights):
            ref = oracle.hpwl_per_net(netlist, w)
            _assert_match(hpwl_per_net(netlist, w), ref, "hpwl_per_net")
            assert hpwl(netlist, w) == float(ref.sum())

    @given(positions=coords16, fixed_mask=fixed8, map_seed=map_seeds)
    @settings(max_examples=30, deadline=None)
    def test_netmove_gradients(self, positions, fixed_mask, map_seed):
        netlist, grid, congestion, field = _congestion_scene(
            positions, fixed_mask, map_seed
        )
        cfg = NetMoveConfig(min_congestion=0.0)
        args = (netlist, grid, congestion)
        with oracle_kernels():
            ref_info = virtual_cell_positions(*args, cfg)
            ref_gx, ref_gy, _ = two_pin_net_gradients(*args, field, 0.375, cfg)
        info = virtual_cell_positions(*args, cfg)
        for key in ("xv", "yv", "congestion"):
            _assert_match(info[key], ref_info[key], f"netmove {key}")
        gx, gy, _ = two_pin_net_gradients(*args, field, 0.375, cfg)
        _assert_match(gx, ref_gx, "netmove grad_x")
        _assert_match(gy, ref_gy, "netmove grad_y")

    @given(
        positions=coords16,
        fixed_mask=fixed8,
        map_seed=map_seeds,
        threshold=st.floats(0.0, 1.5, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_multipin_gradients(self, positions, fixed_mask, map_seed, threshold):
        netlist, grid, congestion, field = _congestion_scene(
            positions, fixed_mask, map_seed
        )
        args = (netlist, grid, congestion, field)
        with oracle_kernels():
            ref_gx, ref_gy, ref_sel = multi_pin_cell_gradients(
                *args, threshold=threshold
            )
        gx, gy, sel = multi_pin_cell_gradients(*args, threshold=threshold)
        _assert_match(gx, ref_gx, "multipin grad_x")
        _assert_match(gy, ref_gy, "multipin grad_y")
        assert np.array_equal(sel, ref_sel)

    @given(positions=coords16, fixed_mask=fixed8)
    @settings(max_examples=30, deadline=None)
    def test_batched_routing(self, positions, fixed_mask):
        netlist, die = _scene(positions, fixed_mask)
        grid = Grid2D(die, 12, 12)
        with oracle_kernels():
            ref = GlobalRouter(grid, RouterConfig()).route(netlist)
        out = GlobalRouter(grid, RouterConfig()).route(netlist)
        _assert_match(out.congestion_map, ref.congestion_map, "route congestion")
        _assert_match(out.utilization_map, ref.utilization_map, "route utilization")
        assert out.wirelength == ref.wirelength
        assert out.n_vias == ref.n_vias
