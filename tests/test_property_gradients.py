"""Hypothesis property tests for the Alg. 1 / Alg. 2 gradient chains.

Two structural properties the differential checker cannot cover:

* fixed cells receive *exactly* zero gradient, whatever the scene;
* the whole construction is translation-invariant — shifting the die,
  the grid and every cell by one uniform offset leaves the gradients
  (computed in the shifted frame) numerically unchanged.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.congestion_field import CongestionField
from repro.core.multipin import multi_pin_cell_gradients
from repro.core.netmove import two_pin_net_gradients
from repro.geometry import Grid2D, Rect
from repro.netlist import CellSpec, Netlist, NetSpec, PinSpec


def _scene(positions, fixed_mask, shift=(0.0, 0.0)):
    """Deterministic multi-net scene, optionally in a shifted frame.

    ``positions`` is a flat list of coordinates in (0, 1) fractions of
    the usable die interior; cells are paired into two-pin nets, and
    every cell additionally joins one shared multi-pin net so the
    Alg. 2 hub selection has structure to work with.
    """
    sx, sy = shift
    die = Rect(0.0 + sx, 0.0 + sy, 10.0 + sx, 10.0 + sy)
    grid = Grid2D(die, 20, 20)
    cells = []
    nets = []
    n = len(positions) // 2
    for k in range(n):
        x = die.xlo + 1.5 + 7.0 * positions[2 * k]
        y = die.ylo + 1.5 + 7.0 * positions[2 * k + 1]
        cells.append(
            CellSpec(f"c{k}", 0.5, 0.5, x=x, y=y, fixed=bool(fixed_mask[k]))
        )
    for k in range(0, n - 1, 2):
        nets.append(
            NetSpec(f"n{k}", pins=[PinSpec(f"c{k}"), PinSpec(f"c{k + 1}")])
        )
    # a hub net touching every cell gives some cells above-average pin
    # counts once paired with the two-pin nets
    nets.append(NetSpec("hub", pins=[PinSpec(f"c{k}") for k in range(n)]))
    netlist = Netlist.from_specs("prop", die, cells, nets)

    gx, gy = grid.centers()
    congestion = 0.3 + np.exp(
        -((gx - die.xlo - 5.0) ** 2 + (gy - die.ylo - 5.0) ** 2) / 8.0
    )
    field = CongestionField(grid, congestion)
    return netlist, grid, congestion, field


def _round_trips(nl0, nl1, shift) -> bool:
    """True when the shifted scene is exactly the unshifted one moved.

    Adding the shift can round a coordinate (``1.5 + 2.2e-16 + 15``
    loses the epsilon), and then the two frames describe different
    scenes, which translation invariance says nothing about.
    """
    sx, sy = shift
    return bool(np.all(nl1.x - sx == nl0.x) and np.all(nl1.y - sy == nl0.y))


coords = st.lists(
    st.floats(0.0, 1.0, allow_nan=False, width=32), min_size=12, max_size=12
)
fixed6 = st.lists(st.booleans(), min_size=6, max_size=6)


class TestFixedCellsGetZeroGradient:
    @given(positions=coords, fixed_mask=fixed6)
    @settings(max_examples=25, deadline=None)
    def test_netmove_fixed_exactly_zero(self, positions, fixed_mask):
        netlist, grid, congestion, field = _scene(positions, fixed_mask)
        grad_x, grad_y, _ = two_pin_net_gradients(
            netlist, grid, congestion, field, virtual_area=0.25
        )
        assert np.all(grad_x[netlist.cell_fixed] == 0.0)
        assert np.all(grad_y[netlist.cell_fixed] == 0.0)
        assert np.isfinite(grad_x).all() and np.isfinite(grad_y).all()

    @given(positions=coords, fixed_mask=fixed6)
    @settings(max_examples=25, deadline=None)
    def test_multipin_fixed_exactly_zero(self, positions, fixed_mask):
        netlist, grid, congestion, field = _scene(positions, fixed_mask)
        grad_x, grad_y, selected = multi_pin_cell_gradients(
            netlist, grid, congestion, field, threshold=0.2
        )
        assert np.all(grad_x[netlist.cell_fixed] == 0.0)
        assert np.all(grad_y[netlist.cell_fixed] == 0.0)
        assert not np.any(selected & netlist.cell_fixed)


class TestTranslationInvariance:
    @given(
        positions=coords,
        shift=st.tuples(
            st.floats(-40.0, 40.0, allow_nan=False, width=32),
            st.floats(-40.0, 40.0, allow_nan=False, width=32),
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_netmove_translation_invariant(self, positions, shift):
        fixed = [False] * 6
        nl0, g0, c0, f0 = _scene(positions, fixed)
        nl1, g1, c1, f1 = _scene(positions, fixed, shift=shift)
        assume(_round_trips(nl0, nl1, shift))
        gx0, gy0, _ = two_pin_net_gradients(nl0, g0, c0, f0, virtual_area=0.25)
        gx1, gy1, _ = two_pin_net_gradients(nl1, g1, c1, f1, virtual_area=0.25)
        np.testing.assert_allclose(gx1, gx0, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gy1, gy0, rtol=1e-9, atol=1e-9)

    @given(
        positions=coords,
        shift=st.tuples(
            st.floats(-40.0, 40.0, allow_nan=False, width=32),
            st.floats(-40.0, 40.0, allow_nan=False, width=32),
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_multipin_translation_invariant(self, positions, shift):
        fixed = [False] * 6
        nl0, g0, c0, f0 = _scene(positions, fixed)
        nl1, g1, c1, f1 = _scene(positions, fixed, shift=shift)
        assume(_round_trips(nl0, nl1, shift))
        gx0, gy0, s0 = multi_pin_cell_gradients(nl0, g0, c0, f0, threshold=0.2)
        gx1, gy1, s1 = multi_pin_cell_gradients(nl1, g1, c1, f1, threshold=0.2)
        assert np.array_equal(s0, s1)
        np.testing.assert_allclose(gx1, gx0, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(gy1, gy0, rtol=1e-9, atol=1e-9)
