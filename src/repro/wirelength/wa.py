"""Weighted-average (WA) smooth wirelength model [Hsu et al., DAC'11].

The paper (Sec. II-A) minimizes, per net ``e`` and direction ``x``::

    WA_e = sum_i x_i e^{x_i/gamma} / sum_i e^{x_i/gamma}
         - sum_i x_i e^{-x_i/gamma} / sum_i e^{-x_i/gamma}

which smoothly approximates ``max_i x_i - min_i x_i`` (HPWL per axis).
This module evaluates the objective and its analytic gradient with
respect to cell centers in a fully vectorized, numerically stable way
(exponentials are shifted by the per-net max/min before exponentiation).

Gradient formulas (derived by differentiating the quotient; the shift
cancels)::

    d WA+/d x_i = a_i (1 + (x_i - WA+)/gamma) / S,   a_i = e^{(x_i-mx)/gamma}
    d WA-/d x_i = b_i (1 - (x_i - WA-)/gamma) / T,   b_i = e^{-(x_i-mn)/gamma}
    d WA /d x_i = d WA+/d x_i - d WA-/d x_i

Per-net max/min come from a column sweep over the net-sorted pin
layout instead of ``np.{maximum,minimum}.reduceat`` (which pays a
per-segment dispatch for tens of thousands of tiny nets): column ``d``
updates the running max/min of every net with more than ``d`` pins in
one vectorized step.  Max/min are exact, so any evaluation order gives
the same bits as ``reduceat``.  The layout and the per-pin scratch
buffers are pure functions of the immutable topology and are cached on
the netlist.  ``tests/oracle.py`` keeps the straight-line ``reduceat``
form, and the tests pin this module to it at ``atol=0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist


class _WALayout:
    """Net-sorted pin structure plus the column-sweep layout of one netlist.

    ``order``/``starts``/``seg``/``degrees`` are the CSR view of the
    nets; ``columns[d - 1]`` lists the nets with more than ``d`` pins
    and the net-sorted position of their ``d``-th pin.  Segments follow
    ``reduceat`` semantics on the clamped starts (an empty trailing net
    reads one pin of its predecessor), so the sweep equals ``reduceat``
    bit for bit.
    """

    def __init__(self, netlist: Netlist) -> None:
        order = netlist.net_pin_order
        starts = netlist.net_pin_starts[:-1]
        degrees = netlist.net_degrees()
        m = len(order)
        self.order = order
        self.starts = starts
        self.seg = netlist.pin_net[order]
        self.degrees = degrees
        self.n_nets = netlist.n_nets
        self.m = m
        safe = np.minimum(starts, max(m - 1, 0))
        ends = np.append(safe[1:], m)
        width = np.maximum(ends - safe, 1)
        self.safe = safe
        self.columns = []
        for col in range(1, int(width.max(initial=1))):
            ids = np.flatnonzero(width > col)
            self.columns.append((ids, safe[ids] + col))
        self.valid = degrees >= 2
        self.valid_seg = self.valid[self.seg]
        # per-pin scratch: coordinate gather, shifted exps, two temps and
        # the two gradient accumulators; overwritten on every call
        self.c, self.a, self.b, self.t1, self.t2, self.ga, self.gb = (
            np.empty(m) for _ in range(7)
        )

    def segment_max_min(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-net max and min of net-sorted ``c`` via the column sweep."""
        mx = np.take(c, self.safe)
        mn = mx.copy()
        for ids, pos in self.columns:
            v = np.take(c, pos)
            cur = mx[ids]
            np.maximum(cur, v, out=cur)
            mx[ids] = cur
            cur = mn[ids]
            np.minimum(cur, v, out=cur)
            mn[ids] = cur
        return mx, mn


def _wa_structure(netlist: Netlist) -> _WALayout:
    """The netlist's :class:`_WALayout`, built once and cached on it.

    Topology is immutable and :meth:`Netlist.copy` creates a fresh
    object, which rebuilds the cache.
    """
    cache = getattr(netlist, "_wa_structure_cache", None)
    if cache is None:
        cache = netlist._wa_structure_cache = _WALayout(netlist)
    return cache


def _wa_axis(
    coords: np.ndarray, layout: _WALayout, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA wirelength and per-pin gradient along one axis.

    Returns ``(wl_per_net, grad_per_pin)`` with the gradient in
    original pin order; nets with fewer than two pins yield zeros.  The
    elementwise chain runs through the layout's scratch with ``out=``
    ufuncs.  Its only reorderings are commutations, which are exact in
    IEEE arithmetic (``x + 1.0`` for ``1.0 + x``, ``(1+g)*a`` for
    ``a*(1+g)``).
    """
    n_nets = layout.n_nets
    if layout.m == 0:
        return np.zeros(n_nets), np.zeros(0)
    seg = layout.seg
    c = layout.c
    np.take(coords, layout.order, out=c)
    mx, mn = layout.segment_max_min(c)

    # a = exp((c - mx[seg]) / gamma)
    a = layout.a
    np.take(mx, seg, out=a)
    np.subtract(c, a, out=a)
    a /= gamma
    np.exp(a, out=a)
    # b = exp(-(c - mn[seg]) / gamma)
    b = layout.b
    np.take(mn, seg, out=b)
    np.subtract(c, b, out=b)
    np.negative(b, out=b)
    b /= gamma
    np.exp(b, out=b)

    t1 = layout.t1
    np.multiply(c, a, out=t1)
    s_plus = np.bincount(seg, weights=a, minlength=n_nets)
    p_plus = np.bincount(seg, weights=t1, minlength=n_nets)
    np.multiply(c, b, out=t1)
    s_minus = np.bincount(seg, weights=b, minlength=n_nets)
    p_minus = np.bincount(seg, weights=t1, minlength=n_nets)

    s_plus_safe = np.where(s_plus > 0, s_plus, 1.0)
    s_minus_safe = np.where(s_minus > 0, s_minus, 1.0)
    wa_plus = p_plus / s_plus_safe
    wa_minus = p_minus / s_minus_safe
    wl = np.where(layout.valid, wa_plus - wa_minus, 0.0)

    # grad_plus = a * (1 + (c - wa_plus[seg]) / gamma) / s_plus_safe[seg]
    ga = layout.ga
    np.take(wa_plus, seg, out=ga)
    np.subtract(c, ga, out=ga)
    ga /= gamma
    ga += 1.0
    np.multiply(ga, a, out=ga)
    t2 = layout.t2
    np.take(s_plus_safe, seg, out=t2)
    np.divide(ga, t2, out=ga)
    # grad_minus = b * (1 - (c - wa_minus[seg]) / gamma) / s_minus_safe[seg]
    gb = layout.gb
    np.take(wa_minus, seg, out=gb)
    np.subtract(c, gb, out=gb)
    gb /= gamma
    np.subtract(1.0, gb, out=gb)
    np.multiply(gb, b, out=gb)
    np.take(s_minus_safe, seg, out=t2)
    np.divide(gb, t2, out=gb)

    np.subtract(ga, gb, out=ga)
    grad = np.zeros(layout.m)
    grad[layout.order] = np.where(layout.valid_seg, ga, 0.0)
    return wl, grad


def wa_wirelength_and_grad(
    netlist: Netlist,
    gamma: float,
    net_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total WA wirelength and its gradient w.r.t. cell centers.

    Returns ``(wl, grad_x, grad_y)`` with per-cell gradient arrays.
    Fixed cells receive zero gradient.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    px, py = netlist.pin_positions()
    layout = _wa_structure(netlist)
    wl_x, gpin_x = _wa_axis(px, layout, gamma)
    wl_y, gpin_y = _wa_axis(py, layout, gamma)

    if net_weights is not None:
        wl = float((net_weights * (wl_x + wl_y)).sum())
        wpin = net_weights[netlist.pin_net]
        gpin_x = gpin_x * wpin
        gpin_y = gpin_y * wpin
    else:
        wl = float(wl_x.sum() + wl_y.sum())

    grad_x = np.bincount(netlist.pin_cell, weights=gpin_x, minlength=netlist.n_cells)
    grad_y = np.bincount(netlist.pin_cell, weights=gpin_y, minlength=netlist.n_cells)
    grad_x[netlist.cell_fixed] = 0.0
    grad_y[netlist.cell_fixed] = 0.0
    return wl, grad_x, grad_y


@dataclass
class WAWirelength:
    """Stateful WA objective with the ePlace-style gamma schedule.

    ``gamma`` shrinks as density overflow decreases, tightening the
    HPWL approximation toward convergence:
    ``gamma = gamma_0 * base_unit * 10^(k*overflow + b)`` following the
    piecewise-linear schedule of ePlace.
    """

    base_unit: float
    gamma0: float = 0.5
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            self.gamma = 8.0 * self.gamma0 * self.base_unit

    def update_gamma(self, overflow: float) -> float:
        """Adapt gamma to the current density overflow (in [0, ~1])."""
        k, b = 20.0 / 9.0, -11.0 / 9.0
        coef = 10.0 ** (k * min(max(overflow, 0.0), 1.0) + b)
        self.gamma = self.gamma0 * self.base_unit * 8.0 * coef
        return self.gamma

    def __call__(
        self, netlist: Netlist, net_weights: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        return wa_wirelength_and_grad(netlist, self.gamma, net_weights)
