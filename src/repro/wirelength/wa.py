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

Both axes and both signs run as one ``(4, m)`` array over the
net-sorted pins, rows ``x, y, -x, -y``.  The minus terms are the plus
terms of the negated coordinates: ``min c = -max(-c)``,
``b_i = e^{(-x_i - max(-x))/gamma}`` and ``WA- = -WA+(-x)``.  Negation
is exact and rounding is sign-symmetric, so each row reproduces the
separate per-axis, per-sign chain bit for bit, while every numpy call
serves all four.

Per-net maxima come from width buckets instead of
``np.maximum.reduceat`` (which pays a per-segment dispatch for tens of
thousands of tiny nets).  The nets are ranked by descending pin count
and cut into a few buckets; each bucket gathers its nets' pins into
one ``(4, nets, width)`` block, padded by repeating a net's last pin,
and reduces it in one call.  Padding at most doubles a bucket's pins
(small blocks may pad more, see :func:`_buckets`), and max is exact,
so the result equals ``reduceat`` bit for bit.  The layout and the
per-pin scratch buffers are pure functions of the immutable topology;
the all-nets layout of the last topology used is cached process-wide
(netlist copies share their topology arrays, so they share it too).
``tests/oracle.py`` keeps the straight-line ``reduceat`` form, and the
tests pin this module to it at ``atol=0``.  :meth:`_WALayout.hpwl`
reads the same bucket maxima for the exact HPWL: ``max - min`` of a
row is ``mx[x] + mx[-x]``.

The placer's objective, :class:`WAWirelength`, evaluates a layout
built over the nets with at least one movable pin only.  A net whose
pins all sit on fixed cells contributes a constant to the wirelength
and nothing to any gradient that survives the fixed-cell mask, and
every movable cell's pins belong to kept nets, so the per-cell
gradients are the all-nets ones bit for bit.  On a mostly frozen
design (an ECO re-place) the evaluation scales with the movable part.
:func:`wa_wirelength_and_grad` keeps the all-nets value.  When every
net has a movable pin the two layouts are one object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist


class _WALayout:
    """Net-sorted pin structure plus the padded max buckets of some nets.

    The layout covers a subset of the nets (all of them by default) and
    the pins of those nets, its *local* pins, kept in ascending global
    pin order.  ``pin_cell``/``pin_offset_x``/``pin_offset_y`` and
    ``pin_net`` (the layout's own net index) are per local pin;
    ``order``/``starts``/``seg``/``degrees`` are the CSR view of the
    nets over local pin indices.

    The kernel labels nets by ``rank``, their position in the ranking
    by descending width (stable).  Each entry ``(lo, hi, pad)`` of
    ``buckets`` covers the ranks ``lo:hi``; ``pad[d, r, k]`` is the
    flat ``(4, m)`` index of row ``r`` of the ``d``-th pin of net
    ``lo + k``, its last pin repeated past its width.  Segments follow
    ``reduceat`` semantics on the clamped starts (an empty trailing net
    reads one pin of its predecessor, which loses its last pin), so the
    reduction equals ``reduceat`` bit for bit.  ``tail_rank`` is the
    rank of that shortened net, or None.
    """

    def __init__(self, netlist: Netlist, net_mask: np.ndarray | None = None) -> None:
        if net_mask is None:
            net_mask = np.ones(netlist.n_nets, dtype=bool)
        self.nets = np.flatnonzero(net_mask)
        keep = net_mask[netlist.pin_net]
        pins = np.flatnonzero(keep)
        local_net = np.cumsum(net_mask) - 1
        local_pin = np.cumsum(keep) - 1
        self.pin_cell = netlist.pin_cell[pins]
        self.pin_offset_x = netlist.pin_offset_x[pins]
        self.pin_offset_y = netlist.pin_offset_y[pins]
        self.pin_net = local_net[netlist.pin_net[pins]]
        # net-sorted order restricted to the kept pins keeps every net's
        # pins in their all-nets sequence
        global_order = netlist.net_pin_order
        order = local_pin[global_order[keep[global_order]]]
        degrees = netlist.net_degrees()[self.nets]
        starts = np.cumsum(degrees) - degrees
        m = len(order)
        n = len(degrees)
        self.order = order
        self.starts = starts
        self.seg = self.pin_net[order]
        self.degrees = degrees
        self.n_nets = n
        self.m = m
        safe = np.minimum(starts, max(m - 1, 0))
        ends = np.append(safe[1:], m)
        width = np.maximum(ends - safe, 1)
        by_width = np.argsort(-width, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[by_width] = np.arange(n)
        first = safe[by_width]
        ranked_width = width[by_width]
        self.buckets = []
        row_base = (np.arange(4) * m)[None, :, None]
        for lo, hi in _buckets(ranked_width):
            w = ranked_width[None, lo:hi]
            cols = np.arange(int(w[0, 0]))[:, None]
            pad = first[None, lo:hi] + np.minimum(cols, w - 1)
            # flat (width, row, net) index into the (4, m) block, so the
            # max reduces over the leading axis in contiguous runs
            self.buckets.append((lo, hi, pad[:, None, :] + row_base))
        # kernel-side indices, flat over the (4, n) / (4, m) row blocks:
        # the ranked net of every net-sorted pin, once per row
        seg_rank = self.rank[self.seg]
        self.seg4 = np.concatenate([seg_rank + r * n for r in range(4)])
        self.valid_rank = (degrees >= 2)[by_width]
        self.valid_seg = self.valid_rank[seg_rank]
        nonempty = np.flatnonzero(degrees)
        self.tail_rank = (
            int(self.rank[nonempty[-1]])
            if len(nonempty) and degrees[-1] == 0
            else None
        )
        # net-sorted cells and offsets, and the way back to pin order
        self.cell_sorted = self.pin_cell[order]
        self.offset_sorted = np.stack(
            (self.pin_offset_x[order], self.pin_offset_y[order])
        )
        position = np.empty(m, dtype=np.int64)
        position[order] = np.arange(m)
        self.unsort2 = np.concatenate((position, position + m))
        # per-cell scatter of both axes in one bincount, pin order kept
        n_cells = netlist.n_cells
        self.cell2 = np.concatenate((self.pin_cell, self.pin_cell + n_cells))
        # per-row scratch: coordinates, shifted exps and the gradient
        self.c, self.a, self.t = (np.empty((4, m)) for _ in range(3))

    def coords(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Net-sorted pin coordinates at cell centers ``x``/``y``.

        Fills and returns the ``(4, m)`` scratch ``c`` with the rows
        ``x, y, -x, -y``; pin coordinates are
        :meth:`Netlist.pin_positions`' sums.
        """
        c = self.c
        np.take(x, self.cell_sorted, out=c[0])
        np.take(y, self.cell_sorted, out=c[1])
        np.add(c[:2], self.offset_sorted, out=c[:2])
        np.negative(c[:2], out=c[2:])
        return c

    def segment_max(self, c: np.ndarray) -> np.ndarray:
        """Per-net, per-row max of the net-sorted ``(4, m)`` ``c``, by rank."""
        mx = np.empty((4, self.n_nets))
        flat = c.reshape(-1)
        for lo, hi, pad in self.buckets:
            np.maximum.reduce(np.take(flat, pad), axis=0, out=mx[:, lo:hi])
        return mx

    def hpwl(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Exact per-net HPWL at cell centers ``x``/``y``, in net order.

        Each net's span is its full pin set (the trailing-empty-net
        shortening of :meth:`segment_max` is undone with one more max),
        and ``max - min = mx[x] + mx[-x]`` exactly.  Nets with fewer
        than two pins yield zero.
        """
        if self.m == 0:
            return np.zeros(self.n_nets)
        c = self.coords(x, y)
        mx = self.segment_max(c)
        if self.tail_rank is not None:
            k = self.tail_rank
            np.maximum(mx[:, k], c[:, -1], out=mx[:, k])
        span = mx[:2] + mx[2:]
        wl = np.where(self.valid_rank, span[0] + span[1], 0.0)
        return np.take(wl, self.rank)


#: a bucket may pad this many entries per row beyond twice its pins:
#: below it one more numpy call costs more than the padding
_PAD_SLACK = 1024


def _buckets(ranked_width: np.ndarray) -> list:
    """``(lo, hi)`` rank ranges of the padded max buckets.

    Greedy over the descending widths: each bucket takes the longest
    run of nets whose padding to the bucket's first width stays within
    twice their pin count, or within ``_PAD_SLACK`` entries.
    """
    out = []
    lo, n = 0, len(ranked_width)
    while lo < n:
        w = ranked_width[lo:]
        k = np.arange(1, len(w) + 1)
        padded = k * w[0]
        fits = (padded <= 2 * np.cumsum(w)) | (padded <= _PAD_SLACK)
        hi = lo + (len(w) if fits.all() else int(np.argmin(fits)))
        out.append((lo, hi))
        lo = hi
    return out


#: ``[topology arrays, layout]`` of the last all-nets layout built
_ALL_NETS: list = []


def _topology(netlist: Netlist) -> tuple:
    """The arrays an all-nets :class:`_WALayout` is a function of."""
    return (
        netlist.pin_cell,
        netlist.pin_net,
        netlist.pin_offset_x,
        netlist.pin_offset_y,
        netlist.net_pin_order,
        netlist.net_pin_starts,
        netlist.cell_width,
    )


def _wa_structure(netlist: Netlist) -> _WALayout:
    """The all-nets :class:`_WALayout` of ``netlist``'s topology.

    One layout is cached process-wide, keyed on the identity of the
    topology arrays: :meth:`Netlist.copy` shares them, so a flow's
    copies of one design reuse it, while a design loaded anew (an ECO
    edit) replaces it instead of piling up one per netlist.  Topology
    is immutable; arrays edited in place are not seen.
    """
    key = _topology(netlist)
    if not _ALL_NETS or any(a is not b for a, b in zip(_ALL_NETS[0], key)):
        _ALL_NETS[:] = [key, _WALayout(netlist)]
    return _ALL_NETS[1]


def _movable_structure(netlist: Netlist) -> _WALayout:
    """The layout over the nets with a pin on a movable cell, cached on it.

    It is :func:`_wa_structure`'s layout itself when every net has a
    movable pin.  Every placer on one netlist shares the layout.  It is
    rebuilt when the ``cell_fixed`` array is replaced (an ECO freeze
    assigns a new mask to a :meth:`Netlist.copy`); a mask edited in
    place is not seen.
    """
    cache = getattr(netlist, "_wa_movable_cache", None)
    if cache is None or cache[0] is not netlist.cell_fixed:
        net_mask = np.zeros(netlist.n_nets, dtype=bool)
        net_mask[netlist.pin_net[netlist.movable[netlist.pin_cell]]] = True
        layout = (
            _wa_structure(netlist) if net_mask.all() else _WALayout(netlist, net_mask)
        )
        cache = netlist._wa_movable_cache = (netlist.cell_fixed, layout)
    return cache[1]


def _wa_axes(
    x: np.ndarray, y: np.ndarray, layout: _WALayout, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-net WA wirelength and per-pin gradient along both axes.

    ``x``/``y`` are the cell centers; pin coordinates are
    :meth:`Netlist.pin_positions`' sums, formed in net-sorted order.
    Returns ``(wl, grad)``: ``wl`` is ``(2, n_nets)`` in the layout's
    net order and ``grad`` is ``(2, m)`` in local pin order; nets with
    fewer than two pins yield zeros.  The elementwise chain runs
    through the layout's ``(4, m)`` scratch with ``out=`` ufuncs.  Its
    only reorderings are commutations and sign flips, which are exact
    in IEEE arithmetic (``x + 1.0`` for ``1.0 + x``, ``(1+g)*a`` for
    ``a*(1+g)``, ``1.0 + (-q)`` for ``1.0 - q``).
    """
    n = layout.n_nets
    m = layout.m
    if m == 0:
        return np.zeros((2, n)), np.zeros((2, 0))
    seg4 = layout.seg4
    c = layout.coords(x, y)
    mx = layout.segment_max(c)

    # a = exp((c - mx[seg]) / gamma): rows 2-3 are the b_i of x and y
    a = layout.a
    flat_a = a.reshape(-1)
    np.take(mx.reshape(-1), seg4, out=flat_a)
    np.subtract(c, a, out=a)
    a /= gamma
    np.exp(a, out=a)

    t = layout.t
    flat_t = t.reshape(-1)
    np.multiply(c, a, out=t)
    s = np.bincount(seg4, weights=flat_a, minlength=4 * n)
    p = np.bincount(seg4, weights=flat_t, minlength=4 * n)
    s_safe = np.where(s > 0, s, 1.0)
    wa = p / s_safe
    rows = wa.reshape(4, n)  # WA+ of x, y and -WA- of x, y
    wl = np.where(layout.valid_rank, rows[:2] + rows[2:], 0.0)

    # grad = a * (1 + (c - wa[seg]) / gamma) / s_safe[seg], per row
    np.take(wa, seg4, out=flat_t)
    np.subtract(c, t, out=t)
    t /= gamma
    t += 1.0
    np.multiply(t, a, out=t)
    np.take(s_safe, seg4, out=flat_a)
    np.divide(t, a, out=t)

    g = np.where(layout.valid_seg, t[:2] - t[2:], 0.0)
    grad = np.take(g.reshape(-1), layout.unsort2).reshape(2, m)
    return np.take(wl, layout.rank, axis=1), grad


def _wa_eval(
    netlist: Netlist,
    layout: _WALayout,
    gamma: float,
    net_weights: np.ndarray | None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """WA wirelength of ``layout``'s nets and its per-cell gradient.

    Each cell's gradient sums its pins' terms in ascending pin order,
    as over the whole design.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    wl_xy, gpin = _wa_axes(netlist.x, netlist.y, layout, gamma)

    if net_weights is not None:
        w = net_weights[layout.nets]
        wl = float((w * (wl_xy[0] + wl_xy[1])).sum())
        gpin = gpin * w[layout.pin_net]
    else:
        wl = float(wl_xy[0].sum() + wl_xy[1].sum())

    n_cells = netlist.n_cells
    # astype: bincount returns integers when there are no pins at all
    grad = np.bincount(
        layout.cell2, weights=gpin.ravel(), minlength=2 * n_cells
    ).astype(np.float64, copy=False).reshape(2, n_cells)
    np.copyto(grad, 0.0, where=netlist.cell_fixed)
    return wl, grad[0], grad[1]


def wa_wirelength_and_grad(
    netlist: Netlist,
    gamma: float,
    net_weights: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total WA wirelength over all nets and its gradient w.r.t. cell centers.

    Returns ``(wl, grad_x, grad_y)`` with per-cell gradient arrays.
    Fixed cells receive zero gradient.
    """
    return _wa_eval(netlist, _wa_structure(netlist), gamma, net_weights)


#: WA smoothness base factor ``gamma_0``, scaled by the bin size.
GAMMA0 = 0.5


@dataclass
class WAWirelength:
    """Stateful WA objective with the ePlace-style gamma schedule.

    ``gamma`` shrinks as density overflow decreases, tightening the
    HPWL approximation toward convergence:
    ``gamma = gamma_0 * base_unit * 10^(k*overflow + b)`` following the
    piecewise-linear schedule of ePlace.

    Calls evaluate only the nets with a movable pin (see the module
    docstring): the per-cell gradient equals
    :func:`wa_wirelength_and_grad`'s, while the returned wirelength
    omits the constant of the all-fixed nets.
    """

    base_unit: float
    gamma: float = 0.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.0:
            self.gamma = 8.0 * GAMMA0 * self.base_unit

    def update_gamma(self, overflow: float) -> float:
        """Adapt gamma to the current density overflow (in [0, ~1])."""
        k, b = 20.0 / 9.0, -11.0 / 9.0
        coef = 10.0 ** (k * min(max(overflow, 0.0), 1.0) + b)
        self.gamma = GAMMA0 * self.base_unit * 8.0 * coef
        return self.gamma

    def __call__(
        self, netlist: Netlist, net_weights: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, np.ndarray]:
        return _wa_eval(netlist, _movable_structure(netlist), self.gamma, net_weights)
