"""Algorithm 1: congestion gradient update for two-pin net moving.

For every two-pin net a *virtual cell* is placed at the most congested
point sampled along the pin-to-pin segment (Eq. 6-8).  The congestion
field gradient at the virtual cell is projected onto the segment's unit
normal (the most efficient direction for the whole net to leave the
congested region, Fig. 3), and each endpoint cell receives that
projected gradient scaled by ``L / (2 d_iv)`` (Eq. 9) — cells close to
the congestion move more.

Everything is vectorized over the two-pin nets: sampling positions
form an ``(n_nets, S)`` matrix, the congestion lookup and the arg-max
over samples are single numpy expressions.  The per-iteration gradient
samples only the nets with a movable endpoint (:class:`TwoPinNets`);
a net between two fixed cells only ever deposits onto cells whose
gradient is zeroed, and each net's virtual cell depends on that net
alone, so the movable cells' gradients are the all-nets ones bit for
bit.  :func:`virtual_cell_positions` still locates every two-pin net's
virtual cell, for the round's C(x, y) bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.congestion_field import CongestionField
from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.utils.contracts import CONTRACTS


@dataclass
class NetMoveConfig:
    """Knobs of the two-pin net moving technique.

    Attributes
    ----------
    max_samples:
        Cap on candidate points per net.  Eq. (6) samples one point
        per traversed G-cell; nets spanning more G-cells than this are
        sampled evenly (a faithful approximation for very long nets).
    min_congestion:
        Nets whose best sampled congestion value does not exceed this
        receive no gradient (there is nothing to move away from).
    max_scale:
        Clamp on the ``L / (2 d_iv)`` factor, guarding against the
        virtual cell landing arbitrarily close to a pin.
    """

    max_samples: int = 48
    min_congestion: float = 0.0
    max_scale: float = 8.0


def _two_pin_endpoints(netlist: Netlist):
    """Pin indices (p1, p2) of every two-pin net."""
    degrees = netlist.net_degrees()
    two_pin = np.flatnonzero(degrees == 2)
    starts = netlist.net_pin_starts[two_pin]
    p1 = netlist.net_pin_order[starts]
    p2 = netlist.net_pin_order[starts + 1]
    return two_pin, p1, p2


class TwoPinNets:
    """Endpoint arrays of the two-pin nets with a movable endpoint.

    Built once per routability round from ``cell_fixed`` (an input
    property of the round), then read by every solver iteration.
    ``net_ids``/``p1``/``p2`` follow :func:`virtual_cell_positions`;
    ``c1``/``c2`` are the endpoint cells and ``ox1``..``oy2`` the pin
    offsets, so endpoint coordinates come from the cell positions
    without computing every pin of the design.  A net whose two pins
    sit on one cell (``same_cell``) has no segment to move across.
    """

    def __init__(self, netlist: Netlist) -> None:
        two_pin, p1, p2 = _two_pin_endpoints(netlist)
        c1 = netlist.pin_cell[p1]
        c2 = netlist.pin_cell[p2]
        keep = netlist.movable[c1] | netlist.movable[c2]
        self.net_ids = two_pin[keep]
        self.p1, self.p2 = p1[keep], p2[keep]
        self.c1, self.c2 = c1[keep], c2[keep]
        self.ox1 = netlist.pin_offset_x[self.p1]
        self.oy1 = netlist.pin_offset_y[self.p1]
        self.ox2 = netlist.pin_offset_x[self.p2]
        self.oy2 = netlist.pin_offset_y[self.p2]
        self.same_cell = self.c1 == self.c2

    def coordinates(self, netlist: Netlist):
        """Endpoint coordinates ``(x1, y1, x2, y2)`` at the current positions.

        The same sums :meth:`Netlist.pin_positions` forms, per endpoint.
        """
        return (
            netlist.x[self.c1] + self.ox1,
            netlist.y[self.c1] + self.oy1,
            netlist.x[self.c2] + self.ox2,
            netlist.y[self.c2] + self.oy2,
        )


def _virtual_cells(x1, y1, x2, y2, k, congestion, grid):
    """Most congested interior sample of every segment (Eq. 7-8).

    Samples segment ``e`` at ``k[e]`` evenly spaced interior points,
    reads the congestion map at each and arg-maxes per net.  Returns
    ``(xv, yv, best_congestion)``.  The bin index repeats
    :meth:`Grid2D.index_of` operation for operation (subtract, divide,
    floor, int64 cast, clip) and reads the map through one flat gather.
    When any sample is non-finite it calls ``index_of`` itself, whose
    sanitizing and contract reporting then apply.
    """
    n = len(x1)
    s_max = int(k.max())
    steps = np.arange(1, s_max + 1)[None, :]  # (1, S)
    kcol = k[:, None]
    t = steps / (kcol + 1.0)
    sx = x1[:, None] + t * (x2 - x1)[:, None]
    sy = y1[:, None] + t * (y2 - y1)[:, None]

    region = grid.region
    fx = (sx.reshape(-1) - region.xlo) / grid.dx
    fy = (sy.reshape(-1) - region.ylo) / grid.dy
    # a non-finite sample makes its sum non-finite; a finite sum proves
    # every sample finite (an overflowing sum merely takes index_of)
    if math.isfinite(np.add.reduce(fx) + np.add.reduce(fy)):
        flat = np.floor(fx).astype(np.int64)
        np.maximum(flat, 0, out=flat)
        np.minimum(flat, grid.nx - 1, out=flat)
        flat *= grid.ny
        fj = np.floor(fy).astype(np.int64)
        np.maximum(fj, 0, out=fj)
        np.minimum(fj, grid.ny - 1, out=fj)
        flat += fj
    else:
        ii, jj = grid.index_of(sx.reshape(-1), sy.reshape(-1))
        flat = ii * grid.ny + jj
    cval = np.take(congestion.reshape(-1), flat).reshape(n, s_max)
    cval[steps > kcol] = -np.inf
    pick = np.argmax(cval, axis=1)
    pick += np.arange(0, n * s_max, s_max)
    return (
        np.take(sx.reshape(-1), pick),
        np.take(sy.reshape(-1), pick),
        np.take(cval.reshape(-1), pick),
    )


def _scatter_pair(n, cells, vx, vy):
    """Per-cell sums of ``(vx, vy)`` over ``cells``, length ``n``.

    ``bincount`` adds the entries in input order onto zero, the same
    summation sequence as ``np.add.at`` onto a zeroed array.
    """
    return (
        np.bincount(cells, weights=vx, minlength=n),
        np.bincount(cells, weights=vy, minlength=n),
    )


def _locate(x1, y1, x2, y2, grid, congestion, cfg):
    """Virtual cell of each segment: ``(xv, yv, best_congestion, active)``."""
    # Eq. (6): number of G-cells traversed
    k = np.maximum(
        np.floor(np.abs(x1 - x2) / grid.dx),
        np.floor(np.abs(y1 - y2) / grid.dy),
    ).astype(np.int64)
    k = np.minimum(np.maximum(k, 1), cfg.max_samples)

    # Eq. (7)-(8): interior sampling, congestion lookup, per-net arg-max
    xv, yv, cbest = _virtual_cells(x1, y1, x2, y2, k, congestion, grid)
    return xv, yv, cbest, cbest > cfg.min_congestion


def _info(net_ids, p1, p2, xv, yv, cbest, active) -> dict:
    """The virtual-cell dict over the given two-pin nets."""
    return {
        "net_ids": net_ids,
        "p1": p1,
        "p2": p2,
        "xv": xv,
        "yv": yv,
        "congestion": cbest,
        "active": active,
    }


def _empty_info(net_ids, p1, p2) -> dict:
    """The virtual-cell dict when there is no two-pin net to sample."""
    empty = np.zeros(0)
    return _info(
        net_ids, p1, p2, empty, empty.copy(), empty.copy(),
        np.zeros(0, dtype=bool),
    )


def virtual_cell_positions(
    netlist: Netlist,
    grid: Grid2D,
    congestion: np.ndarray,
    config: NetMoveConfig | None = None,
):
    """Locate the virtual cell of every two-pin net (Eq. 6-8).

    Returns a dict of arrays over two-pin nets: net ids, endpoint pin
    indices, virtual-cell coordinates, the congestion value there, and
    the ``active`` mask of nets that actually cross congestion.
    """
    cfg = config or NetMoveConfig()
    two_pin, p1, p2 = _two_pin_endpoints(netlist)
    if len(two_pin) == 0:
        return _empty_info(two_pin, p1, p2)
    px, py = netlist.pin_positions()
    loc = _locate(px[p1], py[p1], px[p2], py[p2], grid, congestion, cfg)
    return _info(two_pin, p1, p2, *loc)


def two_pin_net_gradients(
    netlist: Netlist,
    grid: Grid2D,
    congestion: np.ndarray,
    field: CongestionField,
    virtual_area: float,
    config: NetMoveConfig | None = None,
    nets: TwoPinNets | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Per-cell congestion gradients from the two-pin nets (Alg. 1).

    Parameters
    ----------
    congestion:
        Eq. (3) map used to pick virtual-cell locations.
    field:
        Congestion field whose gradient drives the move.
    virtual_area:
        Charge of a virtual cell ("same size as a standard cell").
    nets:
        The netlist's :class:`TwoPinNets`, when the caller keeps one
        across calls; built from ``netlist`` otherwise.

    Returns
    -------
    (grad_x, grad_y, info):
        Gradient arrays over all cells (zero for cells not on an
        active two-pin net, and for fixed cells) and the virtual-cell
        info dict over the two-pin nets with a movable endpoint (with
        the per-net projected gradients added, for inspection).
    """
    cfg = config or NetMoveConfig()
    if nets is None:
        nets = TwoPinNets(netlist)
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    if len(nets.net_ids) == 0:
        info = _empty_info(nets.net_ids, nets.p1, nets.p2)
        info["lx"] = np.zeros(0)
        return grad_x, grad_y, info
    x1, y1, x2, y2 = nets.coordinates(netlist)
    info = _info(
        nets.net_ids, nets.p1, nets.p2,
        *_locate(x1, y1, x2, y2, grid, congestion, cfg),
    )
    # a two-pin net whose pins sit on the *same* cell has no segment to
    # move perpendicular to: applying Eq. (9) to both endpoints would
    # deposit the projected gradient twice onto one cell, doubling its
    # force.  Such nets are masked out of the update.
    act = info["active"] & ~nets.same_cell
    info["active"] = act
    if not act.any():
        info["lx"] = np.zeros(0)
        return grad_x, grad_y, info

    x1, y1, x2, y2 = x1[act], y1[act], x2[act], y2[act]
    xv = info["xv"][act]
    yv = info["yv"][act]

    # minimization gradient of the virtual cell (line 3 of Alg. 1)
    gvx, gvy = field.gradient_at(xv, yv, virtual_area)

    # unit normal of the segment (line 5); sign is irrelevant for the
    # projection but we orient it along the gradient as in the paper
    dx = x2 - x1
    dy = y2 - y1
    length = np.hypot(dx, dy)
    safe_len = np.maximum(length, 1e-12)
    nx = -dy / safe_len
    ny = dx / safe_len
    flip = (nx * gvx + ny * gvy) < 0
    nx = np.where(flip, -nx, nx)
    ny = np.where(flip, -ny, ny)

    # projection onto the normal (line 8)
    dot = gvx * nx + gvy * ny
    perp_x = dot * nx
    perp_y = dot * ny

    # Eq. (9): scale by L / (2 d_iv) per endpoint.  Both endpoints'
    # deposits are concatenated (p1 block first) into one scatter whose
    # entry order matches sequential per-endpoint accumulation.
    d1 = np.hypot(xv - x1, yv - y1)
    scale1 = np.clip(length / (2.0 * np.maximum(d1, 1e-12)), 0.0, cfg.max_scale)
    d2 = np.hypot(xv - x2, yv - y2)
    scale2 = np.clip(length / (2.0 * np.maximum(d2, 1e-12)), 0.0, cfg.max_scale)
    cells = np.concatenate((nets.c1[act], nets.c2[act]))
    vx = np.concatenate((scale1 * perp_x, scale2 * perp_x))
    vy = np.concatenate((scale1 * perp_y, scale2 * perp_y))
    grad_x, grad_y = _scatter_pair(n_cells, cells, vx, vy)

    grad_x[netlist.cell_fixed] = 0.0
    grad_y[netlist.cell_fixed] = 0.0
    if CONTRACTS.enabled:
        CONTRACTS.check_array(
            "netmove.two_pin_net_gradients", "grad_x", grad_x,
            shape=(n_cells,), finite=True,
        )
        CONTRACTS.check_array(
            "netmove.two_pin_net_gradients", "grad_y", grad_y,
            shape=(n_cells,), finite=True,
        )
    info["perp_x"] = perp_x
    info["perp_y"] = perp_y
    return grad_x, grad_y, info
