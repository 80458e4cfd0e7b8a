"""Algorithm 1: congestion gradient update for two-pin net moving.

For every two-pin net a *virtual cell* is placed at the most congested
point sampled along the pin-to-pin segment (Eq. 6-8).  The congestion
field gradient at the virtual cell is projected onto the segment's unit
normal (the most efficient direction for the whole net to leave the
congested region, Fig. 3), and each endpoint cell receives that
projected gradient scaled by ``L / (2 d_iv)`` (Eq. 9) — cells close to
the congestion move more.

Everything is vectorized over all two-pin nets of the design: sampling
positions form an ``(n_nets, S)`` matrix, the congestion lookup and the
arg-max over samples are single numpy expressions.
"""

from __future__ import annotations

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
    # np.min/np.max propagate NaN and expose +/-Inf
    if np.isfinite([fx.min(), fx.max(), fy.min(), fy.max()]).all():
        flat = np.clip(np.floor(fx).astype(np.int64), 0, grid.nx - 1)
        flat *= grid.ny
        flat += np.clip(np.floor(fy).astype(np.int64), 0, grid.ny - 1)
    else:
        ii, jj = grid.index_of(sx.reshape(-1), sy.reshape(-1))
        flat = ii * grid.ny + jj
    cval = np.take(congestion.reshape(-1), flat).reshape(n, s_max)
    cval[steps > kcol] = -np.inf
    best = np.argmax(cval, axis=1)
    rows = np.arange(n)
    return sx[rows, best], sy[rows, best], cval[rows, best]


def _scatter_pair(n, cells, vx, vy):
    """Per-cell sums of ``(vx, vy)`` over ``cells``, length ``n``.

    ``bincount`` adds the entries in input order onto zero, the same
    summation sequence as ``np.add.at`` onto a zeroed array.
    """
    return (
        np.bincount(cells, weights=vx, minlength=n),
        np.bincount(cells, weights=vy, minlength=n),
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
    px, py = netlist.pin_positions()
    x1, y1 = px[p1], py[p1]
    x2, y2 = px[p2], py[p2]
    n = len(two_pin)
    if n == 0:
        empty = np.zeros(0)
        return {
            "net_ids": two_pin,
            "p1": p1,
            "p2": p2,
            "xv": empty,
            "yv": empty.copy(),
            "congestion": empty.copy(),
            "active": np.zeros(0, dtype=bool),
        }

    # Eq. (6): number of G-cells traversed
    k = np.maximum(
        np.floor(np.abs(x1 - x2) / grid.dx),
        np.floor(np.abs(y1 - y2) / grid.dy),
    ).astype(np.int64)
    k = np.clip(k, 1, cfg.max_samples)

    # Eq. (7)-(8): interior sampling, congestion lookup, per-net arg-max
    xv, yv, cbest = _virtual_cells(x1, y1, x2, y2, k, congestion, grid)
    active = cbest > cfg.min_congestion
    return {
        "net_ids": two_pin,
        "p1": p1,
        "p2": p2,
        "xv": xv,
        "yv": yv,
        "congestion": cbest,
        "active": active,
    }


def two_pin_net_gradients(
    netlist: Netlist,
    grid: Grid2D,
    congestion: np.ndarray,
    field: CongestionField,
    virtual_area: float,
    config: NetMoveConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Per-cell congestion gradients from all two-pin nets (Alg. 1).

    Parameters
    ----------
    congestion:
        Eq. (3) map used to pick virtual-cell locations.
    field:
        Congestion field whose gradient drives the move.
    virtual_area:
        Charge of a virtual cell ("same size as a standard cell").

    Returns
    -------
    (grad_x, grad_y, info):
        Gradient arrays over all cells (zero for cells not on an
        active two-pin net) and the virtual-cell info dict (with the
        per-net projected gradients added, for inspection and the
        C(x, y) bookkeeping).
    """
    cfg = config or NetMoveConfig()
    info = virtual_cell_positions(netlist, grid, congestion, cfg)
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    # a two-pin net whose pins sit on the *same* cell has no segment to
    # move perpendicular to: applying Eq. (9) to both endpoints would
    # deposit the projected gradient twice onto one cell, doubling its
    # force.  Such nets are masked out of the update.
    act = info["active"]
    if act.any():
        same_cell = netlist.pin_cell[info["p1"]] == netlist.pin_cell[info["p2"]]
        act = act & ~same_cell
        info["active"] = act
    if not act.any():
        info["lx"] = np.zeros(0)
        return grad_x, grad_y, info

    p1 = info["p1"][act]
    p2 = info["p2"][act]
    xv = info["xv"][act]
    yv = info["yv"][act]
    px, py = netlist.pin_positions()
    x1, y1 = px[p1], py[p1]
    x2, y2 = px[p2], py[p2]

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
    cells = np.concatenate((netlist.pin_cell[p1], netlist.pin_cell[p2]))
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
