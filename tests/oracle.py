"""Straight-line reference forms of the hot kernels, as test oracles.

Each function below is the original, unrestructured numpy code of one
hot kernel: ``np.{maximum,minimum}.reduceat`` WA, the chunked
``(di, dj)`` raster loop, ``Grid2D.index_of`` sampling, ``np.add.at``
scatters, 2-D fancy-index map lookups, the broadcast bend evaluation
and the ``np.roll``-based spectral solve.  The product modules keep one
faster layout per kernel that reproduces these operation sequences, and
the tests pin them to the oracle at ``atol=0``: :func:`oracle_kernels`
swaps every oracle into its call site, so a test can run the public
entry point once each way and compare the bits.

The placer's per-iteration passes have *all-nets* oracles: WA, Alg. 1
and Alg. 2 as they were before they were restricted to the nets and
cells with a movable pin.  :func:`all_nets_passes` swaps them in where
the placer and the RD congestion closure look them up, so a whole GP
run can be compared position for position.

The routing oracle is a whole engine rather than a call-site swap:
:func:`route_path` pattern-routes one segment into a
:class:`~repro.route.patterns.RoutedPath`, and :func:`route_scalar`
runs the full pass (initial routing, rip-up-and-reroute, maze cleanup)
one segment at a time with per-run commits.  ``GlobalRouter.route``
must reproduce its demand, history and congestion maps bit for bit.

Net decomposition has the per-net Prim loop as its oracle:
:func:`segment_endpoints` decomposes every net one at a time and only
then filters to ``net_ids``, which is what the degree-bucketed product
form must match at ``atol=0``.  :func:`per_net_decomposition` swaps
:func:`collect_segment_batch`, the router's batch builder in that
decompose-all-then-filter form, into ``GlobalRouter``.
"""

from __future__ import annotations

import contextlib

import numpy as np
from scipy import fft as sfft

from repro.core import netmove, rd_placer
from repro.density import rasterize
from repro.geometry import Grid2D
from repro.route.congestion import congestion_from_demand
from repro.route.grid import RoutingGrid
from repro.route.maze import maze_route
from repro.route.patterns import PatternRouter, RoutedPath, RoutedPathBatch
from repro.route.router import GlobalRouter, RoutingResult
from repro.wirelength import wa
from repro.wirelength.wa import WAWirelength


# ---------------------------------------------------------------- WA
def wa_axis(coords, layout, gamma):
    """Per-net WA wirelength and per-pin gradient along one axis.

    ``layout`` supplies the net-sorted CSR structure (``order``,
    ``starts``, ``seg``, ``degrees``, ``n_nets``); the gradient is
    returned in original pin order.
    """
    order, starts, seg = layout.order, layout.starts, layout.seg
    n_nets = layout.n_nets
    c = coords[order]
    safe_starts = np.minimum(starts, max(len(order) - 1, 0))
    if len(order):
        mx = np.maximum.reduceat(c, safe_starts)
        mn = np.minimum.reduceat(c, safe_starts)
    else:
        mx = np.zeros(n_nets)
        mn = np.zeros(n_nets)

    a = np.exp((c - mx[seg]) / gamma)
    b = np.exp(-(c - mn[seg]) / gamma)

    s_plus = np.bincount(seg, weights=a, minlength=n_nets)
    p_plus = np.bincount(seg, weights=c * a, minlength=n_nets)
    s_minus = np.bincount(seg, weights=b, minlength=n_nets)
    p_minus = np.bincount(seg, weights=c * b, minlength=n_nets)

    valid = layout.degrees >= 2
    s_plus_safe = np.where(s_plus > 0, s_plus, 1.0)
    s_minus_safe = np.where(s_minus > 0, s_minus, 1.0)
    wa_plus = p_plus / s_plus_safe
    wa_minus = p_minus / s_minus_safe
    wl = np.where(valid, wa_plus - wa_minus, 0.0)

    grad_plus = a * (1.0 + (c - wa_plus[seg]) / gamma) / s_plus_safe[seg]
    grad_minus = b * (1.0 - (c - wa_minus[seg]) / gamma) / s_minus_safe[seg]
    grad_ordered = np.where(valid[seg], grad_plus - grad_minus, 0.0)

    grad = np.zeros_like(grad_ordered)
    grad[order] = grad_ordered
    return wl, grad


def wa_axes(x, y, layout, gamma):
    """Both axes of :func:`wa_axis` at cell centers ``x``/``y``, as rows."""
    px = x[layout.pin_cell] + layout.pin_offset_x
    py = y[layout.pin_cell] + layout.pin_offset_y
    wl_x, grad_x = wa_axis(px, layout, gamma)
    wl_y, grad_y = wa_axis(py, layout, gamma)
    return np.stack((wl_x, wl_y)), np.stack((grad_x, grad_y))


# --------------------------------------------------------- rasterize
def _overlap_1d(lo, hi, base, pitch, k0, offset):
    """Overlap length of [lo, hi] with bin (k0 + offset) along one axis."""
    left = base + (k0 + offset) * pitch
    return np.clip(np.minimum(hi, left + pitch) - np.maximum(lo, left), 0.0, pitch)


def raster_overlaps(
    ids, xlo, xhi, ylo, yhi, i0, j0, kx, ky, scale,
    base_x, base_y, dx, dy, nx, ny,
):
    """Chunked ``(di, dj)`` overlap loop of the small-cell raster set."""
    idx_chunks = []
    w_chunks = []
    for di in range(kx):
        lx = _overlap_1d(xlo, xhi, base_x, dx, i0, di)
        col = np.clip(i0 + di, 0, nx - 1)
        for dj in range(ky):
            ly = _overlap_1d(ylo, yhi, base_y, dy, j0, dj)
            row = np.clip(j0 + dj, 0, ny - 1)
            idx_chunks.append(col * ny + row)
            w_chunks.append(lx * ly * scale)
    cell_of_entry = np.tile(ids, kx * ky)
    return np.concatenate(idx_chunks), np.concatenate(w_chunks), cell_of_entry


# ----------------------------------------------------------- netmove
def virtual_cells(x1, y1, x2, y2, k, congestion, grid):
    """Eq. (7)-(8) sampling matrix, ``index_of`` lookup, arg-max."""
    n = len(x1)
    s_max = int(k.max())
    steps = np.arange(1, s_max + 1)[None, :]  # (1, S)
    valid = steps <= k[:, None]
    t = steps / (k[:, None] + 1.0)
    sx = x1[:, None] + t * (x2 - x1)[:, None]
    sy = y1[:, None] + t * (y2 - y1)[:, None]

    ii, jj = grid.index_of(sx.ravel(), sy.ravel())
    cval = congestion[ii, jj].reshape(n, s_max)
    cval = np.where(valid, cval, -np.inf)
    best = np.argmax(cval, axis=1)
    rows = np.arange(n)
    return sx[rows, best], sy[rows, best], cval[rows, best]


def scatter_pair(n, cells, vx, vy):
    """Unbuffered fancy-index accumulation (``np.add.at``) onto zeros."""
    grad_x = np.zeros(n)
    grad_y = np.zeros(n)
    np.add.at(grad_x, cells, vx)
    np.add.at(grad_y, cells, vy)
    return grad_x, grad_y


def value_at(grid, scalar_map, x, y):
    """Nearest-bin lookup by 2-D fancy indexing."""
    if scalar_map.shape != (grid.nx, grid.ny):
        raise ValueError(
            f"map shape {scalar_map.shape} != grid shape {(grid.nx, grid.ny)}"
        )
    i, j = grid.index_of(x, y)
    return scalar_map[i, j]


# --------------------------------------------------- all-nets passes
def wa_call(self, netlist, net_weights=None):
    """``WAWirelength.__call__`` over every net of the design."""
    return wa.wa_wirelength_and_grad(netlist, self.gamma, net_weights)


def two_pin_net_gradients(
    netlist, grid, congestion, field, virtual_area, config=None, nets=None
):
    """Alg. 1 over every two-pin net of the design (``nets`` is ignored)."""
    cfg = config or netmove.NetMoveConfig()
    info = netmove.virtual_cell_positions(netlist, grid, congestion, cfg)
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    act = info["active"]
    if act.any():
        same_cell = netlist.pin_cell[info["p1"]] == netlist.pin_cell[info["p2"]]
        act = act & ~same_cell
        info["active"] = act
    if not act.any():
        return grad_x, grad_y, info

    p1 = info["p1"][act]
    p2 = info["p2"][act]
    xv = info["xv"][act]
    yv = info["yv"][act]
    px, py = netlist.pin_positions()
    x1, y1 = px[p1], py[p1]
    x2, y2 = px[p2], py[p2]
    gvx = -virtual_area * grid.bilinear_at(field.field_x, xv, yv)
    gvy = -virtual_area * grid.bilinear_at(field.field_y, xv, yv)

    dx = x2 - x1
    dy = y2 - y1
    length = np.hypot(dx, dy)
    safe_len = np.maximum(length, 1e-12)
    nx = -dy / safe_len
    ny = dx / safe_len
    flip = (nx * gvx + ny * gvy) < 0
    nx = np.where(flip, -nx, nx)
    ny = np.where(flip, -ny, ny)
    dot = gvx * nx + gvy * ny
    perp_x = dot * nx
    perp_y = dot * ny

    d1 = np.hypot(xv - x1, yv - y1)
    scale1 = np.clip(length / (2.0 * np.maximum(d1, 1e-12)), 0.0, cfg.max_scale)
    d2 = np.hypot(xv - x2, yv - y2)
    scale2 = np.clip(length / (2.0 * np.maximum(d2, 1e-12)), 0.0, cfg.max_scale)
    grad_x, grad_y = scatter_pair(
        n_cells,
        np.concatenate((netlist.pin_cell[p1], netlist.pin_cell[p2])),
        np.concatenate((scale1 * perp_x, scale2 * perp_x)),
        np.concatenate((scale1 * perp_y, scale2 * perp_y)),
    )
    grad_x[netlist.cell_fixed] = 0.0
    grad_y[netlist.cell_fixed] = 0.0
    return grad_x, grad_y, info


def multi_pin_cell_gradients(
    netlist, grid, congestion, field, threshold=0.7, candidates=None
):
    """Alg. 2 with the congestion lookup over every cell (``candidates`` is ignored)."""
    n_cells = netlist.n_cells
    grad_x = np.zeros(n_cells)
    grad_y = np.zeros(n_cells)
    if n_cells == 0:
        return grad_x, grad_y, np.zeros(0, dtype=bool)
    pin_counts = netlist.cell_pin_counts()
    n_bar = float(pin_counts.mean())
    cell_cong = value_at(grid, congestion, netlist.x, netlist.y)
    selected = (pin_counts > n_bar) & (cell_cong > threshold) & netlist.movable
    if selected.any():
        ids = np.flatnonzero(selected)
        area = netlist.cell_area[ids]
        grad_x[ids] = -area * grid.bilinear_at(
            field.field_x, netlist.x[ids], netlist.y[ids]
        )
        grad_y[ids] = -area * grid.bilinear_at(
            field.field_y, netlist.x[ids], netlist.y[ids]
        )
    return grad_x, grad_y, selected


# --------------------------------------------------------- decompose
def mst_edges(px, py):
    """Prim MST edge list over one net's points, Manhattan metric.

    Duplicate points get zero-length edges, which routers treat as
    via-only.
    """
    d = len(px)
    if d < 2:
        return []
    in_tree = np.zeros(d, dtype=bool)
    best_from = np.zeros(d, dtype=np.int64)
    in_tree[0] = True
    dist0 = np.abs(px - px[0]) + np.abs(py - py[0])
    best_dist = np.where(in_tree, np.inf, dist0)
    edges = []
    for _ in range(d - 1):
        nxt = int(np.argmin(best_dist))
        edges.append((int(best_from[nxt]), nxt))
        in_tree[nxt] = True
        best_dist[nxt] = np.inf
        dist_new = np.abs(px - px[nxt]) + np.abs(py - py[nxt])
        improved = (~in_tree) & (dist_new < best_dist)
        best_dist[improved] = dist_new[improved]
        best_from[improved] = nxt
    return edges


def decompose_net(netlist, net_id, px, py):
    """Two-pin segments ``(x1, y1, x2, y2)`` of one net."""
    pins = netlist.net_pins(net_id)
    if len(pins) < 2:
        return []
    sx = px[pins]
    sy = py[pins]
    if len(pins) == 2:
        return [(float(sx[0]), float(sy[0]), float(sx[1]), float(sy[1]))]
    return [
        (float(sx[a]), float(sy[a]), float(sx[b]), float(sy[b]))
        for a, b in mst_edges(sx, sy)
    ]


def decompose_netlist(netlist):
    """Segments of every net, indexed by net id."""
    px, py = netlist.pin_positions()
    return [decompose_net(netlist, e, px, py) for e in range(netlist.n_nets)]


def segment_endpoints(netlist, net_ids=None):
    """``(net_id, x1, y1, x2, y2)`` of every net, decomposed one by one.

    ``net_ids`` filters the finished arrays with ``np.isin``.
    """
    segs = decompose_netlist(netlist)
    nets = np.repeat(np.arange(netlist.n_nets), [len(t) for t in segs])
    cols = np.array(
        [seg for t in segs for seg in t], dtype=np.float64
    ).reshape(-1, 4).T
    keep = np.ones(len(nets), dtype=bool) if net_ids is None else np.isin(nets, net_ids)
    return (nets[keep], *(c[keep] for c in cols))


def collect_segment_batch(self, netlist, net_ids=None):
    """``GlobalRouter._collect_segment_batch`` that filters last.

    Every net is decomposed by :func:`segment_endpoints`, which picks
    out the segments of ``net_ids`` afterwards; they are then sorted by
    bbox span.
    """
    _, x1, y1, x2, y2 = segment_endpoints(netlist, net_ids)
    i1, j1 = self.grid.index_of(x1, y1)
    i2, j2 = self.grid.index_of(x2, y2)
    order = np.argsort(np.abs(i2 - i1) + np.abs(j2 - j1), kind="stable")
    n = len(order)
    return RoutedPathBatch(
        i1=i1[order], j1=j1[order], i2=i2[order], j2=j2[order],
        family=np.full(n, -1, dtype=np.int8),
        bend=np.zeros(n, dtype=np.int64),
        cost=np.zeros(n, dtype=np.float64),
    )


# ------------------------------------------------------------- route
def _h_run_cost(hpre, j, i0, i1):
    """Prefix-sum cost of the horizontal run ``[min,max](i0,i1)`` at row j."""
    lo = np.minimum(i0, i1)
    hi = np.maximum(i0, i1)
    return hpre[hi + 1, j] - hpre[lo, j]


def _v_run_cost(vpre, i, j0, j1):
    """Prefix-sum cost of the vertical run ``[min,max](j0,j1)`` at column i."""
    lo = np.minimum(j0, j1)
    hi = np.maximum(j0, j1)
    return vpre[i, hi + 1] - vpre[i, lo]


def route_best_bends(hpre, vpre, cand, i1, j1, i2, j2, via_cost, family):
    """Broadcast candidate evaluation; ties keep the lowest candidate."""
    if family == "hvh":
        j1c, j2c = j1[:, None], j2[:, None]
        c = (
            _h_run_cost(hpre, j1c, i1[:, None], cand)
            + _v_run_cost(vpre, cand, j1c, j2c)
            + _h_run_cost(hpre, j2c, cand, i2[:, None])
            + via_cost
            * ((cand != i1[:, None]).astype(float) + (cand != i2[:, None]))
        )
    elif family == "vhv":
        i1c, i2c = i1[:, None], i2[:, None]
        c = (
            _v_run_cost(vpre, i1c, j1[:, None], cand)
            + _h_run_cost(hpre, cand, i1c, i2c)
            + _v_run_cost(vpre, i2c, cand, j2[:, None])
            + via_cost
            * ((cand != j1[:, None]).astype(float) + (cand != j2[:, None]))
        )
    else:
        raise ValueError(f"unknown candidate family {family!r}")
    k = np.argmin(c, axis=1)
    rows = np.arange(len(k))
    return c[rows, k], cand[rows, k]


def _best_hvh_batch(router, i1, j1, i2, j2):
    """Oracle stand-in for :meth:`PatternRouter._best_hvh_batch`."""
    ms = router._candidate_matrix(i1, i2, router.nx)
    return route_best_bends(
        router._hpre, router._vpre, ms, i1, j1, i2, j2, router.via_cost, "hvh"
    )


def _best_vhv_batch(router, i1, j1, i2, j2):
    """Oracle stand-in for :meth:`PatternRouter._best_vhv_batch`."""
    rs = router._candidate_matrix(j1, j2, router.ny)
    return route_best_bends(
        router._hpre, router._vpre, rs, i1, j1, i2, j2, router.via_cost, "vhv"
    )


def _hvh_path(router, i1, j1, i2, j2):
    """Cheapest horizontal-vertical-horizontal path, bend column ``m``."""
    ms = router._candidates(i1, i2, router.nx)
    c = (
        router._h_run_cost(j1, np.full_like(ms, i1), ms)
        + router._v_run_cost(ms, j1, j2)
        + router._h_run_cost(j2, ms, np.full_like(ms, i2))
        + router.via_cost * ((ms != i1).astype(float) + (ms != i2))
    )
    k = int(np.argmin(c))
    m = int(ms[k])
    runs = []
    bends = []
    if m != i1:
        runs.append(("h", j1, i1, m))
        bends.append((m, j1))
    runs.append(("v", m, j1, j2))
    if m != i2:
        runs.append(("h", j2, m, i2))
        bends.append((m, j2))
    return RoutedPath(runs=runs, bends=bends, cost=float(c[k]))


def _vhv_path(router, i1, j1, i2, j2):
    """Cheapest vertical-horizontal-vertical path, bend row ``r``."""
    rs = router._candidates(j1, j2, router.ny)
    c = (
        router._v_run_cost(np.full_like(rs, i1), j1, rs)
        + router._h_run_cost(rs, i1, i2)
        + router._v_run_cost(np.full_like(rs, i2), rs, np.full_like(rs, j2))
        + router.via_cost * ((rs != j1).astype(float) + (rs != j2))
    )
    k = int(np.argmin(c))
    r = int(rs[k])
    runs = []
    bends = []
    if r != j1:
        runs.append(("v", i1, j1, r))
        bends.append((i1, r))
    runs.append(("h", r, i1, i2))
    if r != j2:
        runs.append(("v", i2, r, j2))
        bends.append((i2, r))
    return RoutedPath(runs=runs, bends=bends, cost=float(c[k]))


def route_path(router, i1, j1, i2, j2):
    """Best L/Z :class:`RoutedPath` between two G-cells (HVH wins ties)."""
    if i1 == i2 and j1 == j2:
        return RoutedPath(runs=[], bends=[], cost=0.0)
    if j1 == j2:
        cost = float(router._h_run_cost(j1, i1, i2))
        return RoutedPath(runs=[("h", j1, i1, i2)], bends=[], cost=cost)
    if i1 == i2:
        cost = float(router._v_run_cost(i1, j1, j2))
        return RoutedPath(runs=[("v", i1, j1, j2)], bends=[], cost=cost)
    best = _hvh_path(router, i1, j1, i2, j2)
    other = _vhv_path(router, i1, j1, i2, j2)
    return best if best.cost <= other.cost else other


def _overflow_victims(rgrid, segments):
    """Segments (``[i1, j1, i2, j2, path]``) crossing an overflowed G-cell."""
    h_over = rgrid.h_demand > rgrid.h_cap
    v_over = rgrid.v_demand > rgrid.v_cap
    if not (h_over.any() or v_over.any()):
        return []
    victims = []
    for seg in segments:
        for kind, fixed, a, b in seg[4].runs:
            lo, hi = min(a, b), max(a, b)
            if kind == "h":
                over = h_over[lo : hi + 1, fixed]
            else:
                over = v_over[fixed, lo : hi + 1]
            if over.any():
                victims.append(seg)
                break
    return victims


def route_scalar(grid, config, netlist):
    """One full routing pass, one segment at a time.

    Same algorithm as :meth:`GlobalRouter.route`: segments sorted by
    bbox span, costs refreshed every ``cost_refresh_interval`` segments,
    ``rrr_rounds`` of rip-up-and-reroute of overflow victims, then (with
    ``maze_fallback``) admission-controlled maze detours.
    """
    commit = GlobalRouter._commit_path
    rgrid = RoutingGrid(grid, config, netlist)
    _, x1, y1, x2, y2 = segment_endpoints(netlist)
    i1, j1 = grid.index_of(x1, y1)
    i2, j2 = grid.index_of(x2, y2)
    segments = [
        [int(a), int(b), int(c), int(d), None] for a, b, c, d in zip(i1, j1, i2, j2)
    ]
    GlobalRouter(grid, config)._add_pin_via_demand(rgrid, netlist)
    segments.sort(key=lambda s: abs(s[2] - s[0]) + abs(s[3] - s[1]))

    def route_all(todo):
        router = PatternRouter(
            *rgrid.cost_maps(), via_cost=1.0, z_samples=config.z_samples
        )
        for k, seg in enumerate(todo):
            if k and k % config.cost_refresh_interval == 0:
                router.refresh(*rgrid.cost_maps())
            seg[4] = route_path(router, *seg[:4])
            commit(rgrid, seg[4], 1.0)

    route_all(segments)
    for _ in range(config.rrr_rounds):
        rgrid.accumulate_history()
        victims = _overflow_victims(rgrid, segments)
        if not victims:
            break
        for seg in victims:
            commit(rgrid, seg[4], -1.0)
        route_all(victims)

    if config.maze_fallback:
        for seg in _overflow_victims(rgrid, segments):
            old = seg[4]
            before = float(rgrid.overflow_map().sum())
            commit(rgrid, old, -1.0)
            new = maze_route(
                *rgrid.cost_maps(), *seg[:4], via_cost=1.0,
                window=config.maze_window,
            )
            commit(rgrid, new, 1.0)
            if float(rgrid.overflow_map().sum()) >= before - 1e-9:
                commit(rgrid, new, -1.0)
                commit(rgrid, old, 1.0)
            else:
                seg[4] = new

    return RoutingResult(
        grid=rgrid,
        congestion=congestion_from_demand(rgrid),
        wirelength=sum(s[4].wirelength(grid.dx, grid.dy) for s in segments),
        n_vias=float(rgrid.via_demand.sum()),
        total_overflow=float(rgrid.overflow_map().sum()),
        n_segments=len(segments),
    )


# ----------------------------------------------------------- poisson
def idxst(coeffs, axis):
    """Inverse sine transform matching scipy's unnormalized ``idct``.

    Given DCT-style coefficients ``c`` along ``axis``, returns::

        out[i] = (1/M) * sum_{u=1}^{M-1} c[u] sin(pi u (2i+1) / (2M))

    the series obtained by differentiating the ``idct``-normalized
    cosine expansion term by term (the ``u = 0`` term vanishes).
    """
    m = coeffs.shape[axis]
    shifted = np.roll(coeffs, -1, axis=axis)
    # zero the (now trailing) former u=0 slot
    idx = [slice(None)] * coeffs.ndim
    idx[axis] = m - 1
    shifted[tuple(idx)] = 0.0
    return sfft.dst(shifted, type=3, axis=axis) / (2.0 * m)


def solve_poisson(grid, rho):
    """Straight-line spectral solve with fresh temporaries every call."""
    if rho.shape != grid.shape:
        raise ValueError(f"rho shape {rho.shape} != grid {grid.shape}")
    nx, ny = grid.nx, grid.ny
    wu = (np.pi * np.arange(nx) / (nx * grid.dx))[:, None]
    wv = (np.pi * np.arange(ny) / (ny * grid.dy))[None, :]
    denom = wu**2 + wv**2
    denom[0, 0] = 1.0
    inv_denom = 1.0 / denom

    balanced = rho - rho.mean()
    a = sfft.dctn(balanced, type=2)
    coef = a * inv_denom
    coef[0, 0] = 0.0
    psi = sfft.idctn(coef, type=2)

    # E = -grad(psi): differentiating cos(w_u x)cos(w_v y) gives
    # -w_u sin cos (x) and -w_v cos sin (y); the minus signs cancel.
    cx = coef * wu
    cy = coef * wv
    ex = idxst(sfft.idct(cx, type=2, axis=1), axis=0)
    ey = idxst(sfft.idct(cy, type=2, axis=0), axis=1)
    return psi, ex, ey


# ---------------------------------------------------------- legality
def band_overlaps(netlist, tolerance=1e-6):
    """``{(row, a, b)}`` of every cell pair overlapping in a shared row band.

    Brute force over all pairs: each cell's bands come from the per-cell
    formula, and a pair sharing a band is flagged when the rectangles
    overlap by more than ``tolerance`` in both x and y.  ``a < b`` are
    cell indices.
    """
    die, rh = netlist.die, netlist.row_height
    n_rows = max(int(np.floor(die.height / rh + 1e-9)), 1)
    hw = netlist.cell_width / 2
    hh = netlist.cell_height / 2
    x, y = netlist.x, netlist.y
    bands = []
    for i in range(netlist.n_cells):
        r0 = int(np.floor((y[i] - hh[i] - die.ylo) / rh + 1e-6))
        r1 = int(np.ceil((y[i] + hh[i] - die.ylo) / rh - 1e-6)) - 1
        bands.append(set(range(max(r0, 0), min(r1, n_rows - 1) + 1)))
    found = set()
    for a in range(netlist.n_cells):
        for b in range(a + 1, netlist.n_cells):
            overlap = (
                x[a] + hw[a] > x[b] - hw[b] + tolerance
                and x[b] + hw[b] > x[a] - hw[a] + tolerance
                and y[a] + hh[a] > y[b] - hh[b] + tolerance
                and y[b] + hh[b] > y[a] - hh[a] + tolerance
            )
            if overlap:
                found.update((r, a, b) for r in bands[a] & bands[b])
    return found


# ------------------------------------------------------------- swap
#: (owner, attribute, oracle) for every hot kernel's call site.
CALL_SITES = (
    (wa, "_wa_axes", wa_axes),
    (rasterize, "_raster_overlaps", raster_overlaps),
    (netmove, "_virtual_cells", virtual_cells),
    (netmove, "_scatter_pair", scatter_pair),
    (Grid2D, "value_at", value_at),
    (PatternRouter, "_best_hvh_batch", _best_hvh_batch),
    (PatternRouter, "_best_vhv_batch", _best_vhv_batch),
)


#: (owner, attribute, oracle) of the placer's per-iteration passes
ALL_NETS_SITES = (
    (WAWirelength, "__call__", wa_call),
    (rd_placer, "two_pin_net_gradients", two_pin_net_gradients),
    (rd_placer, "multi_pin_cell_gradients", multi_pin_cell_gradients),
)


@contextlib.contextmanager
def _swapped(sites):
    """Rebind every ``(owner, name)`` of ``sites`` to its oracle inside the block."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in sites]
    try:
        for owner, name, fn in sites:
            setattr(owner, name, fn)
        yield
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def oracle_kernels():
    """Run every hot kernel's call site on its oracle inside the block."""
    return _swapped(CALL_SITES)


def all_nets_passes():
    """Run WA, Alg. 1 and Alg. 2 over every net and cell inside the block."""
    return _swapped(ALL_NETS_SITES)


def per_net_decomposition():
    """Route inside the block on :func:`collect_segment_batch` above."""
    return _swapped(((GlobalRouter, "_collect_segment_batch", collect_segment_batch),))
