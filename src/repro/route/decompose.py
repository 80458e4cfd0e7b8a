"""Net decomposition into two-pin segments.

Multi-pin nets are broken into a rectilinear minimum spanning tree
(Prim's algorithm over pin locations in the Manhattan metric), the
standard topology generator for pattern routers when a Steiner-tree
package is unavailable.  Two-pin nets map to a single segment.

Prim runs over whole degree buckets at once: every net of degree ``d``
is one row of a ``(n_nets, d)`` coordinate array, so a decomposition
costs one array step per tree edge of each distinct degree rather than
one Python iteration per net.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.netlist import Netlist
from repro.route.stt import single_trunk_segments


def prim_mst(px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prim MST of each row of ``(n, d)`` point arrays, Manhattan metric.

    Returns ``(src, dst)``, two ``(n, d - 1)`` arrays of column
    indices: edge ``k`` of row ``r`` joins point ``src[r, k]`` (already
    in the tree) to ``dst[r, k]``, in the order Prim adds them.  The
    tree grows from column 0; the nearest remaining point is picked
    with ``argmin``, so ties go to the lowest column.  Duplicate points
    get zero-length edges, which routers treat as via-only.
    """
    n, d = px.shape
    rows = np.arange(n)
    best_dist = np.abs(px - px[:, :1]) + np.abs(py - py[:, :1])
    best_dist[:, 0] = np.inf
    best_from = np.zeros((n, d), dtype=np.int64)
    dst = np.zeros((n, max(d - 1, 0)), dtype=np.int64)
    # a point that joins the tree moves to x = inf: its distance to
    # every later pick is inf, so no later pick improves it
    tree_x = px.copy()
    tree_x[:, 0] = np.inf
    for k in range(d - 1):
        nxt = np.argmin(best_dist, axis=1)
        dst[:, k] = nxt
        nxt_x = px[rows, nxt][:, None]
        nxt_y = py[rows, nxt][:, None]
        tree_x[rows, nxt] = np.inf
        best_dist[rows, nxt] = np.inf
        dist_new = np.abs(tree_x - nxt_x) + np.abs(py - nxt_y)
        improved = dist_new < best_dist
        np.copyto(best_dist, dist_new, where=improved)
        np.copyto(best_from, nxt[:, None], where=improved)
    # best_from of a point is final once it joins the tree
    return np.take_along_axis(best_from, dst, axis=1), dst


def segment_endpoints(
    netlist: Netlist, topology: str = "mst", net_ids=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Endpoint arrays ``(net_id, x1, y1, x2, y2)`` of every segment.

    Segments come in ascending net id, each net's segments in the order
    its topology generator emits them.  ``net_ids`` restricts the
    decomposition to the given nets (any order; ids that name no net
    are ignored), so a partial routing pass pays only for what it
    routes.  ``topology`` selects the multi-pin decomposition:
    ``"mst"`` (Prim, default) or ``"stt"`` (single-trunk Steiner tree,
    see :mod:`repro.route.stt`).  Two-pin nets are one segment under
    either topology, and nets with fewer than two pins have none.
    """
    if topology not in ("mst", "stt"):
        raise ValueError(f"unknown topology {topology!r}")
    px, py = netlist.pin_positions()
    deg = netlist.net_degrees()
    starts = netlist.net_pin_starts
    order = netlist.net_pin_order
    if net_ids is None:
        nets = np.arange(netlist.n_nets)
    else:
        nets = np.flatnonzero(np.isin(np.arange(netlist.n_nets), net_ids))
    nets = nets[deg[nets] >= 2]
    # stt decomposes only its multi-pin nets one by one; the two-pin
    # ones join the Prim buckets, where d = 2 gives the single edge
    prim_nets = nets if topology == "mst" else nets[deg[nets] == 2]

    empty = np.zeros(0, dtype=np.float64)
    net_id = [np.zeros(0, dtype=np.int64)]
    x1, y1, x2, y2 = [empty], [empty], [empty], [empty]
    for d in np.unique(deg[prim_nets]):
        bucket = prim_nets[deg[prim_nets] == d]
        pins = order[starts[bucket][:, None] + np.arange(d)]
        bx, by = px[pins], py[pins]
        src, dst = prim_mst(bx, by)
        rows = np.arange(len(bucket))[:, None]
        net_id.append(np.repeat(bucket, d - 1))
        x1.append(bx[rows, src].ravel())
        y1.append(by[rows, src].ravel())
        x2.append(bx[rows, dst].ravel())
        y2.append(by[rows, dst].ravel())
    if topology == "stt":
        multi = nets[deg[nets] >= 3]
        trees = [
            single_trunk_segments(px[pins], py[pins])
            for pins in (order[starts[e] : starts[e + 1]] for e in multi)
        ]
        net_id.append(np.repeat(multi, [len(t) for t in trees]))
        cols = np.asarray(
            [seg for t in trees for seg in t], dtype=np.float64
        ).reshape(-1, 4).T
        x1.append(cols[0])
        y1.append(cols[1])
        x2.append(cols[2])
        y2.append(cols[3])

    seg_net = np.concatenate(net_id).astype(np.int64, copy=False)
    # buckets come out grouped by degree; the stable sort restores
    # global net order without touching each net's segment order
    perm = np.argsort(seg_net, kind="stable")
    return (
        seg_net[perm],
        np.concatenate(x1)[perm],
        np.concatenate(y1)[perm],
        np.concatenate(x2)[perm],
        np.concatenate(y2)[perm],
    )
