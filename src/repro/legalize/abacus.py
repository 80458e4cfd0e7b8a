"""Abacus row refinement [Spindler et al.].

Given cells already assigned to rows (by Tetris), Abacus finds, per
free segment, the x positions minimizing the total weighted quadratic
displacement from the cells' global-placement locations subject to
non-overlap — via the classic cluster-merging recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.legalize.rows import RowMap
from repro.legalize.tetris import TetrisAssignment
from repro.netlist.netlist import Netlist


@dataclass
class _Cluster:
    e: float  # total weight
    q: float  # weighted target of the cluster's left edge
    w: float  # total width
    first: int  # index of first cell (into the segment's cell list)

    @property
    def x(self) -> float:
        return self.q / self.e if self.e > 0 else 0.0


def _place_segment(
    desired_left: np.ndarray,
    widths: np.ndarray,
    weights: np.ndarray,
    xlo: float,
    xhi: float,
) -> np.ndarray:
    """Optimal non-overlapping left edges within [xlo, xhi].

    Cells must be given in left-to-right order.  Implements the Abacus
    ``PlaceRow`` recurrence with boundary clamping.
    """
    clusters: list[_Cluster] = []
    for i in range(len(desired_left)):
        c = _Cluster(e=weights[i], q=weights[i] * desired_left[i], w=widths[i], first=i)
        while clusters:
            prev = clusters[-1]
            prev_x = min(max(prev.x, xlo), xhi - prev.w)
            if prev_x + prev.w <= min(max(c.x, xlo), xhi - c.w) + 1e-12:
                break
            # merge c into prev
            prev.q += c.q - c.e * prev.w
            prev.e += c.e
            prev.w += c.w
            c = prev
            clusters.pop()
        clusters.append(c)

    n = len(desired_left)
    out = np.empty(n)
    bounds = [c.first for c in clusters] + [n]
    for c, start, end in zip(clusters, bounds, bounds[1:]):
        x = min(max(c.x, xlo), max(xhi - c.w, xlo))
        for i in range(start, end):
            out[i] = x
            x += widths[i]
    return out


def abacus_refine(
    netlist: Netlist,
    rowmap: RowMap,
    assignment: TetrisAssignment,
    desired_x: np.ndarray,
) -> None:
    """Re-place each row segment optimally; mutates ``netlist.x``.

    Parameters
    ----------
    desired_x:
        Per-cell target centers (the global placement positions, saved
        before Tetris ran).
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for k, cid in enumerate(assignment.cell_ids):
        groups.setdefault((int(assignment.rows[k]), int(assignment.seg_index[k])), []).append(k)

    for (r, s_idx), ks in groups.items():
        seg = rowmap.segments[r][s_idx]
        ks.sort(key=lambda k: assignment.x_left[k])
        cids = assignment.cell_ids[ks]
        widths = netlist.cell_width[cids]
        weights = np.maximum(netlist.cell_area[cids], 1e-9)
        targets = desired_x[cids] - widths / 2
        lefts = _place_segment(targets, widths, weights, seg.xlo, seg.xhi)
        # integer-site snapping keeps overlap/boundary arithmetic exact
        # in site units; a cell width that is not a site multiple (an
        # ECO resize of 7 sites by 1.5 gives 10.5) occupies the sites it
        # touches, so it rounds up
        sw = rowmap.site_width
        start_site = int(np.ceil(seg.xlo / sw - 1e-9))
        end_site = int(np.floor(seg.xhi / sw + 1e-9))
        w_sites = np.ceil(widths / sw - 1e-9).astype(np.int64)
        li = np.rint(lefts / sw).astype(np.int64)
        li[0] = max(li[0], start_site)
        for i in range(1, len(li)):
            li[i] = max(li[i], li[i - 1] + w_sites[i - 1])
        if li[-1] + w_sites[-1] > end_site:
            # push the tail back left, preserving order
            li[-1] = end_site - w_sites[-1]
            for i in range(len(li) - 2, -1, -1):
                li[i] = min(li[i], li[i + 1] - w_sites[i])
            li = np.maximum(li, start_site)
            for i in range(1, len(li)):  # re-assert non-overlap
                li[i] = max(li[i], li[i - 1] + w_sites[i - 1])
        lefts = li.astype(np.float64) * sw
        netlist.x[cids] = lefts + widths / 2
        assignment.x_left[ks] = lefts
