"""Congestion-aware L/Z-shape pattern routing for two-pin segments.

This is the route family of the "Z-shape routing algorithm" [18] the
paper uses for congestion estimation: each segment is realised as a
straight run, an L (one bend) or a Z (two bends), whichever has the
lowest congestion cost.  Candidate bend positions are evaluated in
closed form with prefix sums of the cost maps, so choosing among
``O(nx + ny)`` candidates costs a handful of vector operations.

Two evaluation paths share the same candidate generator and cost
algebra:

* :meth:`PatternRouter.route_batch` — arrays of segments, stacks the
  closed-form candidate costs over segments and returns a
  struct-of-arrays :class:`RoutedPathBatch`, one numpy dispatch per
  candidate family instead of one per segment;
* :meth:`PatternRouter.route_one` — one segment, same
  ``(family, bend, cost)`` encoding; the router's per-chunk fault
  fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# RoutedPathBatch.family codes
FAMILY_EMPTY = 0  # degenerate segment, both endpoints in one G-cell
FAMILY_H = 1  # single horizontal run
FAMILY_V = 2  # single vertical run
FAMILY_HVH = 3  # horizontal-vertical-horizontal, bend column ``bend``
FAMILY_VHV = 4  # vertical-horizontal-vertical, bend row ``bend``


@dataclass
class RoutedPath:
    """A committed route: axis-aligned runs plus bend locations.

    ``runs`` entries are ``('h', j, i0, i1)`` or ``('v', i, j0, j1)``
    with inclusive G-cell index ranges; ``bends`` are the G-cells where
    the direction changes (each costs a via).
    """

    runs: list
    bends: list
    cost: float

    @property
    def n_bends(self) -> int:
        """Number of bend points on the path."""
        return len(self.bends)

    def _run_arrays(self):
        """Runs as ``(is_h, fixed, lo, hi)`` numpy arrays."""
        is_h = np.fromiter(
            (kind == "h" for kind, *_ in self.runs), dtype=bool, count=len(self.runs)
        )
        fixed = np.fromiter(
            (r[1] for r in self.runs), dtype=np.int64, count=len(self.runs)
        )
        a = np.fromiter((r[2] for r in self.runs), dtype=np.int64, count=len(self.runs))
        b = np.fromiter((r[3] for r in self.runs), dtype=np.int64, count=len(self.runs))
        return is_h, fixed, np.minimum(a, b), np.maximum(a, b)

    def wire_cells(self) -> int:
        """Total G-cells crossed by wire runs (counting overlaps)."""
        if not self.runs:
            return 0
        _, _, lo, hi = self._run_arrays()
        return int((hi - lo + 1).sum())

    def wirelength(self, dx: float, dy: float) -> float:
        """Physical length: run spans scaled by the G-cell pitch."""
        if not self.runs:
            return 0.0
        is_h, _, lo, hi = self._run_arrays()
        span = hi - lo
        return float((span * np.where(is_h, dx, dy)).sum())

    def covered_cells(self) -> list:
        """All (i, j) G-cells on the path, in run order."""
        if not self.runs:
            return []
        is_h, fixed, lo, hi = self._run_arrays()
        spans = hi - lo + 1
        starts = np.concatenate(([0], np.cumsum(spans)[:-1]))
        # concatenated aranges lo_k..hi_k without a Python loop
        moving = np.arange(int(spans.sum())) + np.repeat(lo - starts, spans)
        fix = np.repeat(fixed, spans)
        h = np.repeat(is_h, spans)
        i = np.where(h, moving, fix)
        j = np.where(h, fix, moving)
        return list(zip(i.tolist(), j.tolist()))


@dataclass
class RunArrays:
    """Flattened axis-aligned runs and bends of many paths.

    ``h_*`` arrays describe horizontal runs (``h_demand[lo:hi+1, j]``),
    ``v_*`` vertical runs, ``b_*`` bend locations.  ``*_seg`` maps each
    run/bend back to the owning segment index.
    """

    h_seg: np.ndarray
    h_j: np.ndarray
    h_lo: np.ndarray
    h_hi: np.ndarray
    v_seg: np.ndarray
    v_i: np.ndarray
    v_lo: np.ndarray
    v_hi: np.ndarray
    b_seg: np.ndarray
    b_i: np.ndarray
    b_j: np.ndarray


@dataclass
class RoutedPathBatch:
    """Struct-of-arrays result of :meth:`PatternRouter.route_batch`.

    Every L/Z pattern is fully described by its family code and a
    single bend coordinate (column ``m`` for HVH, row ``r`` for VHV),
    so a batch of N paths is five flat arrays instead of N Python
    objects.  :meth:`path` materialises one :class:`RoutedPath` when
    object-level interop (maze fallback, debugging) is needed.
    """

    i1: np.ndarray
    j1: np.ndarray
    i2: np.ndarray
    j2: np.ndarray
    family: np.ndarray
    bend: np.ndarray
    cost: np.ndarray

    def __len__(self) -> int:
        return len(self.family)

    # ------------------------------------------------------------------
    def path(self, k: int) -> RoutedPath:
        """Materialise segment ``k`` as a :class:`RoutedPath`."""
        i1, j1 = int(self.i1[k]), int(self.j1[k])
        i2, j2 = int(self.i2[k]), int(self.j2[k])
        fam = int(self.family[k])
        cost = float(self.cost[k])
        if fam == FAMILY_EMPTY:
            return RoutedPath(runs=[], bends=[], cost=cost)
        if fam == FAMILY_H:
            return RoutedPath(runs=[("h", j1, i1, i2)], bends=[], cost=cost)
        if fam == FAMILY_V:
            return RoutedPath(runs=[("v", i1, j1, j2)], bends=[], cost=cost)
        runs: list = []
        bends: list = []
        if fam == FAMILY_HVH:
            m = int(self.bend[k])
            if m != i1:
                runs.append(("h", j1, i1, m))
                bends.append((m, j1))
            runs.append(("v", m, j1, j2))
            if m != i2:
                runs.append(("h", j2, m, i2))
                bends.append((m, j2))
        else:
            r = int(self.bend[k])
            if r != j1:
                runs.append(("v", i1, j1, r))
                bends.append((i1, r))
            runs.append(("h", r, i1, i2))
            if r != j2:
                runs.append(("v", i2, r, j2))
                bends.append((i2, r))
        return RoutedPath(runs=runs, bends=bends, cost=cost)

    # ------------------------------------------------------------------
    def runs(self, idx: np.ndarray | None = None) -> RunArrays:
        """Flattened runs/bends of segments ``idx`` (all when None)."""
        if idx is None:
            idx = np.arange(len(self), dtype=np.int64)
        else:
            idx = np.asarray(idx, dtype=np.int64)
        fam = self.family[idx]
        i1, j1 = self.i1[idx], self.j1[idx]
        i2, j2 = self.i2[idx], self.j2[idx]
        bend = self.bend[idx]

        h_seg, h_j, h_a, h_b = [], [], [], []
        v_seg, v_i, v_a, v_b = [], [], [], []
        b_seg, b_i, b_j = [], [], []

        def _h(mask, j, a, b):
            h_seg.append(idx[mask])
            h_j.append(j[mask])
            h_a.append(a[mask])
            h_b.append(b[mask])

        def _v(mask, i, a, b):
            v_seg.append(idx[mask])
            v_i.append(i[mask])
            v_a.append(a[mask])
            v_b.append(b[mask])

        def _bend(mask, i, j):
            b_seg.append(idx[mask])
            b_i.append(i[mask])
            b_j.append(j[mask])

        _h(fam == FAMILY_H, j1, i1, i2)
        _v(fam == FAMILY_V, i1, j1, j2)

        hvh = fam == FAMILY_HVH
        _h(hvh & (bend != i1), j1, i1, bend)
        _v(hvh, bend, j1, j2)
        _h(hvh & (bend != i2), j2, bend, i2)
        _bend(hvh & (bend != i1), bend, j1)
        _bend(hvh & (bend != i2), bend, j2)

        vhv = fam == FAMILY_VHV
        _v(vhv & (bend != j1), i1, j1, bend)
        _h(vhv, bend, i1, i2)
        _v(vhv & (bend != j2), i2, bend, j2)
        _bend(vhv & (bend != j1), i1, bend)
        _bend(vhv & (bend != j2), i2, bend)

        ha = np.concatenate(h_a)
        hb = np.concatenate(h_b)
        va = np.concatenate(v_a)
        vb = np.concatenate(v_b)
        return RunArrays(
            h_seg=np.concatenate(h_seg),
            h_j=np.concatenate(h_j),
            h_lo=np.minimum(ha, hb),
            h_hi=np.maximum(ha, hb),
            v_seg=np.concatenate(v_seg),
            v_i=np.concatenate(v_i),
            v_lo=np.minimum(va, vb),
            v_hi=np.maximum(va, vb),
            b_seg=np.concatenate(b_seg),
            b_i=np.concatenate(b_i),
            b_j=np.concatenate(b_j),
        )

    # ------------------------------------------------------------------
    def wirelengths(self, dx: float, dy: float) -> np.ndarray:
        """Physical wirelength per segment (vectorized)."""
        fam = self.family
        dxspan = np.abs(self.i2 - self.i1).astype(np.float64)
        dyspan = np.abs(self.j2 - self.j1).astype(np.float64)
        # straight and single-bend/Z families all cover the Manhattan
        # span exactly once per axis, plus the detour of the bend
        # coordinate outside the endpoint interval
        m = self.bend
        hvh = fam == FAMILY_HVH
        vhv = fam == FAMILY_VHV
        detour_x = np.where(
            hvh,
            np.abs(m - self.i1) + np.abs(self.i2 - m) - np.abs(self.i2 - self.i1),
            0,
        )
        detour_y = np.where(
            vhv,
            np.abs(m - self.j1) + np.abs(self.j2 - m) - np.abs(self.j2 - self.j1),
            0,
        )
        length = (dxspan + detour_x) * dx + (dyspan + detour_y) * dy
        return np.where(fam == FAMILY_EMPTY, 0.0, length)


class PatternRouter:
    """Pattern route segments against a pair of cost maps.

    Rebuild (or :meth:`refresh`) whenever the cost maps change; routing
    itself never mutates them.
    """

    def __init__(
        self,
        h_cost: np.ndarray,
        v_cost: np.ndarray,
        via_cost: float = 1.0,
        z_samples: int = 16,
        detour_margin: int = 2,
    ) -> None:
        self.via_cost = via_cost
        self.z_samples = max(z_samples, 2)
        self.detour_margin = detour_margin
        self.refresh(h_cost, v_cost)

    def refresh(self, h_cost: np.ndarray, v_cost: np.ndarray) -> None:
        """Update prefix sums after the cost maps changed."""
        nx, ny = h_cost.shape
        self.nx, self.ny = nx, ny
        self._hpre = np.zeros((nx + 1, ny))
        np.cumsum(h_cost, axis=0, out=self._hpre[1:])
        self._vpre = np.zeros((nx, ny + 1))
        np.cumsum(v_cost, axis=1, out=self._vpre[:, 1:])

    # ------------------------------------------------------------------
    def _h_run_cost(self, j, i0, i1):
        lo = np.minimum(i0, i1)
        hi = np.maximum(i0, i1)
        return self._hpre[hi + 1, j] - self._hpre[lo, j]

    def _v_run_cost(self, i, j0, j1):
        lo = np.minimum(j0, j1)
        hi = np.maximum(j0, j1)
        return self._vpre[i, hi + 1] - self._vpre[i, lo]

    def _candidate_matrix(
        self, a: np.ndarray, b: np.ndarray, limit: int
    ) -> np.ndarray:
        """Bend-candidate matrix ``(n, z_samples)``, rows sorted ascending.

        Row ``k`` holds the candidate coordinates of segment ``k``:
        the dense range ``lo..hi`` when it fits in ``z_samples``
        (right-padded by repeating ``hi``, which is harmless for an
        argmin because the first occurrence wins), else ``z_samples``
        evenly spaced positions.  The subsampled row reproduces
        ``np.linspace(lo, hi, z).round()`` operation-for-operation so
        :meth:`route_one` and :meth:`route_batch` see identical
        candidates.
        """
        lo = np.maximum(np.minimum(a, b) - self.detour_margin, 0)
        hi = np.minimum(np.maximum(a, b) + self.detour_margin, limit - 1)
        k = self.z_samples
        t = np.arange(k, dtype=np.float64)
        step = (hi - lo).astype(np.float64) / (k - 1)
        sub = np.round(t[None, :] * step[:, None] + lo[:, None]).astype(np.int64)
        sub[:, -1] = hi
        dense = np.minimum(lo[:, None] + np.arange(k, dtype=np.int64), hi[:, None])
        return np.where((hi - lo < k)[:, None], dense, sub)

    def _candidates(self, a: int, b: int, limit: int) -> np.ndarray:
        row = self._candidate_matrix(
            np.array([a], dtype=np.int64), np.array([b], dtype=np.int64), limit
        )[0]
        lo = max(min(a, b) - self.detour_margin, 0)
        hi = min(max(a, b) + self.detour_margin, limit - 1)
        return row[: min(hi - lo + 1, self.z_samples)]

    # ------------------------------------------------------------------
    def route_one(self, i1: int, j1: int, i2: int, j2: int) -> tuple:
        """Best L/Z path of one segment as ``(family, bend, cost)``.

        The router's per-chunk fallback uses this to fill
        :class:`RoutedPathBatch` entries one segment at a time when
        :meth:`route_batch` fails; candidates, cost arithmetic and
        tie-breaking mirror the batch path operation-for-operation, so
        the fallback is bit-identical to a healthy batched chunk.
        """
        if i1 == i2 and j1 == j2:
            return FAMILY_EMPTY, 0, 0.0
        if j1 == j2:
            return FAMILY_H, 0, float(self._h_run_cost(j1, i1, i2))
        if i1 == i2:
            return FAMILY_V, 0, float(self._v_run_cost(i1, j1, j2))

        best_m, best_hvh = 0, np.inf
        for m in self._candidates(i1, i2, self.nx):
            c = (
                self._h_run_cost(j1, i1, m)
                + self._v_run_cost(m, j1, j2)
                + self._h_run_cost(j2, m, i2)
                + self.via_cost * (float(m != i1) + (m != i2))
            )
            if c < best_hvh:
                best_hvh, best_m = c, int(m)
        best_r, best_vhv = 0, np.inf
        for r in self._candidates(j1, j2, self.ny):
            c = (
                self._v_run_cost(i1, j1, r)
                + self._h_run_cost(r, i1, i2)
                + self._v_run_cost(i2, r, j2)
                + self.via_cost * (float(r != j1) + (r != j2))
            )
            if c < best_vhv:
                best_vhv, best_r = c, int(r)
        if best_vhv < best_hvh:  # batch keeps HVH on ties
            return FAMILY_VHV, best_r, float(best_vhv)
        return FAMILY_HVH, best_m, float(best_hvh)

    def route_batch(
        self,
        i1: np.ndarray,
        j1: np.ndarray,
        i2: np.ndarray,
        j2: np.ndarray,
    ) -> RoutedPathBatch:
        """Best L/Z paths for arrays of segments in one shot.

        Each segment gets the cheapest straight, HVH or VHV path over
        its bend candidates (tie-breaking: HVH wins cost ties, the
        lowest-coordinate bend wins within a family), using a constant
        number of numpy dispatches.
        """
        i1 = np.asarray(i1, dtype=np.int64)
        j1 = np.asarray(j1, dtype=np.int64)
        i2 = np.asarray(i2, dtype=np.int64)
        j2 = np.asarray(j2, dtype=np.int64)
        n = len(i1)
        family = np.zeros(n, dtype=np.int8)
        bend = np.zeros(n, dtype=np.int64)
        cost = np.zeros(n, dtype=np.float64)

        same_i = i1 == i2
        same_j = j1 == j2
        m_h = same_j & ~same_i
        m_v = same_i & ~same_j
        m_lz = ~same_i & ~same_j

        if m_h.any():
            family[m_h] = FAMILY_H
            cost[m_h] = self._h_run_cost(j1[m_h], i1[m_h], i2[m_h])
        if m_v.any():
            family[m_v] = FAMILY_V
            cost[m_v] = self._v_run_cost(i1[m_v], j1[m_v], j2[m_v])
        if m_lz.any():
            idx = np.flatnonzero(m_lz)
            a, b, c, d = i1[idx], j1[idx], i2[idx], j2[idx]
            c_hvh, m_best = self._best_hvh_batch(a, b, c, d)
            c_vhv, r_best = self._best_vhv_batch(a, b, c, d)
            use_vhv = c_vhv < c_hvh  # HVH wins cost ties
            family[idx] = np.where(use_vhv, FAMILY_VHV, FAMILY_HVH)
            bend[idx] = np.where(use_vhv, r_best, m_best)
            cost[idx] = np.where(use_vhv, c_vhv, c_hvh)

        return RoutedPathBatch(
            i1=i1, j1=j1, i2=i2, j2=j2, family=family, bend=bend, cost=cost
        )

    def _best_hvh_batch(self, i1, j1, i2, j2):
        """Cheapest horizontal-vertical-horizontal path per segment.

        Returns per-segment ``(cost, bend column)``; ties keep the
        lowest candidate, exactly like ``np.argmin``.
        """
        ms = self._candidate_matrix(i1, i2, self.nx)
        i1c, i2c = i1[:, None], i2[:, None]
        j1c, j2c = j1[:, None], j2[:, None]
        c = (
            self._h_run_cost(j1c, i1c, ms)
            + self._v_run_cost(ms, j1c, j2c)
            + self._h_run_cost(j2c, ms, i2c)
            + self.via_cost * ((ms != i1c).astype(float) + (ms != i2c))
        )
        k = np.argmin(c, axis=1)
        rows = np.arange(len(k))
        return c[rows, k], ms[rows, k]

    def _best_vhv_batch(self, i1, j1, i2, j2):
        """Cheapest vertical-horizontal-vertical path per segment.

        Returns per-segment ``(cost, bend row)``.
        """
        rs = self._candidate_matrix(j1, j2, self.ny)
        i1c, i2c = i1[:, None], i2[:, None]
        j1c, j2c = j1[:, None], j2[:, None]
        c = (
            self._v_run_cost(i1c, j1c, rs)
            + self._h_run_cost(rs, i1c, i2c)
            + self._v_run_cost(i2c, rs, j2c)
            + self.via_cost * ((rs != j1c).astype(float) + (rs != j2c))
        )
        k = np.argmin(c, axis=1)
        rows = np.arange(len(k))
        return c[rows, k], rs[rows, k]
