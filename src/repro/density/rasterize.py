"""Charge rasterization: scatter cell rectangles into a bin grid.

Implements the ePlace density model ingredients:

* each cell carries charge equal to its (possibly inflated) area;
* cells narrower/shorter than ``sqrt(2) x`` the bin pitch are stretched
  to that size with the charge preserved (local smoothing), which keeps
  the density function differentiable as cells cross bin boundaries;
* the same overlap weights used for scattering are reused to *gather*
  a field map back onto cells, yielding the electrostatic force
  ``F_i = q_i * average field over the cell footprint``.

Cells spanning few bins (after smoothing, standard cells span at most
3x3) take a fully vectorized broadcast path; the handful of macros and
large fixed blocks take an exact per-cell loop.

The size-dependent part (smoothed half sizes, charge scale) is built
once per set of sizes; :meth:`CellRasterizer.move_to` recomputes only
the position-dependent overlaps.  The split into small and large cells
and the owning cell of every broadcast entry are kept while they stay
the same, so a placer iterating at fixed sizes rebuilds neither.
``tests/oracle.py`` keeps the per-call form that rebuilds everything at
every position, and the tests pin this one to it at ``atol=0``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import Grid2D

_SQRT2 = math.sqrt(2.0)
_MAX_VECTOR_SPAN = 6  # cells spanning more bins than this go to the slow path


def _raster_overlaps(
    xlo, xhi, ylo, yhi, i0, j0, kx, ky, scale,
    base_x, base_y, dx, dy, nx, ny,
):
    """Flattened bin indices and charge weights of the small cells.

    All per-cell arrays are already sliced to the small cells.  One
    ``(kx, ky, n)`` broadcast covers every ``(di, dj)`` bin offset of
    every cell; its C-order ravel gives the canonical entry order
    (``di`` outer, ``dj`` inner, cells innermost), which fixes the
    summation order of the scatter/gather bincounts.
    """
    di = np.arange(kx, dtype=np.int64)[:, None]
    dj = np.arange(ky, dtype=np.int64)[:, None]
    left_x = base_x + (i0 + di) * dx  # (kx, n)
    lx = np.clip(np.minimum(xhi, left_x + dx) - np.maximum(xlo, left_x), 0.0, dx)
    col = np.clip(i0 + di, 0, nx - 1)
    left_y = base_y + (j0 + dj) * dy  # (ky, n)
    ly = np.clip(np.minimum(yhi, left_y + dy) - np.maximum(ylo, left_y), 0.0, dy)
    row = np.clip(j0 + dj, 0, ny - 1)
    bin_idx = (col[:, None, :] * ny + row[None, :, :]).reshape(-1)
    weights = ((lx[:, None, :] * ly[None, :, :]) * scale).reshape(-1)
    return bin_idx, weights


class CellRasterizer:
    """Overlap structure of a set of rectangles against a grid.

    Build once per set of sizes, :meth:`move_to` new centers any number
    of times, and call :meth:`charge_map` and :meth:`gather` in between.

    Parameters
    ----------
    grid:
        Target bin grid.
    x, y:
        Rectangle centers.
    width, height:
        Rectangle sizes *before* smoothing.
    smooth:
        Apply the ePlace small-cell stretch (default True).  Disable
        for exact-area accounting (e.g. utilization maps).
    """

    def __init__(
        self,
        grid: Grid2D,
        x: np.ndarray,
        y: np.ndarray,
        width: np.ndarray,
        height: np.ndarray,
        smooth: bool = True,
    ) -> None:
        self.grid = grid
        self.n = len(x)
        width = np.asarray(width, dtype=np.float64)
        height = np.asarray(height, dtype=np.float64)

        if smooth:
            w_eff = np.maximum(width, _SQRT2 * grid.dx)
            h_eff = np.maximum(height, _SQRT2 * grid.dy)
        else:
            w_eff = width
            h_eff = height
        area = width * height
        eff_area = w_eff * h_eff
        # charge-preserving density scale
        self._scale = np.where(eff_area > 0, area / np.maximum(eff_area, 1e-300), 0.0)
        self._half_w = 0.5 * w_eff
        self._half_h = 0.5 * h_eff
        # small-cell mask the split below belongs to, and
        # ((kx, ky), owning cell of every broadcast entry)
        self._small: np.ndarray | None = None
        self._entry_cells: tuple | None = None
        self.move_to(x, y)

    # ------------------------------------------------------------------
    def move_to(self, x: np.ndarray, y: np.ndarray) -> None:
        """Recompute the overlaps for rectangle centers ``x``, ``y``."""
        g = self.grid
        r = g.region
        # drop the previous overlaps first: never hold two sets at once
        self._bin_idx = self._weights = self._large = None
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        # clip to the region so off-die parts are not dropped silently,
        # they are squeezed to the boundary bins by the clip below.
        xlo = np.clip(x - self._half_w, r.xlo, r.xhi)
        xhi = np.clip(x + self._half_w, r.xlo, r.xhi)
        ylo = np.clip(y - self._half_h, r.ylo, r.yhi)
        yhi = np.clip(y + self._half_h, r.ylo, r.yhi)
        self._xlo, self._xhi, self._ylo, self._yhi = xlo, xhi, ylo, yhi

        eps = 1e-12
        self._i0 = np.clip(((xlo - r.xlo) / g.dx).astype(np.int64), 0, g.nx - 1)
        self._i1 = np.clip(
            np.ceil((xhi - r.xlo) / g.dx - eps).astype(np.int64) - 1, 0, g.nx - 1
        )
        self._j0 = np.clip(((ylo - r.ylo) / g.dy).astype(np.int64), 0, g.ny - 1)
        self._j1 = np.clip(
            np.ceil((yhi - r.ylo) / g.dy - eps).astype(np.int64) - 1, 0, g.ny - 1
        )
        self._i1 = np.maximum(self._i1, self._i0)
        self._j1 = np.maximum(self._j1, self._j0)

        span_x = self._i1 - self._i0 + 1
        span_y = self._j1 - self._j0 + 1
        small = (span_x <= _MAX_VECTOR_SPAN) & (span_y <= _MAX_VECTOR_SPAN)
        if self._small is None or not np.array_equal(small, self._small):
            self._small = small
            self._small_ids = np.flatnonzero(small)
            self._large_ids = np.flatnonzero(~small)
            self._entry_cells = None
        self._bin_idx, self._weights = self._build_small_overlaps()
        self._large = [self._cell_bin_overlaps(cid) for cid in self._large_ids]

    # ------------------------------------------------------------------
    def _overlap_1d(self, lo, hi, base, pitch, k0, offset):
        """Overlap length of [lo, hi] with bin (k0 + offset) along one axis."""
        left = base + (k0 + offset) * pitch
        return np.clip(np.minimum(hi, left + pitch) - np.maximum(lo, left), 0.0, pitch)

    def _build_small_overlaps(self):
        """Flattened bin indices and charge weights for the vectorized set."""
        ids = self._small_ids
        if len(ids) == 0:
            self._kxy = (0, 0)
            return np.empty(0, dtype=np.int64), np.empty((0,), dtype=np.float64)
        g = self.grid
        # every cell small: slices are views, not gathers
        sel = ids if len(self._large_ids) else slice(None)
        i0 = self._i0[sel]
        j0 = self._j0[sel]
        kx = int((self._i1[sel] - i0).max()) + 1
        ky = int((self._j1[sel] - j0).max()) + 1
        self._kxy = (kx, ky)
        return _raster_overlaps(
            self._xlo[sel],
            self._xhi[sel],
            self._ylo[sel],
            self._yhi[sel],
            i0,
            j0,
            kx,
            ky,
            self._scale[sel],
            g.region.xlo,
            g.region.ylo,
            g.dx,
            g.dy,
            g.nx,
            g.ny,
        )

    def _entry_cell_index(self) -> np.ndarray:
        """Owning cell of every small-cell entry.

        Rebuilt only when the split or ``(kx, ky)`` changes.
        """
        kx, ky = self._kxy
        if self._entry_cells is None or self._entry_cells[0] != (kx, ky):
            self._entry_cells = ((kx, ky), np.tile(self._small_ids, kx * ky))
        return self._entry_cells[1]

    # ------------------------------------------------------------------
    def charge_map(self) -> np.ndarray:
        """Total charge per bin (area units), shape = grid shape."""
        g = self.grid
        flat = np.bincount(self._bin_idx, weights=self._weights, minlength=g.nx * g.ny)
        out = flat.astype(np.float64, copy=False).reshape(g.nx, g.ny)
        for i, j, w in self._large:
            out[np.ix_(i, j)] += w
        return out

    def density_map(self) -> np.ndarray:
        """Charge normalized by bin area (a pure occupancy ratio)."""
        return self.charge_map() / self.grid.bin_area

    def _cell_bin_overlaps(self, cid: int):
        """Exact (i, j, overlap_charge) arrays for one large cell."""
        g = self.grid
        i = np.arange(self._i0[cid], self._i1[cid] + 1)
        j = np.arange(self._j0[cid], self._j1[cid] + 1)
        lx = self._overlap_1d(
            self._xlo[cid], self._xhi[cid], g.region.xlo, g.dx, i, 0
        )
        ly = self._overlap_1d(
            self._ylo[cid], self._yhi[cid], g.region.ylo, g.dy, j, 0
        )
        w = np.outer(lx, ly) * self._scale[cid]
        return i, j, w

    # ------------------------------------------------------------------
    def _check_field(self, field: np.ndarray) -> None:
        if field.shape != self.grid.shape:
            raise ValueError(f"field shape {field.shape} != grid {self.grid.shape}")

    def gather(self, field: np.ndarray) -> np.ndarray:
        """Charge-weighted field sum per cell: ``sum_b q_ib * field_b``.

        With ``field`` the electric field map this is the force; with
        the potential map it is twice the cell's electrostatic energy
        contribution.
        """
        self._check_field(field)
        if len(self._bin_idx):
            flat = field.reshape(-1)
            out = np.bincount(
                self._entry_cell_index(),
                weights=self._weights * flat[self._bin_idx],
                minlength=self.n,
            )
        else:
            out = np.zeros(self.n, dtype=np.float64)
        for cid, (i, j, w) in zip(self._large_ids, self._large):
            out[cid] = float((w * field[np.ix_(i, j)]).sum())
        return out

    def gather_xy(self, field_x: np.ndarray, field_y: np.ndarray) -> np.ndarray:
        """:meth:`gather` of two maps at once, as a ``(2, n)`` array.

        One row-stacked take and one product serve both maps; each
        row's products and summation order are :meth:`gather`'s.
        """
        self._check_field(field_x)
        self._check_field(field_y)
        n = self.n
        if len(self._bin_idx):
            fields = np.stack((field_x.reshape(-1), field_y.reshape(-1)))
            vals = np.take(fields, self._bin_idx, axis=1)
            vals *= self._weights
            cells = self._entry_cell_index()
            out = np.stack([
                np.bincount(cells, weights=row, minlength=n) for row in vals
            ])
        else:
            out = np.zeros((2, n), dtype=np.float64)
        for cid, (i, j, w) in zip(self._large_ids, self._large):
            out[0, cid] = float((w * field_x[np.ix_(i, j)]).sum())
            out[1, cid] = float((w * field_y[np.ix_(i, j)]).sum())
        return out

    def total_charge(self) -> float:
        """Sum of all scattered charge (equals total clipped cell area)."""
        total = float(self._weights.sum())
        for _, _, w in self._large:
            total += float(w.sum())
        return total
