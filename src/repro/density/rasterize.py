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
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.grid import Grid2D

_SQRT2 = math.sqrt(2.0)
_MAX_VECTOR_SPAN = 6  # cells spanning more bins than this go to the slow path


def _raster_overlaps(
    ids, xlo, xhi, ylo, yhi, i0, j0, kx, ky, scale,
    base_x, base_y, dx, dy, nx, ny,
):
    """Flattened bin indices, weights and owning cells of the small cells.

    All per-cell arrays are already sliced to the subset ``ids``.  One
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
    return bin_idx, weights, np.tile(ids, kx * ky)


class CellRasterizer:
    """Overlap structure of a set of rectangles against a grid.

    Build once per set of positions/sizes, then call :meth:`scatter`
    and :meth:`gather` any number of times.

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
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
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

        xlo = x - 0.5 * w_eff
        xhi = x + 0.5 * w_eff
        ylo = y - 0.5 * h_eff
        yhi = y + 0.5 * h_eff
        # clip to the region so off-die parts are not dropped silently,
        # they are squeezed to the boundary bins by the clip below.
        r = grid.region
        xlo = np.clip(xlo, r.xlo, r.xhi)
        xhi = np.clip(xhi, r.xlo, r.xhi)
        ylo = np.clip(ylo, r.ylo, r.yhi)
        yhi = np.clip(yhi, r.ylo, r.yhi)
        self._xlo, self._xhi, self._ylo, self._yhi = xlo, xhi, ylo, yhi

        eps = 1e-12
        self._i0 = np.clip(((xlo - r.xlo) / grid.dx).astype(np.int64), 0, grid.nx - 1)
        self._i1 = np.clip(
            np.ceil((xhi - r.xlo) / grid.dx - eps).astype(np.int64) - 1, 0, grid.nx - 1
        )
        self._j0 = np.clip(((ylo - r.ylo) / grid.dy).astype(np.int64), 0, grid.ny - 1)
        self._j1 = np.clip(
            np.ceil((yhi - r.ylo) / grid.dy - eps).astype(np.int64) - 1, 0, grid.ny - 1
        )
        self._i1 = np.maximum(self._i1, self._i0)
        self._j1 = np.maximum(self._j1, self._j0)

        span_x = self._i1 - self._i0 + 1
        span_y = self._j1 - self._j0 + 1
        small = (span_x <= _MAX_VECTOR_SPAN) & (span_y <= _MAX_VECTOR_SPAN)
        self._small_ids = np.flatnonzero(small)
        self._large_ids = np.flatnonzero(~small)

        self._bin_idx, self._weights = self._build_small_overlaps()

    # ------------------------------------------------------------------
    def _overlap_1d(self, lo, hi, base, pitch, k0, offset):
        """Overlap length of [lo, hi] with bin (k0 + offset) along one axis."""
        left = base + (k0 + offset) * pitch
        return np.clip(np.minimum(hi, left + pitch) - np.maximum(lo, left), 0.0, pitch)

    def _build_small_overlaps(self):
        """Flattened bin indices and charge weights for the vectorized set."""
        ids = self._small_ids
        if len(ids) == 0:
            return np.empty(0, dtype=np.int64), np.empty((0,), dtype=np.float64)
        g = self.grid
        i0 = self._i0[ids]
        j0 = self._j0[ids]
        kx = int((self._i1[ids] - i0).max()) + 1
        ky = int((self._j1[ids] - j0).max()) + 1
        bin_idx, weights, cell_of_entry = _raster_overlaps(
            ids,
            self._xlo[ids],
            self._xhi[ids],
            self._ylo[ids],
            self._yhi[ids],
            i0,
            j0,
            kx,
            ky,
            self._scale[ids],
            g.region.xlo,
            g.region.ylo,
            g.dx,
            g.dy,
            g.nx,
            g.ny,
        )
        self._small_cell_of_entry = cell_of_entry
        return bin_idx, weights

    # ------------------------------------------------------------------
    def charge_map(self) -> np.ndarray:
        """Total charge per bin (area units), shape = grid shape."""
        g = self.grid
        flat = np.bincount(self._bin_idx, weights=self._weights, minlength=g.nx * g.ny)
        out = flat.astype(np.float64, copy=False).reshape(g.nx, g.ny)
        for cid in self._large_ids:
            self._scatter_large(out, cid)
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

    def _scatter_large(self, out: np.ndarray, cid: int) -> None:
        i, j, w = self._cell_bin_overlaps(cid)
        out[np.ix_(i, j)] += w

    # ------------------------------------------------------------------
    def gather(self, field: np.ndarray) -> np.ndarray:
        """Charge-weighted field sum per cell: ``sum_b q_ib * field_b``.

        With ``field`` the electric field map this is the force; with
        the potential map it is twice the cell's electrostatic energy
        contribution.
        """
        g = self.grid
        if field.shape != g.shape:
            raise ValueError(f"field shape {field.shape} != grid {g.shape}")
        if len(self._bin_idx):
            flat = field.reshape(-1)
            out = np.bincount(
                self._small_cell_of_entry,
                weights=self._weights * flat[self._bin_idx],
                minlength=self.n,
            )
        else:
            out = np.zeros(self.n, dtype=np.float64)
        for cid in self._large_ids:
            i, j, w = self._cell_bin_overlaps(cid)
            out[cid] = float((w * field[np.ix_(i, j)]).sum())
        return out

    def total_charge(self) -> float:
        """Sum of all scattered charge (equals total clipped cell area)."""
        total = float(self._weights.sum())
        for cid in self._large_ids:
            _, _, w = self._cell_bin_overlaps(cid)
            total += float(w.sum())
        return total
