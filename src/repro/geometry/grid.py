"""Uniform 2-D grid mapping between continuous coordinates and bins.

Both the placement bin grid and the routing G-cell grid are instances of
:class:`Grid2D`.  The paper predefines G-cells and bins to have the same
dimension (Sec. III-C) so congestion values can be mapped bin-to-bin; we
capture that by sharing a single grid object between the density engine
and the router whenever the paper requires it.

Conventions
-----------
* ``nx`` columns indexed by ``i`` along x, ``ny`` rows indexed by ``j``
  along y.
* Scalar maps are numpy arrays of shape ``(nx, ny)`` indexed ``[i, j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.rect import Rect
from repro.utils.contracts import CONTRACTS


def _sanitize_fractional(fx, site: str, axis: str):
    """Replace non-finite fractional bin coordinates deterministically.

    ``np.floor(nan).astype(int64)`` is platform-defined (INT64_MIN on
    x86, 0 on ARM), so the downstream clip used to hide garbage that
    differed between hosts.  NaN maps to 0 (the low-edge bin) and
    +/-Inf saturates to the edge bins on every platform; under active
    contracts the non-finite input is reported first.
    """
    finite = np.isfinite(fx)
    if finite.all():
        return fx
    if CONTRACTS.enabled:
        n_bad = int(np.size(finite) - np.count_nonzero(finite))
        CONTRACTS.violate(
            site,
            "grid.finite_coords",
            f"{n_bad} non-finite {axis}-coordinate(s)",
        )
    # +/-Inf saturate to +/-2^62: far beyond any grid (so the clip maps
    # them to the edge bins) yet exactly castable to int64, unlike
    # float64 max whose int cast overflows platform-dependently
    return np.nan_to_num(fx, nan=0.0, posinf=2.0**62, neginf=-(2.0**62))


def _clamp(index, lo: int, hi: int):
    """``np.clip`` of integer bin indices to ``[lo, hi]``.

    Equal to ``np.clip`` on integers (which has no NaN or signed zero to
    differ on), at a fraction of its dispatch cost on small arrays.
    """
    return np.minimum(np.maximum(index, lo), hi)


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid over a rectangular region."""

    region: Rect
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid must have positive dimensions: {self.nx}x{self.ny}")
        if self.region.width <= 0 or self.region.height <= 0:
            raise ValueError("grid region must have positive area")

    @property
    def dx(self) -> float:
        """Bin width."""
        return self.region.width / self.nx

    @property
    def dy(self) -> float:
        """Bin height."""
        return self.region.height / self.ny

    @property
    def bin_area(self) -> float:
        """Area of one bin, ``dx * dy``."""
        return self.dx * self.dy

    @property
    def shape(self) -> tuple[int, int]:
        """Bin-count tuple ``(nx, ny)``."""
        return (self.nx, self.ny)

    def index_of(self, x, y):
        """Bin indices ``(i, j)`` containing point(s) ``(x, y)``.

        Accepts scalars or numpy arrays; points outside the region are
        clamped to the boundary bins.  Non-finite coordinates are
        sanitized deterministically (NaN -> bin 0, +/-Inf -> the edge
        bins) and reported when contracts are active.
        """
        fx = (np.asarray(x, dtype=np.float64) - self.region.xlo) / self.dx
        fy = (np.asarray(y, dtype=np.float64) - self.region.ylo) / self.dy
        fx = _sanitize_fractional(fx, "grid.index_of", "x")
        fy = _sanitize_fractional(fy, "grid.index_of", "y")
        i = _clamp(np.floor(fx).astype(np.int64), 0, self.nx - 1)
        j = _clamp(np.floor(fy).astype(np.int64), 0, self.ny - 1)
        if np.isscalar(x) or (hasattr(i, "ndim") and i.ndim == 0):
            return int(i), int(j)
        return i, j

    def bin_rect(self, i: int, j: int) -> Rect:
        """Rectangle of bin ``(i, j)``."""
        x0 = self.region.xlo + i * self.dx
        y0 = self.region.ylo + j * self.dy
        return Rect(x0, y0, x0 + self.dx, y0 + self.dy)

    def center_of(self, i, j):
        """Continuous center coordinates of bin(s) ``(i, j)``."""
        cx = self.region.xlo + (np.asarray(i) + 0.5) * self.dx
        cy = self.region.ylo + (np.asarray(j) + 0.5) * self.dy
        return cx, cy

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid arrays (shape ``(nx, ny)``) of all bin centers."""
        xs = self.region.xlo + (np.arange(self.nx) + 0.5) * self.dx
        ys = self.region.ylo + (np.arange(self.ny) + 0.5) * self.dy
        return np.meshgrid(xs, ys, indexing="ij")

    def zeros(self) -> np.ndarray:
        """A float64 scalar map of zeros for this grid."""
        return np.zeros((self.nx, self.ny), dtype=np.float64)

    def value_at(self, scalar_map: np.ndarray, x, y):
        """Sample a scalar map at continuous point(s) ``(x, y)``.

        Nearest-bin (piecewise constant) lookup, which is how the paper
        reads 'the congestion value of the G-cell under which the cell's
        center position is located'.
        """
        if scalar_map.shape != (self.nx, self.ny):
            raise ValueError(
                f"map shape {scalar_map.shape} != grid shape {(self.nx, self.ny)}"
            )
        i, j = self.index_of(x, y)
        return np.take(scalar_map.reshape(-1), i * self.ny + j)

    def bilinear_at(self, scalar_map: np.ndarray, x, y):
        """Sample a scalar map with bilinear interpolation between bin centers.

        Used for evaluating smooth field maps (e.g. the congestion
        electric field) at arbitrary cell / virtual-cell positions.  A
        map with trailing channel axes, ``(nx, ny, k)``, samples every
        channel with the same weights; each channel's values equal a
        separate call on that channel.
        """
        if scalar_map.shape[:2] != (self.nx, self.ny):
            raise ValueError(
                f"map shape {scalar_map.shape} != grid shape {(self.nx, self.ny)}"
            )
        fx = (np.asarray(x, dtype=np.float64) - self.region.xlo) / self.dx - 0.5
        fy = (np.asarray(y, dtype=np.float64) - self.region.ylo) / self.dy - 0.5
        # np.clip passes NaN through and np.floor(nan).astype(int64) is
        # platform-defined; sanitize before clipping
        fx = _sanitize_fractional(fx, "grid.bilinear_at", "x")
        fy = _sanitize_fractional(fy, "grid.bilinear_at", "y")
        fx = np.clip(fx, 0.0, self.nx - 1.0)
        fy = np.clip(fy, 0.0, self.ny - 1.0)
        i0 = np.floor(fx).astype(np.int64)
        j0 = np.floor(fy).astype(np.int64)
        i1 = np.minimum(i0 + 1, self.nx - 1)
        j1 = np.minimum(j0 + 1, self.ny - 1)
        tx = fx - i0
        ty = fy - j0
        channels = (Ellipsis,) + (None,) * (scalar_map.ndim - 2)
        tx = tx[channels]
        ty = ty[channels]
        v = (
            scalar_map[i0, j0] * (1 - tx) * (1 - ty)
            + scalar_map[i1, j0] * tx * (1 - ty)
            + scalar_map[i0, j1] * (1 - tx) * ty
            + scalar_map[i1, j1] * tx * ty
        )
        return v
