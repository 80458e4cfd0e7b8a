"""Spectral solver for Poisson's equation with Neumann boundaries.

Solves Eq. (1) of the paper on a uniform grid::

    laplacian(psi) = -rho   in R,
    n . grad(psi)  = 0      on dR,
    integral(rho) = integral(psi) = 0

following ePlace [15]: expand ``rho`` in the cosine basis (DCT-II over
bin centers, which satisfies the Neumann condition), divide by the
Laplacian eigenvalues ``w_u^2 + w_v^2`` and transform back.  The
electric field ``E = -grad(psi)`` is obtained by spectral
differentiation: the x-derivative of the cosine basis is a sine series,
evaluated by a DST-III based "IDXST" transform.

All transforms use unnormalized scipy conventions; correctness of the
bookkeeping is pinned by tests against a brute-force basis evaluation
and against finite differences.

:class:`SpectralWorkspace` (one cached instance per grid geometry)
memoizes the eigenvalue denominators and reuses preallocated scratch
buffers for every elementwise step; the transforms' outputs and the
cosine coefficients of ``psi`` are the only per-solve allocations, and
they *are* the returned arrays.  A solve returns those coefficients
and the field; the potential is a separate inverse transform of the
coefficients (:meth:`SpectralWorkspace.potential`), so a caller that
needs only the field (the placer's density force) skips two of the
eight 1-D transform passes.
Every fusion keeps the floating-point operation sequence of the
straight-line solve (``out=`` variants of the same ufuncs, slice
copies instead of ``np.roll``, in-place division into scipy-owned
output arrays), so results are bit-identical to it; ``tests/oracle.py``
keeps that solve and the tests compare against it at ``atol=0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.grid import Grid2D

# Call straight into scipy's pocketfft backend when available, skipping
# the public API's uarray dispatch layer (~8us per call — a measurable
# slice of a small-grid solve that issues seven transforms).  The
# backend functions are the exact implementations the public wrappers
# dispatch to, so results are bitwise unchanged.
try:  # pragma: no cover — depends on scipy internals
    from scipy.fft._pocketfft.realtransforms import dctn as _dctn
    from scipy.fft._pocketfft.realtransforms import dst as _dst
    from scipy.fft._pocketfft.realtransforms import idct as _idct
    from scipy.fft._pocketfft.realtransforms import idctn as _idctn
except ImportError:  # pragma: no cover — scipy moved its internals
    from scipy.fft import dctn as _dctn
    from scipy.fft import dst as _dst
    from scipy.fft import idct as _idct
    from scipy.fft import idctn as _idctn


class SpectralWorkspace:
    """Reusable spectral scratch space bound to one grid geometry.

    Holds everything a Poisson solve needs that does not depend on the
    charge map: the Laplacian eigenvalue denominators ``w_u^2 + w_v^2``
    (the expensive part of solver construction), the frequency row and
    column vectors, and five preallocated scratch arrays for the
    elementwise stages between transforms.  One workspace per grid
    geometry is cached process-wide (:meth:`for_grid`), so the density
    engine and the per-round congestion field share buffers instead of
    each reallocating and recomputing them.

    Thread safety: a workspace's scratch buffers make :meth:`solve`
    non-reentrant.  The flow is single-threaded per process (the
    parallel experiment runner isolates designs in worker *processes*),
    so this costs nothing; callers that do want concurrent solves on
    one grid must construct private instances instead of
    :meth:`for_grid`.

    Parameters
    ----------
    nx, ny:
        Grid dimensions (bins).
    dx, dy:
        Bin pitches.  Together with ``nx``/``ny`` they form the cache
        key: two grids with equal geometry share one workspace.
    """

    def __init__(self, nx: int, ny: int, dx: float, dy: float) -> None:
        self.key = (nx, ny, float(dx), float(dy))
        self.shape = (nx, ny)
        wu = np.pi * np.arange(nx) / (nx * dx)
        wv = np.pi * np.arange(ny) / (ny * dy)
        self._wu = wu[:, None]
        self._wv = wv[None, :]
        denom = self._wu**2 + self._wv**2
        denom[0, 0] = 1.0  # the DC mode is projected out, value unused
        self._inv_denom = 1.0 / denom
        # scratch for the elementwise stages; reused across solves
        self._bal = np.empty((nx, ny))
        self._cx = np.empty((nx, ny))
        self._cy = np.empty((nx, ny))
        self._shift_x = np.empty((nx, ny))
        self._shift_y = np.empty((nx, ny))
        self.n_solves = 0

    # ------------------------------------------------------------- cache
    @classmethod
    def for_grid(cls, grid: Grid2D) -> "SpectralWorkspace":
        """Return the process-wide cached workspace for ``grid``.

        The cache is keyed on ``(nx, ny, dx, dy)``; distinct grid
        objects with equal geometry (e.g. the placement grid rebuilt
        each round) resolve to the same workspace, so denominators and
        scratch are computed once per process and shape.
        """
        key = (grid.nx, grid.ny, float(grid.dx), float(grid.dy))
        ws = _WORKSPACES.get(key)
        if ws is None:
            ws = _WORKSPACES[key] = cls(grid.nx, grid.ny, grid.dx, grid.dy)
        return ws

    # ------------------------------------------------------------ stages
    def _forward(self, rho: np.ndarray, mean: float) -> np.ndarray:
        """Forward 2-D DCT of the balanced charge, as one dctn call."""
        np.subtract(rho, mean, out=self._bal)
        return _dctn(self._bal, type=2, overwrite_x=True)

    def _field_x(self) -> np.ndarray:
        """x-field: IDCT along axis 1, then the IDXST along axis 0."""
        nx = self.shape[0]
        bx = _idct(self._cx, type=2, axis=1, overwrite_x=True)
        # IDXST shift: slice copy instead of np.roll, former u=0 zeroed
        self._shift_x[:-1, :] = bx[1:, :]
        self._shift_x[-1, :] = 0.0
        ex = _dst(self._shift_x, type=3, axis=0)
        np.divide(ex, 2.0 * nx, out=ex)
        return ex

    def _field_y(self, coef: np.ndarray) -> np.ndarray:
        """y-field: IDCT along axis 0, then the IDXST along axis 1."""
        ny = self.shape[1]
        np.multiply(coef, self._wv, out=self._cy)
        by = _idct(self._cy, type=2, axis=0, overwrite_x=True)
        self._shift_y[:, :-1] = by[:, 1:]
        self._shift_y[:, -1] = 0.0
        ey = _dst(self._shift_y, type=3, axis=1)
        np.divide(ey, 2.0 * ny, out=ey)
        return ey

    # ------------------------------------------------------------- solve
    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve Eq. (1) for ``rho``; returns fresh ``(coef, ex, ey)``.

        ``coef`` holds the cosine coefficients of ``psi`` (pass it to
        :meth:`potential` for ``psi`` itself) and ``ex``/``ey`` the
        field ``E = -grad(psi)``.  Every elementwise intermediate lands
        in workspace scratch, and the transforms whose outputs feed
        straight back into scratch run in-place (``overwrite_x=True``;
        scipy then returns the input buffer itself).  Only the returned
        arrays allocate; they are owned by the caller — deliberately
        **not** aliased to scratch, so a later solve on the same
        workspace never mutates them.
        """
        if rho.shape != self.shape:
            raise ValueError(f"rho shape {rho.shape} != grid {self.shape}")
        self.n_solves += 1
        a = self._forward(rho, rho.mean())
        coef = np.multiply(a, self._inv_denom)
        coef[0, 0] = 0.0

        # E = -grad(psi): differentiating cos(w_u x)cos(w_v y) gives
        # -w_u sin cos (x) and -w_v cos sin (y); the minus signs cancel.
        np.multiply(coef, self._wu, out=self._cx)
        ex = self._field_x()
        ey = self._field_y(coef)
        return coef, ex, ey

    @staticmethod
    def potential(coef: np.ndarray) -> np.ndarray:
        """The potential ``psi`` (zero mean) from :meth:`solve`'s ``coef``."""
        return _idctn(coef, type=2)


#: Process-wide workspace cache, keyed on grid geometry.
_WORKSPACES: dict = {}


def clear_spectral_cache() -> None:
    """Drop every cached :class:`SpectralWorkspace` (tests, long runs)."""
    _WORKSPACES.clear()


def spectral_cache_size() -> int:
    """Number of grid geometries currently cached."""
    return len(_WORKSPACES)


@dataclass
class PoissonSolver:
    """Spectral Poisson solver bound to one grid.

    Delegates to the process-wide cached :class:`SpectralWorkspace`
    for the grid's geometry.
    """

    grid: Grid2D
    _ws: SpectralWorkspace = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ws = SpectralWorkspace.for_grid(self.grid)

    def solve(self, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve for potential and field.

        Parameters
        ----------
        rho:
            Charge density map of the grid's shape.  Its mean is
            removed internally (compatibility condition of Eq. 1).

        Returns
        -------
        (psi, ex, ey):
            Potential and the field components ``E = -grad(psi)``,
            all of the grid's shape.  ``psi`` has zero mean.
        """
        coef, ex, ey = self._ws.solve(rho)
        return self._ws.potential(coef), ex, ey


def solve_poisson_fd(grid: Grid2D, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference solve: spectral potential + finite-difference field.

    Used in tests to cross-check the spectral differentiation path.
    """
    psi, _, _ = PoissonSolver(grid).solve(rho)
    gy, gx = None, None
    gx, gy = np.gradient(psi, grid.dx, grid.dy, edge_order=2)
    return psi, -gx, -gy
