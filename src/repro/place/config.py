"""Configuration for the analytical global placer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.guards import GuardConfig


@dataclass
class GPConfig:
    """Knobs of the electrostatic global placement engine.

    Attributes
    ----------
    grid_nx, grid_ny:
        Bin grid dimensions; 0 means choose automatically from the
        design size (a power of two near ``sqrt(n_cells)``, clamped to
        [16, 256]).  The paper maps G-cells and bins one-to-one
        (Sec. II-B), so the routing grid reuses these dimensions.
    target_density:
        Maximum allowed bin occupancy ``D_b``.
    gamma0:
        WA smoothness base factor (scaled by bin size).
    max_iters:
        Iteration cap for one placement run.
    stop_overflow:
        Convergence threshold on the density overflow ratio.
    density_force_cap:
        Upper clamp on the density-to-wirelength force ratio used by
        the per-iteration force balancing.
    use_fillers:
        Insert filler cells to occupy whitespace (standard for
        electrostatic placers; required for proper spreading).
    initial_move_fraction:
        First-step displacement target, as a fraction of a bin.
    seed:
        RNG seed for initial placement jitter and filler scatter.
    guard:
        Divergence/NaN sentinel policy shared by the solver and the
        placement loop (see :class:`repro.utils.guards.GuardConfig`).
    """

    grid_nx: int = 0
    grid_ny: int = 0
    target_density: float = 0.9
    gamma0: float = 0.5
    max_iters: int = 1000
    stop_overflow: float = 0.07
    density_force_cap: float = 100.0
    use_fillers: bool = True
    initial_move_fraction: float = 0.1
    seed: int = 0
    verbose: bool = False
    guard: GuardConfig = field(default_factory=GuardConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.target_density <= 1.0 + 1e-9:
            raise ValueError("target_density must be in (0, 1]")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def auto_grid_dim(n_cells: int) -> int:
    """Power-of-two grid dimension adapted to the design size."""
    import math

    approx = int(math.sqrt(max(n_cells, 1)))
    dim = 16
    while dim < approx and dim < 256:
        dim *= 2
    return dim
