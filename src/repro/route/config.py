"""Configuration of the global router."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RouterConfig:
    """Router knobs.

    The layer stack, the via weight, the macro blockage and the path
    cost weights are module constants of :mod:`repro.route.grid`; the
    maze search window is :data:`repro.route.router.MAZE_WINDOW`.

    Attributes
    ----------
    wire_pitch:
        Track pitch in the same length unit as the die.  Per-G-cell
        directional capacity is ``extent / pitch`` tracks per layer of
        that direction.
    pin_via_demand:
        Via demand added at each pin's G-cell (layer-access cost).
    z_samples:
        Max number of intermediate bend positions evaluated per
        Z-shape family (subsampled evenly when the span is larger).
    rrr_rounds:
        Number of rip-up-and-reroute rounds after initial routing.
    cost_refresh_interval:
        Number of segments routed between cost-map refreshes.
    maze_fallback:
        After the rip-up rounds, re-route still-overflowed segments
        with a Dijkstra maze router that can take arbitrary detours
        (extension beyond the paper's Z-shape estimator).
    """

    wire_pitch: float = 0.17
    pin_via_demand: float = 0.5
    z_samples: int = 16
    rrr_rounds: int = 2
    cost_refresh_interval: int = 256
    maze_fallback: bool = False

    def __post_init__(self) -> None:
        if self.wire_pitch <= 0:
            raise ValueError("wire_pitch must be positive")
        if self.rrr_rounds < 0:
            raise ValueError("rrr_rounds must be >= 0")
