"""Configuration of the global router."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RouterConfig:
    """Router knobs.

    Attributes
    ----------
    n_layers:
        Number of routing layers; alternating preferred directions
        (layer 0 horizontal).  The 2-D maps the placer consumes are
        layer sums, as in Sec. II-B of the paper.
    wire_pitch:
        Track pitch in the same length unit as the die.  Per-G-cell
        directional capacity is ``extent / pitch`` tracks per layer of
        that direction.
    via_weight:
        Contribution of one via to the demand of its G-cell, relative
        to one wire crossing.
    pin_via_demand:
        Via demand added at each pin's G-cell (layer-access cost).
    macro_blockage:
        Fraction of capacity blocked in G-cells covered by macros.
    z_samples:
        Max number of intermediate bend positions evaluated per
        Z-shape family (subsampled evenly when the span is larger).
    congestion_exponent / congestion_weight:
        Path cost per G-cell is ``1 + weight * utilization^exponent``;
        steers segments away from nearly-full cells.
    history_weight:
        Extra cost per accumulated overflow event (rip-up rounds).
    rrr_rounds:
        Number of rip-up-and-reroute rounds after initial routing.
    cost_refresh_interval:
        Number of segments routed between cost-map refreshes.
    maze_fallback:
        After the rip-up rounds, re-route still-overflowed segments
        with a Dijkstra maze router that can take arbitrary detours
        (extension beyond the paper's Z-shape estimator).
    maze_window:
        Bounding-box expansion margin for the maze search.
    """

    n_layers: int = 4
    wire_pitch: float = 0.17
    via_weight: float = 0.25
    pin_via_demand: float = 0.5
    macro_blockage: float = 0.5
    z_samples: int = 16
    congestion_exponent: float = 4.0
    congestion_weight: float = 3.0
    history_weight: float = 1.5
    rrr_rounds: int = 2
    cost_refresh_interval: int = 256
    maze_fallback: bool = False
    maze_window: int = 8

    def __post_init__(self) -> None:
        if self.n_layers < 2:
            raise ValueError("need at least 2 routing layers (one H, one V)")
        if self.wire_pitch <= 0:
            raise ValueError("wire_pitch must be positive")
        if self.rrr_rounds < 0:
            raise ValueError("rrr_rounds must be >= 0")
