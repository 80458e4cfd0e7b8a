"""Global routing substrate (stand-in for the GPU router of [18]).

Estimates routing congestion for placement: nets are decomposed into
two-pin segments (:mod:`repro.route.decompose`), each segment is routed
with congestion-aware L/Z-shape pattern routing over a layered G-cell
grid (:mod:`repro.route.patterns`), a few rip-up-and-reroute rounds
clean up hotspots (:mod:`repro.route.router`), and the resulting
demand/capacity maps yield the congestion map of Eq. (3)
(:mod:`repro.route.congestion`).  :mod:`repro.route.rudy` provides the
classic RUDY estimator as a cheap baseline.
"""

from repro.route.config import RouterConfig
from repro.route.grid import RoutingGrid
from repro.route.decompose import segment_endpoints
from repro.route.patterns import PatternRouter, RoutedPath, RoutedPathBatch
from repro.route.router import DemandSnapshot, GlobalRouter, RoutingResult
from repro.route.congestion import CongestionData, congestion_from_demand
from repro.route.maze import maze_route
from repro.route.rudy import pin_rudy_map, rudy_map
from repro.route.stt import single_trunk_segments, stt_length

__all__ = [
    "RouterConfig",
    "RoutingGrid",
    "segment_endpoints",
    "PatternRouter",
    "RoutedPath",
    "RoutedPathBatch",
    "DemandSnapshot",
    "GlobalRouter",
    "RoutingResult",
    "CongestionData",
    "congestion_from_demand",
    "maze_route",
    "rudy_map",
    "pin_rudy_map",
    "single_trunk_segments",
    "stt_length",
]
