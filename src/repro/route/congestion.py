"""Congestion map construction (Eq. 3) and derived statistics.

Two distinct views of the same demand/capacity data feed different
parts of the paper's framework:

* the **congestion map** ``C = max(Dmd/Cap - 1, 0)`` (Eq. 3) drives
  momentum-based cell inflation and the PG-rail density adjustment;
* the **utilization** ``rho = Dmd/Cap`` is the charge density of the
  congestion Poisson system (Sec. II-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.route.grid import RoutingGrid


@dataclass
class CongestionData:
    """Congestion views plus the statistics the algorithms consume."""

    congestion: np.ndarray
    utilization: np.ndarray

    @property
    def mean_congestion(self) -> float:
        """``C-bar``: average congestion over all G-cells (Eq. 12/15)."""
        return float(self.congestion.mean())

    @property
    def max_congestion(self) -> float:
        """Peak of the congestion map."""
        return float(self.congestion.max())

    def congested_mask(self, threshold: float = 0.0) -> np.ndarray:
        """G-cells with congestion strictly above ``threshold``."""
        return self.congestion > threshold


def congestion_from_demand(rgrid: RoutingGrid) -> CongestionData:
    """Build :class:`CongestionData` from a routed grid."""
    utilization = rgrid.utilization()
    congestion = np.maximum(utilization - 1.0, 0.0)
    return CongestionData(congestion=congestion, utilization=utilization)
