"""Pin-accessibility violation model.

Two failure mechanisms, both taken from the paper's motivation
(Sec. III-C): cells whose pins sit *under M2 PG rails* are hard to
reach when local routing is congested (M1 resources are constrained),
and G-cells can simply hold more pins than their tracks can access.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist

#: Vertical margin (fraction of row height) around a rail within which
#: a pin counts as covered by the rail.
RAIL_MARGIN_FRACTION = 0.2
#: Utilization below which a covered pin is assumed routable; failure
#: probability ramps linearly from this floor to 1.0 at
#: :data:`ACCESS_UTIL_CEIL`.
ACCESS_UTIL_FLOOR = 0.5
ACCESS_UTIL_CEIL = 1.2
#: Accessible pins per unit area of a G-cell (track-limited).
PIN_BUDGET_PER_AREA = 4.0


@dataclass
class PinAccessReport:
    """Breakdown of expected pin-access failures."""

    covered_pin_drvs: float
    crowding_drvs: float
    n_covered_pins: int

    @property
    def total(self) -> float:
        """All pin-access DRVs (covered-pin + crowding)."""
        return self.covered_pin_drvs + self.crowding_drvs


def _covered_mask_1d(coords: np.ndarray, bands: list) -> np.ndarray:
    """Whether each coordinate falls into any [lo, hi] band."""
    if not bands:
        return np.zeros(len(coords), dtype=bool)
    edges = np.array(sorted(bands)).reshape(-1)  # (2k,) lo/hi interleaved
    idx = np.searchsorted(edges, coords)
    return (idx % 2) == 1


def pins_under_rails(
    netlist: Netlist, margin_fraction: float = RAIL_MARGIN_FRACTION
) -> np.ndarray:
    """Boolean mask over pins: within a PG-rail band (plus margin)."""
    px, py = netlist.pin_positions()
    margin = margin_fraction * netlist.row_height
    h_bands = []
    v_bands = []
    for rail in netlist.pg_rails:
        r = rail.rect
        if rail.horizontal:
            h_bands.append((r.ylo - margin, r.yhi + margin))
        else:
            v_bands.append((r.xlo - margin, r.xhi + margin))
    covered = _covered_mask_1d(py, _merge_bands(h_bands))
    if v_bands:
        covered |= _covered_mask_1d(px, _merge_bands(v_bands))
    return covered


def _merge_bands(bands: list) -> list:
    """Merge overlapping [lo, hi] bands so parity search works."""
    if not bands:
        return []
    bands = sorted(bands)
    merged = [list(bands[0])]
    for lo, hi in bands[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [tuple(b) for b in merged]


def pin_access_violations(
    netlist: Netlist,
    grid: Grid2D,
    utilization: np.ndarray,
) -> PinAccessReport:
    """Expected pin-access DRVs at the current placement.

    Parameters
    ----------
    utilization:
        Routed utilization map (``Dmd/Cap``) on ``grid``.
    """
    px, py = netlist.pin_positions()
    if len(px) == 0:
        return PinAccessReport(0.0, 0.0, 0)
    i, j = grid.index_of(px, py)
    util_at_pin = utilization[i, j]

    covered = pins_under_rails(netlist)
    ramp = (util_at_pin - ACCESS_UTIL_FLOOR) / (
        ACCESS_UTIL_CEIL - ACCESS_UTIL_FLOOR
    )
    fail_prob = np.clip(ramp, 0.0, 1.0)
    covered_drvs = float(fail_prob[covered].sum())

    # pin crowding: pins beyond the accessible budget of each G-cell
    flat = np.bincount(i * grid.ny + j, minlength=grid.nx * grid.ny).astype(
        np.float64
    )
    budget = PIN_BUDGET_PER_AREA * grid.bin_area
    crowding = float(np.maximum(flat - budget, 0.0).sum())

    return PinAccessReport(
        covered_pin_drvs=covered_drvs,
        crowding_drvs=crowding,
        n_covered_pins=int(covered.sum()),
    )
