"""Momentum-based cell inflation (Sec. III-B, Eq. 11-12).

Per-cell inflation rate with momentum over the history of congestion
observations::

    r_i^t      = clamp(r_i^{t-1} + dr_i^t, r_min, r_max)
    dr_i^t     = alpha * dr_i^{t-1} + (1 - alpha) * s_i^t
    s_i^t      = delta_i^t * C_i^t

``C_i^t`` is the congestion of the G-cell under cell i's center at the
t-th inflation round.  The *deflation* decision ``delta_i^t`` (Eq. 12)
fires when the cell just moved from an above-average to a below-average
congestion region — then a negative correction proportional to the
normalized congestion drop lets the cell shrink back (down to
``r_min < 1``), freeing the resources monotone schemes waste.

Inflated sizes are used only in the *density* system: the rate scales
the footprint area, so width and height are each scaled by
``sqrt(rate)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.grid import Grid2D
from repro.netlist.netlist import Netlist
from repro.utils.contracts import CONTRACTS


@dataclass
class InflationConfig:
    """Paper defaults: r in [0.9, 2.0], momentum alpha = 0.4."""

    r_min: float = 0.9
    r_max: float = 2.0
    alpha: float = 0.4

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if self.r_min > self.r_max:
            raise ValueError("r_min must not exceed r_max")
        if self.r_min <= 0.0:
            raise ValueError("r_min must be positive")


class MomentumInflation:
    """Stateful inflation-rate tracker over routability rounds."""

    def __init__(self, n_cells: int, config: InflationConfig | None = None) -> None:
        self.config = config or InflationConfig()
        self.rates = np.ones(n_cells, dtype=np.float64)  # r^0 = 1
        self.delta_rates = np.zeros(n_cells, dtype=np.float64)
        self._prev_cong: np.ndarray | None = None
        self._prev_mean: float = 0.0
        self.round = 0
        # diagnostics of the most recent update: cells whose Eq. 12
        # correction fired negative this round.  Part of the snapshot
        # state, so a round rollback restores it with the rates.
        self.last_n_deflated = 0

    # ------------------------------------------------------------------
    def update(self, congestion_at_cells: np.ndarray) -> np.ndarray:
        """One inflation round (Eq. 11-12); returns the new rates.

        Parameters
        ----------
        congestion_at_cells:
            ``C_i^t`` per cell (Eq. 3 values sampled at cell centers).
        """
        cfg = self.config
        c = np.array(congestion_at_cells, dtype=np.float64, copy=True)
        if len(c) != len(self.rates):
            raise ValueError("congestion vector length mismatch")
        # a poisoned congestion map (NaN from a degenerate capacity,
        # Inf from an overflow blow-up) must not corrupt the rate
        # state: NaN observations read as "no information" (0), Inf
        # and huge finite values saturate (unclamped, products inside
        # the Eq. 12 correction overflow back to Inf/NaN), and the
        # momentum terms can never go non-finite
        np.nan_to_num(c, copy=False, nan=0.0, posinf=1e12, neginf=-1e12)
        np.clip(c, -1e12, 1e12, out=c)
        self.round += 1

        self.last_n_deflated = 0
        if self.round == 1:
            # paper: dr^1 = C^1
            self.delta_rates = c.copy()
        else:
            s = self._correction(c)
            self.delta_rates = cfg.alpha * self.delta_rates + (1.0 - cfg.alpha) * s
            # the deflation strength divides by the congestion means;
            # near-zero means can still push the correction to Inf (and
            # Inf * 0 to NaN) — saturate so the carried momentum stays
            # usable for every later round
            np.nan_to_num(
                self.delta_rates, copy=False, nan=0.0, posinf=1e12, neginf=-1e12
            )

        self.rates = np.clip(self.rates + self.delta_rates, cfg.r_min, cfg.r_max)
        self._prev_cong = c.copy()
        self._prev_mean = float(c.mean()) if len(c) else 0.0
        if CONTRACTS.enabled:
            # Eq. 11 clamp: rates in [r_min, r_max] and finite for any
            # (even NaN/Inf-poisoned) congestion input
            CONTRACTS.check_range(
                "inflation.update", "rates", self.rates, cfg.r_min, cfg.r_max
            )
            CONTRACTS.check_array(
                "inflation.update", "delta_rates", self.delta_rates, finite=True
            )
        return self.rates

    def _correction(self, c: np.ndarray) -> np.ndarray:
        """``s_i^t = delta_i^t * C_i^t`` with Eq. (12) deflation."""
        mean_now = float(c.mean()) if len(c) else 0.0
        prev = self._prev_cong
        assert prev is not None
        delta = np.ones_like(c)
        if mean_now > 0.0 and self._prev_mean > 0.0:
            deflate = (c < mean_now) & (prev > self._prev_mean)
            self.last_n_deflated = int(deflate.sum())
            if deflate.any():
                strength = np.abs(
                    (prev * mean_now - c * self._prev_mean)
                    / (self._prev_mean * mean_now)
                )
                delta = np.where(deflate, -strength, delta)
        # s_i^t = delta_i^t * C_i^t.  For deflating cells the paper
        # multiplies the (negative) strength by the *current* congestion;
        # a cell that escaped to a zero-congestion G-cell therefore stops
        # growing (s = 0) rather than shrinking — it keeps its inflated
        # footprint so it is not pulled straight back into the hotspot.
        return delta * c

    # ------------------------------------------------------------------
    def size_scale(self) -> np.ndarray:
        """Per-cell width/height multiplier: area scales by the rate."""
        return np.sqrt(self.rates)

    def reset(self) -> None:
        """Forget all momentum and return every rate to 1.0."""
        self.rates.fill(1.0)
        self.delta_rates.fill(0.0)
        self._prev_cong = None
        self._prev_mean = 0.0
        self.round = 0
        self.last_n_deflated = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the rate/momentum state (arrays copied).

        The routability flow keeps one with its best round and restores
        it when a later round is rolled back.
        """
        return {
            "rates": self.rates.copy(),
            "delta_rates": self.delta_rates.copy(),
            "prev_cong": None if self._prev_cong is None else self._prev_cong.copy(),
            "prev_mean": self._prev_mean,
            "round": self.round,
            "last_n_deflated": self.last_n_deflated,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot bit-exactly."""
        self.rates = np.array(state["rates"], dtype=np.float64, copy=True)
        self.delta_rates = np.array(
            state["delta_rates"], dtype=np.float64, copy=True
        )
        prev = state["prev_cong"]
        self._prev_cong = None if prev is None else np.array(prev, dtype=np.float64)
        self._prev_mean = float(state["prev_mean"])
        self.round = int(state["round"])
        self.last_n_deflated = int(state["last_n_deflated"])


def congestion_at_cell_centers(
    netlist: Netlist, grid: Grid2D, congestion: np.ndarray
) -> np.ndarray:
    """``C_i``: congestion of the G-cell under each cell center."""
    return grid.value_at(congestion, netlist.x, netlist.y)
