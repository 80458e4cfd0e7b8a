"""Configuration of the routing-outcome evaluator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.route.config import RouterConfig


def _default_eval_router() -> RouterConfig:
    """Harder routing effort than the in-loop congestion estimator."""
    return RouterConfig(rrr_rounds=3, z_samples=24)


@dataclass
class EvalConfig:
    """Evaluator knobs.

    Attributes
    ----------
    grid_dim_factor:
        Evaluation grid is this multiple of the automatic placement
        grid dimension (finer grid = closer to detailed routing).
    router:
        Router settings for the evaluation pass.

    The ``#DRVs`` weights are module constants of
    :mod:`repro.evalrt.evaluator`, the pin-access model's thresholds
    those of :mod:`repro.evalrt.pinaccess`.
    """

    grid_dim_factor: int = 2
    router: RouterConfig = field(default_factory=_default_eval_router)

    def __post_init__(self) -> None:
        if self.grid_dim_factor < 1:
            raise ValueError("grid_dim_factor must be >= 1")
