"""First-order optimizers used by the placement engines."""

from repro.optim.nesterov import NesterovOptimizer

__all__ = ["NesterovOptimizer"]
