"""Planar geometry primitives: rectangles and uniform grids."""

from repro.geometry.rect import Rect
from repro.geometry.grid import Grid2D

__all__ = ["Rect", "Grid2D"]
