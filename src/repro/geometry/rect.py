"""Axis-aligned rectangles.

:class:`Rect` is the basic geometric currency of the library: die area,
cells, macros, bins, G-cells and PG-rail shapes are all rectangles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle with ``xlo <= xhi`` and ``ylo <= yhi``."""

    xlo: float
    ylo: float
    xhi: float
    yhi: float

    def __post_init__(self) -> None:
        if self.xhi < self.xlo or self.yhi < self.ylo:
            raise ValueError(f"degenerate Rect bounds: {self}")

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.xhi - self.xlo

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.yhi - self.ylo

    @property
    def area(self) -> float:
        """``width * height``."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Midpoint ``(cx, cy)``."""
        return (0.5 * (self.xlo + self.xhi), 0.5 * (self.ylo + self.yhi))

    def contains(self, x: float, y: float) -> bool:
        """Whether point ``(x, y)`` lies in the closed rectangle."""
        return self.xlo <= x <= self.xhi and self.ylo <= y <= self.yhi

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles overlap with positive area."""
        return (
            self.xlo < other.xhi
            and other.xlo < self.xhi
            and self.ylo < other.yhi
            and other.ylo < self.yhi
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Overlap rectangle, or ``None`` when the overlap is empty."""
        xlo = max(self.xlo, other.xlo)
        ylo = max(self.ylo, other.ylo)
        xhi = min(self.xhi, other.xhi)
        yhi = min(self.yhi, other.yhi)
        if xhi <= xlo or yhi <= ylo:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection with ``other`` (0 when disjoint)."""
        w = min(self.xhi, other.xhi) - max(self.xlo, other.xlo)
        h = min(self.yhi, other.yhi) - max(self.ylo, other.ylo)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def expanded(self, fraction: float) -> "Rect":
        """Rectangle grown by ``fraction`` of its size on every side.

        Used by PG-rail selection, which expands each macro bounding
        box by 10% (``fraction=0.1``) before cutting rails.
        """
        dx = self.width * fraction
        dy = self.height * fraction
        return Rect(self.xlo - dx, self.ylo - dy, self.xhi + dx, self.yhi + dy)

    def translated(self, dx: float, dy: float) -> "Rect":
        """A copy shifted by ``(dx, dy)``."""
        return Rect(self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy)

    @staticmethod
    def from_center(cx: float, cy: float, width: float, height: float) -> "Rect":
        """Build a rect from its center point and dimensions."""
        return Rect(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)
