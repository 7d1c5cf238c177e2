"""Spatial bounding boxes — the ``SPATIAL EXTENT`` carrier.

Non-primitive classes in Gaea carry a ``spatialextent = box`` attribute
(paper §2.1.1, the ``landcover`` class definition).  A box is an
axis-aligned rectangle in some *reference system* (``long/lat``, ``UTM``,
...) expressed in some *reference unit* (``meter``, ``degree``, ...).

Boxes are value-identified primitive objects: equality is structural and
they are hashable and immutable.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Any

from ..errors import SpatialError, ValueRepresentationError

__all__ = ["Box"]

_MAX = sys.float_info.max

_BOX_RE = re.compile(
    r"""^\(\s*(?P<xmin>-?\d+(?:\.\d+)?)\s*,\s*(?P<ymin>-?\d+(?:\.\d+)?)\s*,
    \s*(?P<xmax>-?\d+(?:\.\d+)?)\s*,\s*(?P<ymax>-?\d+(?:\.\d+)?)\s*
    (?:,\s*(?P<ref>[A-Za-z/_0-9-]+)\s*)?\)$""",
    re.VERBOSE,
)


@dataclass(frozen=True, order=False)
class Box:
    """Axis-aligned bounding box ``[xmin, xmax] x [ymin, ymax]`` with
    finite coordinates.

    ``ref_system`` names the coordinate reference system; boxes in
    different reference systems cannot be compared or combined (a real
    system would reproject; Gaea's assertions simply require agreement).
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    ref_system: str = "long/lat"

    def __post_init__(self) -> None:
        # One chained test: NaN fails every comparison, and an infinity
        # or an int beyond float range fails the ``_MAX`` bounds.
        if not (-_MAX <= self.xmin <= self.xmax <= _MAX
                and -_MAX <= self.ymin <= self.ymax <= _MAX):
            coords = (self.xmin, self.ymin, self.xmax, self.ymax)
            if not all(-_MAX <= c <= _MAX for c in coords):
                raise SpatialError(f"non-finite box coordinate in {coords}")
            raise SpatialError(
                f"degenerate box: ({self.xmin},{self.ymin},{self.xmax},{self.ymax})"
            )

    # -- representation -----------------------------------------------------

    @staticmethod
    def parse(text: str) -> "Box":
        """Parse the external representation ``(xmin, ymin, xmax, ymax[, ref])``."""
        match = _BOX_RE.match(text.strip())
        if match is None:
            raise ValueRepresentationError(f"bad box literal {text!r}")
        ref = match.group("ref") or "long/lat"
        return Box(
            xmin=float(match.group("xmin")),
            ymin=float(match.group("ymin")),
            xmax=float(match.group("xmax")),
            ymax=float(match.group("ymax")),
            ref_system=ref,
        )

    @staticmethod
    def validate(value: Any) -> "Box":
        """Validator used by the ``box`` primitive class."""
        if isinstance(value, Box):
            return value
        if isinstance(value, str):
            return Box.parse(value)
        if isinstance(value, (tuple, list)) and len(value) in (4, 5):
            return Box(*value)
        raise ValueRepresentationError(
            f"box: cannot build from {type(value).__name__}"
        )

    def __str__(self) -> str:
        return (
            f"({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax}, "
            f"{self.ref_system})"
        )

    # -- geometry -----------------------------------------------------------

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        """Area in squared reference units."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Center point ``(x, y)``."""
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def _check_ref(self, other: "Box") -> None:
        if self.ref_system != other.ref_system:
            raise SpatialError(
                f"reference system mismatch: {self.ref_system!r} vs "
                f"{other.ref_system!r}"
            )

    def contains_point(self, x: float, y: float) -> bool:
        """True when ``(x, y)`` lies inside or on the boundary."""
        return self.xmin <= x <= self.xmax and self.ymin <= y <= self.ymax

    def contains(self, other: "Box") -> bool:
        """True when *other* lies entirely inside this box."""
        self._check_ref(other)
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def overlaps(self, other: "Box") -> bool:
        """True when the two boxes share any point (boundaries count)."""
        self._check_ref(other)
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def intersection(self, other: "Box") -> "Box | None":
        """The shared box, or ``None`` when disjoint."""
        self._check_ref(other)
        if not self.overlaps(other):
            return None
        return Box(
            xmin=max(self.xmin, other.xmin),
            ymin=max(self.ymin, other.ymin),
            xmax=min(self.xmax, other.xmax),
            ymax=min(self.ymax, other.ymax),
            ref_system=self.ref_system,
        )

    def union(self, other: "Box") -> "Box":
        """Smallest box covering both operands."""
        self._check_ref(other)
        return Box(
            xmin=min(self.xmin, other.xmin),
            ymin=min(self.ymin, other.ymin),
            xmax=max(self.xmax, other.xmax),
            ymax=max(self.ymax, other.ymax),
            ref_system=self.ref_system,
        )

    def expanded(self, margin: float) -> "Box":
        """Box grown by *margin* on every side (negative shrinks; the
        result must stay non-degenerate)."""
        return Box(
            xmin=self.xmin - margin,
            ymin=self.ymin - margin,
            xmax=self.xmax + margin,
            ymax=self.ymax + margin,
            ref_system=self.ref_system,
        )
