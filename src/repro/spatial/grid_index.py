"""A fixed-grid spatial index over bounding boxes.

The storage substrate uses this to answer spatial-range retrievals over
non-primitive class extents ("direct data retrieval", paper §2.1.5 step 1)
without scanning every stored object.  A grid file is period-appropriate
for the early-90s setting and simple to reason about: the indexed universe
is divided into ``nx x ny`` cells, each holding the ids of every box that
intersects it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Hashable

from ..errors import SpatialError
from .box import Box

__all__ = ["GridIndex"]


@dataclass
class GridIndex:
    """Grid-file index mapping :class:`Box` extents to entry ids.

    Parameters
    ----------
    universe:
        The box covering all indexable extents.  Entries outside it are
        rejected — in Gaea the universe is the study region.
    nx, ny:
        Grid resolution (cells per axis).
    """

    universe: Box
    nx: int = 16
    ny: int = 16
    _cells: dict[tuple[int, int], set[Hashable]] = field(default_factory=dict)
    _entries: dict[Hashable, Box] = field(default_factory=dict)
    # Extents outside the universe are legal but unbinnable; they live in
    # an overflow set consulted by every query.
    _outside: set[Hashable] = field(default_factory=set)
    # Queries union mutable cell sets, so concurrent insert/remove would
    # otherwise raise "set changed size during iteration" mid-query.
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise SpatialError("grid resolution must be >= 1 per axis")
        if self.universe.area == 0.0:
            raise SpatialError("grid universe must have positive area")

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, entry_id: Hashable) -> bool:
        return entry_id in self._entries

    # -- cell math ----------------------------------------------------------

    def _cell_ranges(self, box: Box) -> tuple[range, range]:
        """The column and row index ranges of the cells intersecting
        *box* (clamped to the grid); their product is the cells."""
        cell_w = self.universe.width / self.nx
        cell_h = self.universe.height / self.ny
        ix_lo = int((box.xmin - self.universe.xmin) / cell_w)
        ix_hi = int((box.xmax - self.universe.xmin) / cell_w)
        iy_lo = int((box.ymin - self.universe.ymin) / cell_h)
        iy_hi = int((box.ymax - self.universe.ymin) / cell_h)
        ix_lo = max(0, min(self.nx - 1, ix_lo))
        ix_hi = max(0, min(self.nx - 1, ix_hi))
        iy_lo = max(0, min(self.ny - 1, iy_lo))
        iy_hi = max(0, min(self.ny - 1, iy_hi))
        return range(ix_lo, ix_hi + 1), range(iy_lo, iy_hi + 1)

    # -- mutation -----------------------------------------------------------

    def insert(self, entry_id: Hashable, box: Box) -> None:
        """Index *box* under *entry_id* (one extent per id).

        Extents outside the universe go to the overflow set: legal, just
        not accelerated.
        """
        with self._lock:
            if entry_id in self._entries:
                raise SpatialError(f"duplicate grid entry id {entry_id!r}")
            self._entries[entry_id] = box
            if not self.universe.overlaps(box):
                self._outside.add(entry_id)
                return
            cells = self._cells
            for cell in product(*self._cell_ranges(box)):
                bucket = cells.get(cell)
                if bucket is None:
                    cells[cell] = {entry_id}
                else:
                    bucket.add(entry_id)

    def remove(self, entry_id: Hashable) -> None:
        """Drop *entry_id* from the index."""
        with self._lock:
            box = self._entries.pop(entry_id, None)
            if box is None:
                raise SpatialError(f"unknown grid entry id {entry_id!r}")
            if entry_id in self._outside:
                self._outside.discard(entry_id)
                return
            cells = self._cells
            for cell in product(*self._cell_ranges(box)):
                bucket = cells.get(cell)
                if bucket is not None:
                    bucket.discard(entry_id)
                    if not bucket:
                        del cells[cell]

    # -- queries ------------------------------------------------------------

    def query(self, box: Box) -> set[Hashable]:
        """Ids of every indexed extent overlapping *box*."""
        with self._lock:
            candidates: set[Hashable] = set(self._outside)
            for cell in product(*self._cell_ranges(box)):
                candidates.update(self._cells.get(cell, ()))
            return {
                entry_id
                for entry_id in candidates
                if self._entries[entry_id].overlaps(box)
            }

    def estimate_matches(self, box: Box) -> int:
        """Cheap upper-bound estimate of :meth:`query`'s result size.

        Sums the candidate buckets of the touched cells without running
        the per-entry overlap test, so the cost model can price a spatial
        probe without executing it.  Boxes spanning several cells are
        counted once per cell, which keeps this an over- rather than
        under-estimate.
        """
        with self._lock:
            total = len(self._outside)
            for cell in product(*self._cell_ranges(box)):
                total += len(self._cells.get(cell, ()))
            return min(total, len(self._entries))

    def query_contained(self, box: Box) -> set[Hashable]:
        """Ids of extents entirely inside *box*."""
        with self._lock:
            return {
                entry_id
                for entry_id in self.query(box)
                if box.contains(self._entries[entry_id])
            }

    def extent_of(self, entry_id: Hashable) -> Box:
        """The indexed extent for *entry_id*."""
        try:
            return self._entries[entry_id]
        except KeyError:
            raise SpatialError(f"unknown grid entry id {entry_id!r}") from None
