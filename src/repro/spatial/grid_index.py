"""A fixed-grid spatial index over bounding boxes.

The storage substrate uses this to answer spatial-range retrievals over
non-primitive class extents ("direct data retrieval", paper §2.1.5 step 1)
without scanning every stored object.  A grid file is period-appropriate
for the early-90s setting and simple to reason about: the indexed universe
is divided into ``nx x ny`` cells, each holding the entries of every box
that intersects it.

Storage is packed so that a probe is a few NumPy operations rather than
a Python loop per candidate:

* every binned entry gets a dense int *slot*, assigned in insert order;
  ``_slots`` maps an id to its slot and ``_ids`` a slot back to its id;
* ``_extents`` is one packed ``(capacity, 4)`` float64 array of
  ``(xmin, ymin, xmax, ymax)`` rows indexed by slot, grown by doubling;
* each cell lists the slots of the extents touching it, ascending (slots
  only grow), with an ``np.intp`` copy cached per cell that an insert
  into the cell drops;
* an extent touching every cell goes in the one *everywhere* list
  instead of into each cell (every Figure-2 scene covers its universe);
* an extent outside the universe is legal but unbinnable: it keeps its
  :class:`Box` in the *overflow* map, which every probe tests box by box.

A probe checks the reference system once against the universe, gathers
the slot arrays of the cells it touches plus the everywhere list, and
keeps the slots whose row passes one vectorized overlap mask, in which
boundaries count exactly as in the box algebra.  The surviving slots
map back to ids; the id set drops the repeats of an extent found in
several touched cells.  Only an aborted insert removes an entry: its
row becomes NaN, which no comparison passes, and its slot leaves its
cells; slots are never reused.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Hashable

import numpy as np

from ..errors import SpatialError
from .box import Box

__all__ = ["GridIndex"]

# The `_cells` key of the extents that touch every cell.
_EVERYWHERE = None

_MIN_CAPACITY = 16

CellKey = tuple[int, int] | None


def _axis_cells(lo: float, hi: float, origin: float, pitch: float,
                last: int) -> range:
    """The cell indexes ``[lo, hi]`` covers along one axis, clamped to
    ``[0, last]`` before the int conversion, so that any finite extent
    maps into the grid."""
    a = (lo - origin) / pitch
    b = (hi - origin) / pitch
    return range(0 if a < 0 else last if a > last else int(a),
                 (0 if b < 0 else last if b > last else int(b)) + 1)


@dataclass
class GridIndex:
    """Grid-file index mapping :class:`Box` extents to entry ids.

    Parameters
    ----------
    universe:
        The box the grid divides — in Gaea the study region.  Extents
        outside it are legal but not accelerated.
    nx, ny:
        Grid resolution (cells per axis).
    """

    universe: Box
    nx: int = 16
    ny: int = 16
    _slots: dict[Hashable, int] = field(default_factory=dict)
    # Slot -> id; ``None`` once the slot's entry is removed.
    _ids: list[Hashable | None] = field(default_factory=list)
    _extents: np.ndarray = field(default_factory=lambda: np.empty((0, 4)),
                                 repr=False, compare=False)
    _cells: dict[CellKey, list[int]] = field(default_factory=dict)
    # Per-cell slot arrays, built on the first probe after a change.
    _arrays: dict[CellKey, np.ndarray] = field(default_factory=dict,
                                               repr=False, compare=False)
    _outside: dict[Hashable, Box] = field(default_factory=dict)
    # A probe reads the cell lists and the extents array that an insert
    # appends to and regrows; one lock keeps readers off half-done writes.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise SpatialError("grid resolution must be >= 1 per axis")
        if self.universe.area == 0.0:
            raise SpatialError("grid universe must have positive area")

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        state["_arrays"] = {}
        state["_extents"] = self._extents[:len(self._ids)]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._slots) + len(self._outside)

    def __contains__(self, entry_id: Hashable) -> bool:
        return entry_id in self._slots or entry_id in self._outside

    # -- cell math ----------------------------------------------------------

    def _cell_ranges(self, xmin: float, ymin: float, xmax: float,
                     ymax: float) -> tuple[range, range]:
        """The column and row index ranges of the cells intersecting
        ``[xmin, xmax] x [ymin, ymax]``; their product is the cells."""
        universe = self.universe
        return (_axis_cells(xmin, xmax, universe.xmin,
                            universe.width / self.nx, self.nx - 1),
                _axis_cells(ymin, ymax, universe.ymin,
                            universe.height / self.ny, self.ny - 1))

    def _cell_keys(self, xmin: float, ymin: float, xmax: float,
                   ymax: float) -> list[CellKey]:
        """Where an extent is binned: its cells, or the everywhere list."""
        xs, ys = self._cell_ranges(xmin, ymin, xmax, ymax)
        if len(xs) == 1 and len(ys) == 1:
            return [(xs[0], ys[0])]
        if len(xs) == self.nx and len(ys) == self.ny:
            return [_EVERYWHERE]
        return list(product(xs, ys))

    def _slot_array(self, key: CellKey) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.array(self._cells[key],
                                                 dtype=np.intp)
        return array

    # -- mutation -----------------------------------------------------------

    def insert(self, entry_id: Hashable, box: Box) -> None:
        """Index *box* under *entry_id* (one extent per id).

        Extents outside the universe go to the overflow map: legal, just
        not accelerated.  Nothing is registered unless binning succeeds.
        """
        with self._lock:
            if entry_id in self:
                raise SpatialError(f"duplicate grid entry id {entry_id!r}")
            if not self.universe.overlaps(box):
                self._outside[entry_id] = box
                return
            row = (float(box.xmin), float(box.ymin),
                   float(box.xmax), float(box.ymax))
            keys = self._cell_keys(*row)
            slot = len(self._ids)
            if slot == len(self._extents):
                grown = np.empty((max(_MIN_CAPACITY, 2 * slot), 4))
                grown[:slot] = self._extents
                self._extents = grown
            self._extents[slot] = row
            self._ids.append(entry_id)
            self._slots[entry_id] = slot
            cells = self._cells
            for key in keys:
                bucket = cells.get(key)
                if bucket is None:
                    cells[key] = [slot]
                else:
                    bucket.append(slot)
                self._arrays.pop(key, None)

    def remove(self, entry_id: Hashable) -> None:
        """Drop *entry_id* from the index."""
        with self._lock:
            if self._outside.pop(entry_id, None) is not None:
                return
            slot = self._slots.pop(entry_id, None)
            if slot is None:
                raise SpatialError(f"unknown grid entry id {entry_id!r}")
            keys = self._cell_keys(*self._extents[slot].tolist())
            self._extents[slot] = np.nan
            self._ids[slot] = None
            cells = self._cells
            for key in keys:
                bucket = cells[key]
                bucket.remove(slot)
                if not bucket:
                    del cells[key]
                self._arrays.pop(key, None)

    # -- queries ------------------------------------------------------------

    def query(self, box: Box) -> set[Hashable]:
        """Ids of every indexed extent overlapping *box*."""
        self.universe._check_ref(box)
        xmin, ymin, xmax, ymax = box.xmin, box.ymin, box.xmax, box.ymax
        xs, ys = self._cell_ranges(xmin, ymin, xmax, ymax)
        with self._lock:
            found = {entry_id for entry_id, extent in self._outside.items()
                     if extent.overlaps(box)}
            cells = self._cells
            keys = [key for key in product(xs, ys) if key in cells]
            if _EVERYWHERE in cells:
                keys.append(_EVERYWHERE)
            if not keys:
                return found
            # An extent in several touched cells is a candidate once per
            # cell; its repeats fall out in the id set, which costs less
            # than an ``np.unique`` over every candidate.
            parts = [self._slot_array(key) for key in keys]
            slots = np.concatenate(parts) if len(parts) > 1 else parts[0]
            x0, y0, x1, y1 = self._extents.take(slots, axis=0).T
            hits = slots[(x0 <= xmax) & (x1 >= xmin)
                         & (y0 <= ymax) & (y1 >= ymin)]
            ids = self._ids
            found.update([ids[slot] for slot in hits.tolist()])
            return found

    def estimate_matches(self, box: Box) -> int:
        """Cheap upper-bound estimate of :meth:`query`'s result size.

        Sums the candidate lists of the touched cells, the everywhere
        list and the overflow map without running the overlap test, so
        the cost model can price a spatial probe without executing it.
        Boxes spanning several cells are counted once per cell, which
        keeps this an over- rather than under-estimate.
        """
        xs, ys = self._cell_ranges(box.xmin, box.ymin, box.xmax, box.ymax)
        with self._lock:
            cells = self._cells
            total = len(self._outside) + len(cells.get(_EVERYWHERE, ()))
            for key in product(xs, ys):
                total += len(cells.get(key, ()))
            return min(total, len(self))
