"""Tuple representation for the storage substrate.

The Gaea prototype stored its metadata and objects in POSTGRES; our
substitute keeps the two properties the paper relies on:

* **No-overwrite storage** — Postgres never updates in place; old tuple
  versions remain.  Every stored :class:`TupleVersion` carries ``xmin``
  (creating transaction) and ``xmax`` (deleting transaction, if any), and
  deletion just stamps ``xmax``.
* **ADT-valued attributes** — attribute values may be any registered
  primitive-class value (images included).

A :class:`TID` names a tuple version by (page number, slot number), like a
Postgres ctid.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

from ..errors import StorageError

__all__ = ["TID", "TupleVersion", "estimate_size"]


@dataclass(frozen=True, order=True)
class TID:
    """Physical tuple identifier: (page number, slot within page)."""

    page: int
    slot: int

    def __str__(self) -> str:
        return f"({self.page},{self.slot})"


@dataclass
class TupleVersion:
    """One stored version of a tuple.

    ``values`` is a tuple of attribute values positionally matching the
    relation schema.  ``xmin``/``xmax`` implement no-overwrite visibility:
    the version exists for snapshots that see ``xmin`` committed and do
    not see ``xmax`` committed.
    """

    values: tuple[Any, ...]
    xmin: int
    xmax: int | None = None
    _size: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            raise StorageError("tuple values must be a tuple")
        if self._size == 0:
            self._size = estimate_size(self.values)

    @property
    def size(self) -> int:
        """Approximate serialized size in bytes (for page accounting)."""
        return self._size


def estimate_size(values: tuple[Any, ...]) -> int:
    """Approximate the serialized byte size of a value tuple.

    Pages budget space by this estimate.  Pickle gives a uniform measure
    over scalars, boxes, times and array-backed primitives without each
    type needing a bespoke sizer; the engine never stores the pickled form
    itself.
    """
    try:
        return len(pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:  # unpicklable user type
        raise StorageError(f"cannot size tuple values: {exc}") from exc
