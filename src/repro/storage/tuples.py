"""Tuple representation for the storage substrate.

The Gaea prototype stored its metadata and objects in POSTGRES; our
substitute keeps the two properties the paper relies on:

* **Append-only storage** — the paper's objects are immutable (base
  objects are observations, derived objects are added by tasks, an
  edited process is a new process), so a stored :class:`TupleVersion`'s
  values are written once and never changed.  It carries ``xmin``, the
  transaction that created it; that changes at most once, to
  ``ABORTED``, while its creator is still in flight — a version whose
  creator aborted stays stored and dead.
* **ADT-valued attributes** — attribute values may be any registered
  primitive-class value (images included).

A :class:`TID` names a tuple version by (page number, slot number), like a
Postgres ctid.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..errors import StorageError

__all__ = ["TID", "TupleVersion", "estimate_size"]


class TID(NamedTuple):
    """Physical tuple identifier: (page number, slot within page) — a
    tuple, so the indexes hash and sort it in C."""

    page: int
    slot: int

    def __str__(self) -> str:
        return f"({self.page},{self.slot})"


@dataclass(slots=True)
class TupleVersion:
    """One stored version of a tuple.

    ``values`` is a tuple of attribute values positionally matching the
    relation schema.  ``xmin`` is the whole of visibility: the version
    exists for exactly the snapshots that see its creating transaction
    (none, once an abort has stamped it ``ABORTED``).
    """

    values: tuple[Any, ...]
    xmin: int
    _size: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            raise StorageError("tuple values must be a tuple")
        if self._size == 0:
            self._size = estimate_size(self.values)

    def __reduce__(self) -> tuple:
        return TupleVersion, (self.values, self.xmin, self._size)

    def __setstate__(self, state: dict) -> None:  # pickled before slots
        for name, value in state.items():
            setattr(self, name, value)

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
