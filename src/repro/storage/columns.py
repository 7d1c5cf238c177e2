"""Column arrays over stored value tuples, and the column image of a
heap's sealed pages.

Numeric types become typed NumPy arrays with an optional null mask,
every other type an ``object`` array of the original Python values
(``query/batch.py`` re-exports the builders).  A :class:`ColumnImage`
holds these columns, plus each version's ``xmin``, for the pages of one
heap no insert will touch again: their values never change, and their
``xmin`` only once, to ``ABORTED``.  It is derived state: not pickled,
not logged, not rebuilt by recovery; scans rebuild it as they need it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, NamedTuple, Sequence

import numpy as np

from .heap import HeapFile
from .transactions import ABORTED
from .tuples import TID

__all__ = ["NUMERIC_DTYPES", "Column", "ColumnImage", "build_column",
           "build_columns", "concat_columns", "object_column",
           "take_columns", "typed_column"]

#: Attribute types that get typed (non-object) column arrays.
NUMERIC_DTYPES: dict[str, Any] = {
    "int4": np.int64,
    "float4": np.float64,
    "float8": np.float64,
    "bool": np.bool_,
}

#: A column's values and its null mask (``None``: no NULLs, or NULLs
#: carried in-band as ``None`` objects).
Column = tuple[np.ndarray, "np.ndarray | None"]


def object_column(values: Sequence[Any]) -> np.ndarray:
    """Build an object-dtype column without NumPy broadcasting surprises.

    ``np.asarray`` would try to interpret array-shaped elements (raster
    ``Image`` payloads, matrices) as extra dimensions; ``fromiter`` treats
    every element as an opaque scalar.
    """
    return np.fromiter(values, dtype=object, count=len(values))


def typed_column(values: Sequence[Any], dtype: Any) -> Column:
    """Build a typed column, demoting NULLs to a fill value + mask."""
    try:
        arr = np.asarray(values, dtype=dtype)
        # NumPy reads None as NaN: only a NaN can hide a NULL here.
        if arr.dtype.kind != "f" or not np.isnan(arr).any() \
                or None not in values:
            return arr, None
    except (TypeError, ValueError):
        pass
    mask = np.fromiter((v is None for v in values), dtype=bool, count=len(values))
    filled = [0 if v is None else v for v in values]
    return np.asarray(filled, dtype=dtype), mask


def build_column(type_name: str | None, values: Sequence[Any]) -> Column:
    """Column array + null mask for one attribute's values."""
    dtype = NUMERIC_DTYPES.get(type_name) if type_name else None
    if dtype is not None:
        return typed_column(values, dtype)
    return object_column(values), None


def build_columns(types: Sequence[str], rows: Sequence[tuple]) -> list[Column]:
    """The columns of value tuples *rows*, one per type in *types*."""
    transposed = zip(*rows) if rows else [()] * len(types)
    return [build_column(t, values) for t, values in zip(types, transposed)]


def take_columns(columns: list[Column], rows: np.ndarray) -> list[Column]:
    """The rows at ascending positions *rows*: a view when they are
    contiguous, else a copy."""
    if len(rows) and rows[-1] - rows[0] + 1 == len(rows):
        rows = slice(int(rows[0]), int(rows[-1]) + 1)
    return [(arr[rows], None if mask is None else mask[rows])
            for arr, mask in columns]


def concat_columns(pieces: list[list[Column]]) -> list[Column]:
    """Pieces of the same columns end to end, every array read-only."""
    out = pieces[0] if len(pieces) == 1 else [
        (np.concatenate([arr for arr, _ in parts]),
         None if all(mask is None for _, mask in parts) else np.concatenate(
             [np.zeros(len(arr), bool) if mask is None else mask
              for arr, mask in parts]))
        for parts in zip(*pieces)]
    for arr, mask in out:
        arr.flags.writeable = False
        if mask is not None:
            mask.flags.writeable = False
    return out


class Segment(NamedTuple):
    """The image of the pages from the previous segment's ``stop_page``
    (0 for the first) up to ``stop_page``."""

    stop_page: int
    xmin: np.ndarray
    columns: list[Column]


class ColumnImage:
    """The column image of one heap's sealed pages: append-only
    segments, each built once and never copied.

    Readers take :attr:`segments`, a tuple replaced whole, without a
    lock.  Extension and the abort's stamp share :attr:`lock`, so a
    version's ``xmin`` enters the image after its stamp, or the stamp
    reaches the image too.
    """

    def __init__(self) -> None:
        self.segments: tuple[Segment, ...] = ()
        #: Per imaged page: its segment's ``xmin`` and its first row there.
        self._rows_of: list[tuple[np.ndarray, int]] = []
        self.lock = threading.Lock()

    def __reduce__(self) -> tuple:
        return ColumnImage, ()  # derived state: pickles empty

    def extend(self, heap: HeapFile, types: Sequence[str]
               ) -> tuple[Segment, ...]:
        """The segments, first extended over every page of *heap* sealed
        now (one new segment, read-only to readers)."""
        sealed = heap.sealed_page_count
        if sealed > stop_page(self.segments):
            with self.lock:
                first = stop_page(self.segments)
                pages = list(itertools.islice(heap.iter_version_lists(first),
                                              max(0, sealed - first)))
                if pages:
                    self._append(pages, sealed, types)
        return self.segments

    def _append(self, pages: list[list], stop: int, types: Sequence[str]
                ) -> None:
        versions = [version for page in pages for version in page]
        xmin = np.fromiter((v.xmin for v in versions), np.int64,
                           len(versions))
        columns = concat_columns(
            [build_columns(types, [v.values for v in versions])])
        start = 0
        for page in pages:
            self._rows_of.append((xmin, start))
            start += len(page)
        self.segments += (Segment(stop, xmin, columns),)

    def stamp_aborted(self, tid: TID) -> None:
        """Stamp the image row of the version at *tid* ``ABORTED`` when
        its page is imaged; the caller holds :attr:`lock` and stamps the
        heap version under it too."""
        if tid.page < len(self._rows_of):
            xmin, start = self._rows_of[tid.page]
            xmin[start + tid.slot] = ABORTED


def stop_page(segments: tuple[Segment, ...]) -> int:
    """The first page *segments* do not cover."""
    return segments[-1].stop_page if segments else 0
