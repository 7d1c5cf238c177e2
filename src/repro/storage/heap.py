"""Slotted pages and heap files.

A :class:`HeapFile` is an append-friendly sequence of :class:`SlottedPage`
objects.  Inserts go to the last page with room among the last
:data:`OPEN_PAGES` (first-fit); every earlier page is *sealed*: its
slots are fixed.  Slots are never reused within a page so TIDs stay
stable, which the indexes rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import PageFullError, TupleNotFoundError
from .tuples import TID, TupleVersion

__all__ = ["SlottedPage", "HeapFile", "DEFAULT_PAGE_BYTES", "OPEN_PAGES"]

DEFAULT_PAGE_BYTES = 8192
#: Pages at a heap's tail that inserts try; every earlier page is sealed.
OPEN_PAGES = 4
_SLOT_OVERHEAD = 8  # rough per-slot bookkeeping charge


@dataclass
class SlottedPage:
    """A fixed-budget page holding tuple versions in slots."""

    page_no: int
    capacity: int = DEFAULT_PAGE_BYTES
    _slots: list[TupleVersion] = field(default_factory=list)
    _used: int = 0

    @property
    def free_space(self) -> int:
        """Bytes still available on this page."""
        return self.capacity - self._used

    def fits(self, version: TupleVersion) -> bool:
        """Whether *version* fits in the remaining budget."""
        return version.size + _SLOT_OVERHEAD <= self.free_space

    def insert(self, version: TupleVersion) -> int:
        """Place *version* in a fresh slot; returns the slot number."""
        if not self.fits(version):
            raise PageFullError(
                f"page {self.page_no}: need {version.size + _SLOT_OVERHEAD}, "
                f"have {self.free_space}"
            )
        self._slots.append(version)
        self._used += version.size + _SLOT_OVERHEAD
        return len(self._slots) - 1

    def get(self, slot: int) -> TupleVersion:
        """The version in *slot*."""
        if not 0 <= slot < len(self._slots):
            raise TupleNotFoundError(f"page {self.page_no} has no slot {slot}")
        return self._slots[slot]

    def __iter__(self) -> Iterator[tuple[int, TupleVersion]]:
        return iter(enumerate(self._slots))

    def versions(self) -> list[TupleVersion]:
        """The page's versions in slot order, as the stored list.

        Callers must not mutate it — this is the zero-copy surface the
        scans walk (slot numbers are implicit, so no TID tuples are built
        per row).
        """
        return self._slots


@dataclass
class HeapFile:
    """A growable collection of slotted pages for one relation."""

    name: str
    page_bytes: int = DEFAULT_PAGE_BYTES
    _pages: list[SlottedPage] = field(default_factory=list)
    # Maintained on insert so `version_count` is O(1): the cost model
    # consults it on every access-path decision.
    _version_total: int = 0

    @property
    def page_count(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def sealed_page_count(self) -> int:
        """Pages no insert will touch again: all but the last
        :data:`OPEN_PAGES`, whose count only grows."""
        return max(0, len(self._pages) - OPEN_PAGES)

    def _page_with_room(self, version: TupleVersion) -> SlottedPage:
        # First-fit from the tail: the common case is appending, and old
        # pages rarely regain space (no-overwrite storage never frees).
        # A new page is appended only after the open ones were tried, so
        # the page an insert lands in is never counted sealed.
        for page in reversed(self._pages[self.sealed_page_count:]):
            if page.fits(version):
                return page
        page = SlottedPage(page_no=len(self._pages), capacity=self.page_bytes)
        if not page.fits(version):
            # TOAST substitute: a tuple larger than a standard page gets
            # its own appropriately sized page, the way Postgres moves
            # large attribute values out of line.  TIDs stay uniform.
            page = SlottedPage(
                page_no=len(self._pages),
                capacity=version.size + _SLOT_OVERHEAD,
            )
        self._pages.append(page)
        return page

    def insert(self, version: TupleVersion) -> TID:
        """Append *version*, returning its stable TID."""
        page = self._page_with_room(version)
        slot = page.insert(version)
        self._version_total += 1
        return TID(page=page.page_no, slot=slot)

    def get(self, tid: TID) -> TupleVersion:
        """The version at *tid*."""
        if not 0 <= tid.page < len(self._pages):
            raise TupleNotFoundError(f"{self.name}: no page {tid.page}")
        return self._pages[tid.page].get(tid.slot)

    def scan(self) -> Iterator[tuple[TID, TupleVersion]]:
        """Full scan over every stored version, in TID order."""
        for page in self._pages:
            for slot, version in page:
                yield TID(page=page.page_no, slot=slot), version

    def iter_version_lists(self, first_page: int = 0
                           ) -> Iterator[list[TupleVersion]]:
        """Per-page version lists in TID order (no TID construction),
        from *first_page* on, including pages appended while iterating.

        The tuple-walk scan surface: :meth:`StorageEngine.value_batches`
        (and the unsealed tail of :meth:`StorageEngine.column_batches`)
        filters these lists for visibility page-at-a-time instead of
        paying a generator round-trip per row.
        """
        for page in itertools.islice(self._pages, first_page, None):
            yield page.versions()

    def version_count(self) -> int:
        """Total stored versions, live and dead (O(1))."""
        return self._version_total
