"""Tests for slotted pages and heap files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt import Image
from repro.errors import PageFullError, TupleNotFoundError
from repro.storage import TID, HeapFile, SlottedPage, TupleVersion
from repro.storage.heap import OPEN_PAGES


def _version(payload="x", xmin=1) -> TupleVersion:
    return TupleVersion(values=(payload,), xmin=xmin)


class TestSlottedPage:
    def test_insert_and_get(self):
        page = SlottedPage(page_no=0)
        slot = page.insert(_version("a"))
        assert page.get(slot).values == ("a",)

    def test_slots_grow_monotonically(self):
        page = SlottedPage(page_no=0)
        slots = [page.insert(_version(str(i))) for i in range(5)]
        assert slots == [0, 1, 2, 3, 4]

    def test_page_full(self):
        page = SlottedPage(page_no=0, capacity=64)
        with pytest.raises(PageFullError):
            while True:
                page.insert(_version("payload"))

    def test_bad_slot(self):
        page = SlottedPage(page_no=0)
        with pytest.raises(TupleNotFoundError):
            page.get(0)

    def test_free_space_decreases(self):
        page = SlottedPage(page_no=0)
        before = page.free_space
        page.insert(_version("abc"))
        assert page.free_space < before


class TestHeapFile:
    def test_insert_returns_stable_tids(self):
        heap = HeapFile(name="t")
        tids = [heap.insert(_version(str(i))) for i in range(10)]
        assert len(set(tids)) == 10
        for i, tid in enumerate(tids):
            assert heap.get(tid).values == (str(i),)

    def test_scan_in_tid_order(self):
        heap = HeapFile(name="t")
        for i in range(20):
            heap.insert(_version(str(i)))
        scanned = [v.values[0] for _, v in heap.scan()]
        assert scanned == [str(i) for i in range(20)]

    def test_spills_to_new_pages(self):
        heap = HeapFile(name="t", page_bytes=256)
        for i in range(50):
            heap.insert(_version(f"payload-{i}"))
        assert heap.page_count > 1
        assert heap.version_count() == 50

    def test_oversized_tuple_gets_toast_page(self):
        heap = HeapFile(name="t", page_bytes=1024)
        big = Image.from_array(np.zeros((64, 64)), "float8")
        version = TupleVersion(values=(big,), xmin=1)
        tid = heap.insert(version)
        assert heap.get(tid).values[0] == big

    def test_small_tuples_after_oversized(self):
        heap = HeapFile(name="t", page_bytes=1024)
        big = Image.from_array(np.zeros((64, 64)), "float8")
        heap.insert(TupleVersion(values=(big,), xmin=1))
        tid = heap.insert(_version("small"))
        assert heap.get(tid).values == ("small",)

    def test_get_bad_page(self):
        heap = HeapFile(name="t")
        with pytest.raises(TupleNotFoundError):
            heap.get(TID(page=4, slot=0))


class TestSealedPages:
    """Every page but the last ``OPEN_PAGES`` is sealed: no insert lands
    in it again, so its slots are fixed (the column image relies on it)."""

    @settings(deadline=None, max_examples=60)
    @given(sizes=st.lists(st.sampled_from([1, 40, 150, 2000, 2000]),
                          min_size=1, max_size=80))
    def test_an_insert_never_lands_in_a_sealed_page(self, sizes):
        heap = HeapFile(name="t", page_bytes=512)
        slots: list[int] = []  # per sealed page, its slot count when sealed
        for size in sizes:
            # 2000 bytes is an oversized tuple: a page of its own
            tid = heap.insert(_version("x" * size))
            assert tid.page >= heap.sealed_page_count
            assert heap.sealed_page_count == max(0, heap.page_count
                                                 - OPEN_PAGES)
            for page_no in range(len(slots)):
                assert len(heap._pages[page_no].versions()) == slots[page_no]
            slots.extend(len(heap._pages[page_no].versions())
                         for page_no in range(len(slots),
                                              heap.sealed_page_count))

    def test_a_sealed_page_with_room_stays_sealed(self):
        """Oversized tuples fill the open pages exactly (each gets a page
        of its own size), so the next small tuple finds no room in them:
        it goes to a new page, not to the sealed page that has room."""
        heap = HeapFile(name="t", page_bytes=1024)
        first = heap.insert(_version("small"))
        big = Image.from_array(np.zeros((64, 64)), "float8")
        for _ in range(OPEN_PAGES):
            heap.insert(TupleVersion(values=(big,), xmin=1))
        assert heap.sealed_page_count == 1
        assert heap._pages[first.page].fits(_version("small"))
        tid = heap.insert(_version("small"))
        assert tid.page == OPEN_PAGES + 1
        assert len(heap._pages[first.page].versions()) == 1
