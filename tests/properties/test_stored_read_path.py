"""Property test: every ``ClassStore`` read is one view of one stored-read
path.

Hypothesis generates a small relation and an arbitrary conjunction of
extent / equality / range predicates, then forces each access-path kind
that is sound for those predicates in turn (full scan, B-tree equality
probe, B-tree range walk ascending and descending, grid probe, timeline
probe, covering index-only walk).  For every path the views must agree:

* ``iter_scan_batches`` flattened ≡ ``iter_scan``, row for row, in order;
* ``iter_find`` ≡ a plain-Python filter of the generated rows (computed
  below from the row dicts, not by the engine), ``find`` and ``exists``
  consistent with it;
* every call records exactly one scan event (``scan_counts`` and
  ``scan_log``);
* a ``View`` opened before a concurrent writer commits keeps seeing
  the rows it saw before.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import open_kernel
from repro.core.classes import NonPrimitiveClass, View
from repro.spatial import Box
from repro.storage.access import AccessPath
from repro.temporal import AbsTime

OBS = NonPrimitiveClass(
    name="obs",
    attributes=(("code", "int4"), ("label", "char16"),
                ("spatialextent", "box"), ("timestamp", "abstime")),
)
UNIVERSE = Box(0, 0, 40, 10)
CELLS = 4


def _cell_box(cell: int) -> Box:
    """Row extents sit strictly inside their 10-wide cell, so a query
    spanning whole cells overlaps exactly the rows of those cells."""
    return Box(10 * cell + 1, 1, 10 * cell + 9, 9)


ROW = st.fixed_dictionaries({
    "code": st.integers(0, 6),
    "label": st.sampled_from(["a", "b", "c"]),
    "cell": st.integers(0, CELLS - 1),
    "day": st.sampled_from([0, 10, 20]),
})

QUERY = st.fixed_dictionaries({
    "cells": st.none() | st.tuples(st.integers(0, CELLS - 1),
                                   st.integers(0, CELLS - 1)).map(sorted),
    "day": st.none() | st.sampled_from([0, 10, 20, 30]),
    "code": st.none() | st.integers(0, 7),
    "label": st.none() | st.sampled_from(["a", "b", "d"]),
    "lo": st.none() | st.integers(0, 7),
    "hi": st.none() | st.integers(0, 7),
})


def ref_matches(row: dict, query: dict, extents_only: bool = False) -> bool:
    """The reference: does a generated row satisfy the generated query?"""
    if query["cells"] is not None \
            and not query["cells"][0] <= row["cell"] <= query["cells"][1]:
        return False
    if query["day"] is not None and row["day"] != query["day"]:
        return False
    if extents_only:
        return True
    return (
        (query["code"] is None or row["code"] == query["code"])
        and (query["label"] is None or row["label"] == query["label"])
        and (query["lo"] is None or row["code"] >= query["lo"])
        and (query["hi"] is None or row["code"] <= query["hi"])
    )


def _store_rows(store, rows) -> dict[int, dict]:
    by_oid = {}
    for row in rows:
        obj = store.store("obs", {
            "code": row["code"], "label": row["label"],
            "spatialextent": _cell_box(row["cell"]),
            "timestamp": AbsTime(days=row["day"]),
        })
        by_oid[obj.oid] = row
    return by_oid


def _predicates(query: dict) -> dict:
    spatial = None
    if query["cells"] is not None:
        lo, hi = query["cells"]
        spatial = Box(10 * lo, 0, 10 * hi + 10, 10)
    temporal = None if query["day"] is None else AbsTime(days=query["day"])
    filters = tuple(
        (attr, query[attr]) for attr in ("code", "label")
        if query[attr] is not None
    )
    ranges = tuple(
        ("code", op, query[key]) for key, op in (("lo", ">="), ("hi", "<="))
        if query[key] is not None
    )
    return {"spatial": spatial, "temporal": temporal,
            "filters": filters, "ranges": ranges}


def _forced_paths(version: int, query: dict, preds: dict) -> list[AccessPath]:
    """Every path kind whose pruning the predicates imply."""
    window = (query["lo"], query["hi"])
    paths = [
        AccessPath(kind="full-scan", index_version=version),
        AccessPath(kind="index-range", column="code", argument=window,
                   index_version=version, ordered=True),
        AccessPath(kind="index-range", column="code", argument=window,
                   index_version=version, ordered=True, descending=True),
    ]
    if query["code"] is not None:
        paths.append(AccessPath(kind="index-eq", column="code",
                                argument=query["code"],
                                index_version=version))
    if preds["spatial"] is not None:
        paths.append(AccessPath(kind="spatial-probe",
                                column="spatialextent",
                                argument=preds["spatial"],
                                index_version=version))
    if preds["temporal"] is not None:
        paths.append(AccessPath(kind="temporal-probe", column="timestamp",
                                argument=preds["temporal"],
                                index_version=version))
    return paths


class _OneScanPerCall:
    """Asserts each wrapped call adds exactly one scan event."""

    def __init__(self, store):
        self.store = store
        store.scan_log = []

    def __call__(self, fn, *args, **kwargs):
        counts = self.store.scan_counts.get("obs", 0)
        logged = len(self.store.scan_log)
        out = fn(*args, **kwargs)
        assert self.store.scan_counts.get("obs", 0) == counts + 1
        assert len(self.store.scan_log) == logged + 1
        return out


def _world(rows):
    kernel = open_kernel(universe=UNIVERSE)
    kernel.derivations.define_class(OBS)
    store = kernel.store
    by_oid = _store_rows(store, rows)
    store.create_attribute_index("obs", "code")
    return store, by_oid


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, max_size=14), late=st.lists(ROW, max_size=3),
       query=QUERY)
def test_views_agree_on_every_forced_path(rows, late, query):
    store, by_oid = _world(rows)
    once = _OneScanPerCall(store)
    preds = _predicates(query)
    expected = sorted(oid for oid, row in by_oid.items()
                      if ref_matches(row, query))
    covered = any(ref_matches(row, query, extents_only=True)
                  for row in by_oid.values())
    pinned = View(store)
    version = store.engine.catalog.index_version

    def check(path):
        batches = once(lambda: list(store.iter_scan_batches(
            "obs", access_path=path, batch_size=3, **preds)))
        assert all(0 < batch.length <= 3 for batch in batches)
        flattened = [obj for batch in batches for obj in batch.to_rows()]
        scanned = once(lambda: list(store.iter_scan(
            "obs", access_path=path, **preds)))
        assert flattened == scanned
        found = once(lambda: list(store.iter_find(
            "obs", access_path=path, **preds)))
        assert sorted(obj.oid for obj in found) == expected
        assert all(obj in scanned for obj in found)
        if path.ordered:
            codes = [obj["code"] for obj in scanned]
            assert codes == sorted(codes, reverse=path.descending)
        assert once(store.find, "obs", access_path=path, **preds) == found

    for path in _forced_paths(version, query, preds):
        check(path)
    assert once(store.exists, "obs", preds["spatial"],
                preds["temporal"]) is covered

    # A writer commits alongside: a view pinned before it keeps its rows.
    late_oids = _store_rows(store, late)
    with pinned.entered():
        for path in _forced_paths(version, query, preds):
            check(path)
    by_oid.update(late_oids)
    expected = sorted(oid for oid, row in by_oid.items()
                      if ref_matches(row, query))
    check(AccessPath(kind="full-scan", index_version=version))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(ROW, max_size=14), late=st.lists(ROW, max_size=3),
       query=QUERY, use_eq=st.booleans())
def test_index_only_views_agree(rows, late, query, use_eq):
    """The covering scan: batches flattened ≡ the row view ≡ the keys a
    plain-Python filter keeps, in key order; one scan event per call."""
    store, by_oid = _world(rows)
    once = _OneScanPerCall(store)
    version = store.engine.catalog.index_version
    if use_eq and query["code"] is not None:
        path = AccessPath(kind="index-eq", column="code",
                          argument=query["code"], index_version=version,
                          index_only=True)
        keep = lambda code: code == query["code"]  # noqa: E731
    else:
        lo, hi = query["lo"], query["hi"]
        path = AccessPath(kind="index-range", column="code",
                          argument=(lo, hi), index_version=version,
                          index_only=True)
        keep = lambda code: ((lo is None or code >= lo)  # noqa: E731
                             and (hi is None or code <= hi))
    expected = sorted(row["code"] for row in by_oid.values()
                      if keep(row["code"]))
    pinned = View(store)

    def check():
        batches = once(lambda: list(store.iter_index_only_batches(
            "obs", path, batch_size=3)))
        assert all(0 < batch.length <= 3 for batch in batches)
        flattened = [row for batch in batches for row in batch.to_rows()]
        rows_view = once(lambda: list(store.iter_index_only("obs", path)))
        assert flattened == rows_view == [{"code": c} for c in expected]

    check()
    _store_rows(store, late)
    with pinned.entered():
        check()
