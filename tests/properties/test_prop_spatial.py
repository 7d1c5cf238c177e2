"""Property-based tests: box algebra invariants and the grid index
against a brute-force ``Box.overlaps`` model."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.adt import make_standard_registries
from repro.errors import SpatialError
from repro.spatial import Box, GridIndex, relate, TopoRelation
from repro.storage import StorageEngine

_COORD = st.floats(min_value=-500, max_value=500, allow_nan=False,
                   allow_infinity=False)


@st.composite
def boxes(draw):
    x1, x2 = sorted((draw(_COORD), draw(_COORD)))
    y1, y2 = sorted((draw(_COORD), draw(_COORD)))
    return Box(x1, y1, x2, y2)


class TestBoxAlgebra:
    @given(a=boxes(), b=boxes())
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(a=boxes(), b=boxes())
    def test_intersection_commutes(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(a=boxes(), b=boxes())
    def test_intersection_contained_in_both(self, a, b):
        inter = a.intersection(b)
        assume(inter is not None)
        assert a.contains(inter) and b.contains(inter)

    @given(a=boxes(), b=boxes())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains(a) and u.contains(b)

    @given(a=boxes())
    def test_self_relations(self, a):
        assert a.contains(a)
        assert a.overlaps(a)
        assert a.intersection(a) == a
        assert relate(a, a) is TopoRelation.EQUAL

    @given(a=boxes(), b=boxes())
    def test_relate_consistent_with_overlap(self, a, b):
        relation = relate(a, b)
        if relation is TopoRelation.DISJOINT:
            assert not a.overlaps(b)
        else:
            assert a.overlaps(b)

    @given(a=boxes(), b=boxes())
    def test_intersection_area_bounded(self, a, b):
        inter = a.intersection(b)
        assume(inter is not None)
        assert inter.area <= min(a.area, b.area) + 1e-9


_UNIVERSE = Box(-500, -500, 500, 500)
# Multiples of 62.5 hit the 8x8 grid's cell edges (every 125) and the
# universe boundary (±500), so extents often touch only at an edge.
_GRID_COORD = st.one_of(
    st.sampled_from([k * 62.5 for k in range(-12, 13)]),
    st.floats(min_value=-800, max_value=800, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def grid_boxes(draw):
    """Extents inside, partly or wholly outside, or covering the
    universe, with coordinates often on a cell edge."""
    if draw(st.integers(0, 5)) == 0:
        lo = draw(st.floats(min_value=-900, max_value=-500))
        hi = draw(st.floats(min_value=500, max_value=900))
        return Box(lo, lo, hi, hi)
    x1, x2 = sorted((draw(_GRID_COORD), draw(_GRID_COORD)))
    y1, y2 = sorted((draw(_GRID_COORD), draw(_GRID_COORD)))
    return Box(x1, y1, x2, y2)


_GRID_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), grid_boxes()),
    st.tuples(st.just("remove"), st.integers(min_value=0)),
    st.tuples(st.just("query"), grid_boxes()),
), max_size=60)


class TestGridIndexProperty:
    @given(items=st.lists(boxes(), min_size=1, max_size=40), query=boxes())
    def test_query_matches_linear_scan(self, items, query):
        index = GridIndex(universe=_UNIVERSE, nx=8, ny=8)
        for i, box in enumerate(items):
            index.insert(i, box)
        expected = {i for i, box in enumerate(items) if box.overlaps(query)}
        assert index.query(query) == expected

    @settings(max_examples=150)
    @given(ops=_GRID_OPS)
    def test_interleaved_ops_match_model(self, ops):
        """Inserts, removes and queries in any order answer like a
        brute-force ``Box.overlaps`` scan over the live extents."""
        index = GridIndex(universe=_UNIVERSE, nx=8, ny=8)
        model: dict[int, Box] = {}
        removed: set[int] = set()
        for i, (op, arg) in enumerate(ops):
            if op == "insert":
                index.insert(i, arg)
                model[i] = arg
            elif op == "remove" and model:
                victim = sorted(model)[arg % len(model)]
                index.remove(victim)
                del model[victim]
                removed.add(victim)
            elif op == "query":
                expected = {k for k, box in model.items() if box.overlaps(arg)}
                assert index.query(arg) == expected
                assert index.estimate_matches(arg) >= len(expected)
            assert len(index) == len(model)
        assert all(k in index for k in model)
        assert not any(k in index for k in removed)
        assert index.query(_UNIVERSE.expanded(500)) == set(model)

    @given(items=st.lists(grid_boxes(), max_size=10), probe=grid_boxes())
    def test_foreign_reference_system_always_rejected(self, items, probe):
        index = GridIndex(universe=_UNIVERSE, nx=8, ny=8)
        for i, box in enumerate(items):
            index.insert(i, box)
        foreign = Box(probe.xmin, probe.ymin, probe.xmax, probe.ymax,
                      ref_system="UTM")
        with pytest.raises(SpatialError):
            index.query(foreign)

    @given(txs=st.lists(st.tuples(st.lists(grid_boxes(), min_size=1,
                                           max_size=4), st.booleans()),
                        min_size=1, max_size=8),
           probe=grid_boxes())
    def test_engine_tid_stream_ascends_after_aborts(self, txs, probe):
        engine = StorageEngine(types=make_standard_registries()[0])
        engine.create_relation("r", [("extent", "box")])
        engine.create_spatial_index("r", "extent", universe=_UNIVERSE,
                                    nx=8, ny=8)
        committed: dict = {}
        for extents, commit in txs:
            tx = engine.begin()
            tids = [engine.insert("r", (box,), tx) for box in extents]
            if commit:
                engine.commit(tx)
                committed.update(zip(tids, extents))
            else:
                engine.abort(tx)
        assert list(engine.iter_spatial_tids("r", probe)) == sorted(
            tid for tid, box in committed.items() if box.overlaps(probe))
