"""Tests for the grid spatial index."""

import pickle

import pytest

from repro.errors import SpatialError
from repro.spatial import Box, GridIndex


@pytest.fixture()
def index():
    return GridIndex(universe=Box(0, 0, 100, 100), nx=10, ny=10)


def _cell_refs(index):
    return sum(len(bucket) for bucket in index._cells.values())


class TestInsertRemove:
    def test_insert_and_query(self, index):
        index.insert("a", Box(5, 5, 15, 15))
        index.insert("b", Box(50, 50, 60, 60))
        assert index.query(Box(0, 0, 20, 20)) == {"a"}
        assert index.query(Box(0, 0, 100, 100)) == {"a", "b"}
        assert len(index) == 2

    def test_duplicate_id_rejected(self, index):
        index.insert("a", Box(0, 0, 1, 1))
        with pytest.raises(SpatialError):
            index.insert("a", Box(2, 2, 3, 3))
        index.insert("far", Box(200, 200, 300, 300))
        with pytest.raises(SpatialError):
            index.insert("far", Box(2, 2, 3, 3))
        assert len(index) == 2

    def test_failed_insert_registers_nothing(self, index):
        with pytest.raises(SpatialError):
            index.insert("u", Box(0, 0, 1, 1, ref_system="UTM"))
        assert len(index) == 0 and "u" not in index
        index.insert("u", Box(0, 0, 1, 1))
        assert index.query(Box(0, 0, 1, 1)) == {"u"}

    def test_outside_universe_goes_to_overflow(self, index):
        index.insert("far", Box(200, 200, 300, 300))
        assert index.query(Box(250, 250, 260, 260)) == {"far"}
        assert index.query(Box(0, 0, 50, 50)) == set()
        index.remove("far")
        assert "far" not in index

    def test_remove(self, index):
        index.insert("a", Box(5, 5, 15, 15))
        index.remove("a")
        assert index.query(Box(0, 0, 100, 100)) == set()
        assert "a" not in index
        assert _cell_refs(index) == 0

    def test_remove_unknown(self, index):
        with pytest.raises(SpatialError):
            index.remove("ghost")
        index.insert("a", Box(5, 5, 15, 15))
        index.remove("a")
        with pytest.raises(SpatialError):
            index.remove("a")

    def test_remove_after_probe_drops_cached_cell(self, index):
        index.insert("a", Box(5, 5, 6, 6))
        index.insert("b", Box(7, 7, 8, 8))
        assert index.query(Box(0, 0, 9, 9)) == {"a", "b"}
        index.remove("a")
        assert index.query(Box(0, 0, 9, 9)) == {"b"}
        index.insert("c", Box(1, 1, 2, 2))
        assert index.query(Box(0, 0, 9, 9)) == {"b", "c"}


class TestEverywhere:
    """Extents touching every cell live in one list, not in each cell."""

    @pytest.mark.parametrize("extent", [
        Box(0, 0, 100, 100),        # the universe itself
        Box(-50, -50, 150, 150),    # covering it with margin
        Box(5, 5, 95, 95),          # touching every cell, covering none
    ])
    def test_binned_once(self, index, extent):
        index.insert("scene", extent)
        assert _cell_refs(index) == 1
        assert index.query(Box(50, 50, 51, 51)) == {"scene"}
        assert index.estimate_matches(Box(50, 50, 51, 51)) == 1
        index.remove("scene")
        assert _cell_refs(index) == 0
        assert index.query(Box(0, 0, 100, 100)) == set()

    def test_everywhere_entries_still_filtered(self, index):
        index.insert("ring", Box(5, 5, 95, 95))
        index.insert("a", Box(1, 1, 2, 2))
        assert index.query(Box(0, 0, 3, 3)) == {"a"}
        assert index.query(Box(0, 0, 5, 5)) == {"a", "ring"}
        assert index.estimate_matches(Box(0, 0, 3, 3)) == 2


class TestQueries:
    def test_query_filters_false_positives(self, index):
        # Same grid cell, but extents do not overlap the query box.
        index.insert("a", Box(0, 0, 4, 4))
        index.insert("b", Box(6, 6, 9, 9))
        assert index.query(Box(0, 0, 5, 5)) == {"a"}

    def test_spanning_extent_found_from_any_cell(self, index):
        index.insert("wide", Box(0, 45, 100, 55))
        assert "wide" in index.query(Box(90, 50, 95, 52))
        assert "wide" in index.query(Box(2, 50, 3, 52))
        assert index.query(Box(0, 40, 100, 60)) == {"wide"}

    def test_boundary_extent(self, index):
        index.insert("edge", Box(95, 95, 100, 100))
        assert index.query(Box(99, 99, 100, 100)) == {"edge"}

    def test_touching_boundaries_count(self, index):
        # Corners and edges shared at a cell edge (x = 10) and off one.
        index.insert("left", Box(0, 0, 10, 10))
        index.insert("right", Box(10, 10, 20, 20))
        index.insert("inner", Box(3, 3, 7, 7))
        assert index.query(Box(10, 10, 10, 10)) == {"left", "right"}
        assert index.query(Box(7, 0, 8, 3)) == {"left", "inner"}
        assert index.query(Box(20.5, 0, 30, 30)) == set()

    def test_pickle_round_trip(self, index):
        for i in range(40):
            index.insert(i, Box(i * 2, i * 2, i * 2 + 5, i * 2 + 5))
        index.insert("far", Box(200, 200, 300, 300))
        index.insert("scene", Box(0, 0, 100, 100))
        index.remove(3)
        probe = Box(10, 10, 30, 30)
        before = index.query(probe)
        restored = pickle.loads(pickle.dumps(index))
        assert restored._arrays == {}
        assert restored.query(probe) == before
        assert len(restored) == len(index)
        restored.insert("new", Box(12, 12, 13, 13))
        assert restored.query(probe) == before | {"new"}


class TestValidation:
    def test_bad_resolution(self):
        with pytest.raises(SpatialError):
            GridIndex(universe=Box(0, 0, 1, 1), nx=0, ny=5)

    def test_zero_area_universe(self):
        with pytest.raises(SpatialError):
            GridIndex(universe=Box(0, 0, 0, 5))
