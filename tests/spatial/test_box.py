"""Tests for spatial boxes (repro.spatial.box)."""

import pytest

from repro.errors import SpatialError, ValueRepresentationError
from repro.spatial import Box


class TestConstruction:
    def test_basic(self):
        box = Box(0, 0, 2, 3)
        assert box.width == 2 and box.height == 3 and box.area == 6

    def test_degenerate_rejected(self):
        with pytest.raises(SpatialError):
            Box(2, 0, 1, 1)
        with pytest.raises(SpatialError):
            Box(0, 2, 1, 1)

    @pytest.mark.parametrize("coords", [
        (float("nan"), 0, 1, 1),
        (0, 0, 1, float("nan")),
        (0, 0, float("inf"), 1),
        (float("-inf"), 0, 1, 1),
        (0, float("-inf"), 1, float("inf")),
        (0, 0, 10 ** 400, 1),
    ])
    def test_non_finite_rejected(self, coords):
        with pytest.raises(SpatialError, match="non-finite"):
            Box(*coords)
        with pytest.raises(SpatialError):
            Box.validate(coords)

    def test_zero_area_allowed(self):
        assert Box(1, 1, 1, 1).area == 0.0

    def test_center(self):
        assert Box(0, 0, 4, 2).center == (2.0, 1.0)


class TestRepresentation:
    def test_parse(self):
        box = Box.parse("(0, 0, 10, 5)")
        assert box == Box(0, 0, 10, 5)
        assert box.ref_system == "long/lat"

    def test_parse_with_ref_system(self):
        box = Box.parse("(0, 0, 10, 5, UTM)")
        assert box.ref_system == "UTM"

    def test_parse_negative_and_decimal(self):
        box = Box.parse("(-20.5, -35.0, 52.0, 38.25)")
        assert box.xmin == -20.5 and box.ymax == 38.25

    def test_str_roundtrip(self):
        box = Box(-1.5, 0.0, 2.0, 3.0, ref_system="UTM")
        assert Box.parse(str(box)) == box

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueRepresentationError):
            Box.parse("(1, 2, 3)")

    def test_validate_forms(self):
        assert Box.validate((0, 0, 1, 1)) == Box(0, 0, 1, 1)
        assert Box.validate("(0, 0, 1, 1)") == Box(0, 0, 1, 1)
        box = Box(0, 0, 1, 1)
        assert Box.validate(box) is box
        with pytest.raises(ValueRepresentationError):
            Box.validate(42)


class TestGeometry:
    def test_contains_point_boundaries(self):
        box = Box(0, 0, 2, 2)
        assert box.contains_point(0, 0)
        assert box.contains_point(2, 2)
        assert not box.contains_point(2.1, 1)

    def test_contains_box(self):
        outer = Box(0, 0, 10, 10)
        assert outer.contains(Box(1, 1, 9, 9))
        assert outer.contains(outer)
        assert not Box(1, 1, 9, 9).contains(outer)

    def test_overlap_cases(self):
        a = Box(0, 0, 2, 2)
        assert a.overlaps(Box(1, 1, 3, 3))
        assert a.overlaps(Box(2, 2, 3, 3))  # touching corner counts
        assert not a.overlaps(Box(3, 3, 4, 4))

    def test_intersection(self):
        a = Box(0, 0, 2, 2)
        assert a.intersection(Box(1, 1, 3, 3)) == Box(1, 1, 2, 2)
        assert a.intersection(Box(5, 5, 6, 6)) is None

    def test_union(self):
        assert Box(0, 0, 1, 1).union(Box(2, 2, 3, 3)) == Box(0, 0, 3, 3)

    def test_expanded(self):
        assert Box(1, 1, 2, 2).expanded(1) == Box(0, 0, 3, 3)
        with pytest.raises(SpatialError):
            Box(0, 0, 1, 1).expanded(-1)

    def test_ref_system_mismatch(self):
        a = Box(0, 0, 1, 1)
        b = Box(0, 0, 1, 1, ref_system="UTM")
        with pytest.raises(SpatialError):
            a.overlaps(b)
        with pytest.raises(SpatialError):
            a.union(b)
