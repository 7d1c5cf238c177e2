"""Tests for GaeaQL extensions: attribute filters and browsing SHOWs."""

import pytest

from repro.figures import build_figure2, populate_scenes
from repro.query import parse_statement


@pytest.fixture()
def catalog():
    catalog = build_figure2()
    populate_scenes(catalog, seed=77, size=16, years=(1988,))
    return catalog


class TestAttributeFilters:
    def test_parse_filters(self):
        stmt = parse_statement(
            "SELECT FROM landsat_tm_rectified WHERE band = 'red' "
            "AND timestamp = '1988-07-01'"
        )
        assert stmt.filters == (("band", "red"),)
        assert stmt.temporal is not None

    def test_parse_numeric_filter(self):
        stmt = parse_statement("SELECT FROM land_cover_c20 WHERE numclass = 12")
        assert stmt.filters == (("numclass", 12),)

    def test_filter_narrows_results(self, catalog):
        [result] = catalog.connection.execute(
            "SELECT FROM landsat_tm_rectified WHERE band = 'red'"
        )
        assert len(result.objects) == 1
        assert result.objects[0]["band"] == "red"

    def test_filter_to_empty(self, catalog):
        [result] = catalog.connection.execute(
            "SELECT FROM landsat_tm_rectified WHERE band = 'thermal'"
        )
        assert result.objects == ()

    def test_filter_combined_with_extent(self, catalog):
        [result] = catalog.connection.execute(
            "SELECT FROM landsat_tm_rectified WHERE band = 'nir' "
            "AND timestamp = '1988-07-01'"
        )
        assert len(result.objects) == 1
        assert result.objects[0]["band"] == "nir"


class TestBrowsingShows:
    def test_show_operators(self, catalog):
        message = catalog.connection.execute("SHOW OPERATORS")[0].message
        assert "img_nrow(image) -> int4" in message
        assert "unsuperclassify" in message
        # §4.2: docs travel with the operators.
        assert "// return # of rows" in message

    def test_show_types(self, catalog):
        message = catalog.connection.execute("SHOW TYPES")[0].message
        assert "TYPE image" in message
        assert "TYPE int4 ISA numeric" in message

    def test_show_operators_includes_overloads(self, catalog):
        message = catalog.connection.execute("SHOW OPERATORS")[0].message
        # The Figure-4 operator appears under both paper and Python names.
        assert "convert-image-matrix" in message
        assert "convert_image_matrix" in message
