"""Tests for derivation-diagram rendering (browse/compare, conclusion)."""

import pytest

from repro.core import DerivationNet
from repro.core.diagrams import (
    lineage_to_dot,
    lineage_to_text,
    net_to_dot,
    net_to_text,
)
from repro.figures import build_figure2, populate_scenes


@pytest.fixture()
def net():
    net = DerivationNet()
    net.add_transition("P6", [("avhrr", 2)], "ndvi")
    net.add_transition("P7", [("ndvi", 2)], "change")
    return net


class TestNetRendering:
    def test_dot_structure(self, net):
        dot = net_to_dot(net)
        assert dot.startswith("digraph derivation_net {")
        assert '"avhrr" -> "P6" [label="2"];' in dot
        assert '"P6" -> "ndvi";' in dot
        assert '"P6" [shape=box];' in dot
        assert dot.endswith("}")

    def test_dot_marks_tokens(self, net):
        dot = net_to_dot(net, marking={"avhrr": 3})
        assert "style=filled" in dot
        assert "3 token(s)" in dot

    def test_text_listing(self, net):
        text = net_to_text(net)
        assert "P6: avhrr(>=2) -> ndvi" in text
        assert "P7: ndvi(>=2) -> change" in text

    def test_isolated_places_reported(self, net):
        net.add_place("census")
        assert "isolated places: census" in net_to_text(net)


class TestLineageRendering:
    @pytest.fixture()
    def catalog(self):
        catalog = build_figure2()
        populate_scenes(catalog, seed=51, size=16, years=(1988,))
        catalog.connection.execute("SELECT FROM desert_smoothed_c5")
        return catalog

    def test_lineage_dot(self, catalog):
        kernel = catalog.kernel
        obj = kernel.store.objects("desert_smoothed_c5")[0]
        lineage = kernel.provenance.lineage(obj.oid)
        dot = lineage_to_dot(lineage, store=kernel.store)
        assert "digraph lineage {" in dot
        assert "P2" in dot and "P5" in dot
        assert f"o{obj.oid} [" in dot
        assert "penwidth=2" in dot  # the root is emphasized
        assert "style=dashed" in dot  # base objects dashed

    def test_lineage_text_tree(self, catalog):
        kernel = catalog.kernel
        obj = kernel.store.objects("desert_smoothed_c5")[0]
        lineage = kernel.provenance.lineage(obj.oid)
        text = lineage_to_text(lineage, store=kernel.store)
        assert text.splitlines()[0].startswith("desert_smoothed_c5")
        assert "<- P5" in text
        assert "<- P2" in text
        assert "(base)" in text

    def test_base_object_renders(self, catalog):
        kernel = catalog.kernel
        base = kernel.store.objects("rainfall_annual")[0]
        lineage = kernel.provenance.lineage(base.oid)
        assert "(base)" in lineage_to_text(lineage, store=kernel.store)
        dot = lineage_to_dot(lineage, store=kernel.store)
        assert f"o{base.oid}" in dot
