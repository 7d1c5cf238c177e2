"""Integration tests: every paper figure regenerates and verifies."""

import numpy as np
import pytest

from repro.gis import pca
from repro.figures import (
    FIGURE3_SOURCE,
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure4,
    build_figure5,
    populate_scenes,
)
from repro.query import parse_statement
from repro.query.ast import DefineProcess


class TestFigure1:
    def test_component_tree_has_paper_boxes(self):
        connection = build_figure1()
        tree = connection.kernel.component_tree()
        manager = tree["GAEA KERNEL"]["Meta-Data Manager"]
        assert set(manager) == {
            "Data Type/Operator Manager",
            "Derivation Manager",
            "Experiment Manager",
        }

    def test_interpreter_attached(self):
        connection = build_figure1()
        assert connection.optimizer is not None
        assert connection.executor is not None


class TestFigure2:
    @pytest.fixture(scope="class")
    def catalog(self):
        catalog = build_figure2()
        populate_scenes(catalog, size=16)
        return catalog

    def test_all_classes_defined(self, catalog):
        for name in catalog.class_names:
            assert name in catalog.kernel.classes

    def test_all_processes_defined(self, catalog):
        for name in catalog.process_names:
            assert name in catalog.kernel.derivations.processes

    def test_concept_dag_shape(self, catalog):
        concepts = catalog.kernel.concepts
        assert concepts.children("desert") == {
            "hot_trade_wind_desert", "ice_snow_desert"
        }
        assert concepts.parents("landsat_tm") == {"remote_sensing_data"}

    def test_concept_class_mappings_match_paper(self, catalog):
        concepts = catalog.kernel.concepts
        # "the concept of 'hot trade-wind desert' [maps] to the set of
        # (non-primitive) classes {C2, C3, C4, C5}"
        assert concepts.classes_of("hot_trade_wind_desert") == {
            "desert_rain250_c2", "desert_rain200_c3",
            "desert_aridity_c4", "desert_smoothed_c5",
        }
        # "NDVI mapping to the class set {C6}"
        assert concepts.classes_of("ndvi_concept") == {"ndvi_c6"}
        # "Vegetation Change Mapping to the set of classes {C7, C8}"
        assert concepts.classes_of("vegetation_change") == {
            "veg_change_pca_c7", "veg_change_spca_c8",
        }

    def test_derived_classes_name_their_process(self, catalog):
        classes = catalog.kernel.classes
        assert classes.get("land_cover_c20").derived_by == "P20"
        assert classes.get("desert_rain250_c2").derived_by == "P2"
        assert classes.get("landsat_tm_rectified").is_base

    def test_every_concept_member_is_retrievable(self, catalog):
        [result] = catalog.connection.execute("SELECT FROM vegetation_change")
        assert {obj.class_name for obj in result.objects} == {
            "veg_change_pca_c7", "veg_change_spca_c8"
        }


class TestFigure3:
    def test_source_parses_to_paper_structure(self):
        stmt = parse_statement(FIGURE3_SOURCE)
        assert isinstance(stmt, DefineProcess)
        assert stmt.name == "unsupervised-classification"
        assert len(stmt.assertions) == 3
        assert dict(stmt.mappings)["numclass"].value == 12

    def test_process_executes_on_synthetic_tm(self, scene_generator,
                                              africa_box, jan_1986):
        connection = build_figure3()
        for band, image in zip(("red", "nir", "green"),
                               scene_generator.scene("africa", 1986, 1)):
            connection.kernel.store.store("landsat_tm_rect", {
                "band": band, "data": image,
                "spatialextent": africa_box, "timestamp": jan_1986,
            })
        [result] = connection.execute("SELECT FROM land_cover")
        assert result.path == "derive"
        cover = result.object if hasattr(result, "object") else \
            result.objects[0]
        assert cover["numclass"] == 12
        assert int(cover["data"].data.max()) <= 11

    def test_anyof_transfers_extents_invariantly(self, scene_generator,
                                                 africa_box, jan_1986):
        connection = build_figure3()
        for band, image in zip(("red", "nir", "green"),
                               scene_generator.scene("africa", 1986, 1)):
            connection.kernel.store.store("landsat_tm_rect", {
                "band": band, "data": image,
                "spatialextent": africa_box, "timestamp": jan_1986,
            })
        [result] = connection.execute("SELECT FROM land_cover")
        cover = result.objects[0]
        assert cover["spatialextent"] == africa_box
        assert cover["timestamp"] == jan_1986


class TestFigure4:
    def test_network_shape(self, operators):
        net = build_figure4(operators)
        assert net.input_names == ["images"]
        assert len(net.node_names) == 5
        assert ("to_matrices", "covariance") in net.edges()
        assert ("eigenvector", "combined") in net.edges()

    def test_network_equals_direct_pca(self, operators, scene_generator):
        net = build_figure4(operators)
        images = [scene_generator.band("africa", y, 7, "nir")
                  for y in (1986, 1987, 1988, 1989)]
        network_out = net.execute(images=images)
        direct, _ = pca(images, 1)
        assert np.allclose(network_out[0].data, direct[0].data, atol=1e-5)

    def test_registrable_as_compound_operator(self, operators,
                                              scene_generator):
        net = build_figure4(operators, name="pca_fig4")
        net.as_operator("setof image")
        images = [scene_generator.band("africa", y, 7, "nir")
                  for y in (1986, 1987)]
        out = operators.apply("pca_fig4", images)
        assert len(out) == 1


class TestFigure5:
    def test_compound_end_to_end(self):
        catalog = build_figure2()
        populate_scenes(catalog, size=16, years=(1988, 1989))
        name = build_figure5(catalog)
        kernel = catalog.kernel
        scenes = kernel.store.objects("landsat_tm_rectified")
        early = [o for o in scenes if o["timestamp"].year == 1988]
        late = [o for o in scenes if o["timestamp"].year == 1989]
        result = kernel.derivations.execute_compound(
            name, {"tm_early": early, "tm_late": late}
        )
        assert result.output.class_name == "land_cover_changes_c21"
        lineage = kernel.provenance.lineage(result.output.oid)
        assert lineage.depth == 2
        assert lineage.processes_used() == ["P20", "P20", "P21"]
        # The change mask actually flags change (seasonal signal differs).
        assert float(np.mean(result.output["data"].data)) > 0.0
