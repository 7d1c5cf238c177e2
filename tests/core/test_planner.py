"""Tests for the retrieval planner (retrieve → interpolate → derive)."""

import numpy as np
import pytest

from repro.adt import Image
from repro.core import NonPrimitiveClass, RetrievalPlanner
from repro.errors import DerivationError, UnderivableError
from repro.figures import AFRICA
from repro.spatial import Box
from repro.temporal import AbsTime


@pytest.fixture()
def world(kernel):
    """Base 'field' class and derived 'mask' class with a process."""
    kernel.derivations.define_class(NonPrimitiveClass(
        name="field",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
    ))
    kernel.derivations.define_class(NonPrimitiveClass(
        name="mask",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
        derived_by="maskify",
    ))
    from repro.core import Apply, Argument, AttrRef, Literal, Process

    kernel.derivations.define_process(Process(
        name="maskify", output_class="mask",
        arguments=(Argument(name="src", class_name="field"),),
        mappings={
            "data": Apply("img_threshold", (AttrRef("src", "data"),
                                            Literal(0.5))),
            "spatialextent": AttrRef("src", "spatialextent"),
            "timestamp": AttrRef("src", "timestamp"),
        },
    ))
    return kernel


def _field(kernel, day=0, x=0.0, value=1.0, size=4):
    return kernel.store.store("field", {
        "data": Image.from_array(np.full((size, size), value), "float4"),
        "spatialextent": Box(x, 0, x + 10, 10),
        "timestamp": AbsTime(day),
    })


class TestDirectRetrieval:
    def test_stored_object_retrieved(self, world):
        obj = _field(world, day=5)
        result = world.planner.retrieve("field", temporal=AbsTime(5))
        assert result.path == "retrieve"
        assert result.object.oid == obj.oid

    def test_spatial_filter(self, world):
        _field(world, x=0.0)
        _field(world, x=40.0)
        result = world.planner.retrieve("field", spatial=Box(41, 1, 45, 5))
        assert result.path == "retrieve"
        assert len(result.objects) == 1

    def test_result_object_accessor_raises_on_plural(self, world):
        _field(world, day=1)
        _field(world, day=1, x=1.0)
        result = world.planner.retrieve("field", temporal=AbsTime(1))
        with pytest.raises(DerivationError):
            result.object


class TestInterpolation:
    def test_interpolates_between_snapshots(self, world):
        _field(world, day=0, value=0.0)
        _field(world, day=10, value=10.0)
        result = world.planner.retrieve("field", temporal=AbsTime(4))
        assert result.path == "interpolate"
        img = result.object["data"]
        assert np.allclose(img.data, 4.0, atol=1e-5)
        assert result.object["timestamp"] == AbsTime(4)

    def test_interpolated_object_is_stored(self, world):
        _field(world, day=0, value=0.0)
        _field(world, day=10, value=10.0)
        world.planner.retrieve("field", temporal=AbsTime(4))
        again = world.planner.retrieve("field", temporal=AbsTime(4))
        assert again.path == "retrieve"

    def test_no_bracket_no_interpolation(self, world):
        _field(world, day=0)
        with pytest.raises(UnderivableError):
            world.planner.retrieve("field", temporal=AbsTime(99))

    def test_derived_class_interpolation_priority(self, world):
        """A derived class with snapshots around the target interpolates
        before deriving (default fallback order)."""
        src = _field(world, day=0, value=0.0)
        world.derivations.execute_process("maskify", {"src": src})
        src2 = _field(world, day=10, value=0.9)
        world.derivations.execute_process("maskify", {"src": src2})
        result = world.planner.retrieve("mask", temporal=AbsTime(5))
        assert result.path == "interpolate"


class TestDerivation:
    def test_derives_when_missing(self, world):
        _field(world, day=3)
        result = world.planner.retrieve("mask", temporal=AbsTime(3))
        assert result.path == "derive"
        assert result.plan_steps == ("maskify",)
        assert len(result.tasks) == 1

    def test_underivable_without_base_data(self, world):
        with pytest.raises(UnderivableError):
            world.planner.retrieve("mask")

    def test_fallback_order_respected(self, world):
        planner = RetrievalPlanner(manager=world.derivations,
                                   fallback_order=("derive", "interpolate"))
        src = _field(world, day=0, value=0.0)
        world.derivations.execute_process("maskify", {"src": src})
        src2 = _field(world, day=10, value=0.9)
        world.derivations.execute_process("maskify", {"src": src2})
        _field(world, day=5)
        result = planner.retrieve("mask", temporal=AbsTime(5))
        assert result.path == "derive"

    def test_bad_fallback_order_rejected(self, world):
        with pytest.raises(DerivationError):
            RetrievalPlanner(manager=world.derivations,
                             fallback_order=("magic",))

    def test_derivation_records_tasks(self, world):
        _field(world)
        result = world.planner.retrieve("mask")
        producer = world.derivations.tasks.producer_of(result.object.oid)
        assert producer is not None
        assert producer.process_name == "maskify"


class TestBindingSearch:
    def test_distinct_objects_for_same_class_scalars(self, figure2_catalog):
        """P6 (NDVI) takes two avhrr_scene arguments; the planner must
        bind the red scene and the nir scene, not the same object twice."""
        kernel = figure2_catalog.kernel
        result = kernel.planner.retrieve("ndvi_c6")
        task = result.tasks[0] if result.tasks else \
            kernel.derivations.tasks.producer_of(result.objects[0].oid)
        red_oid = task.input_oids["red"][0]
        nir_oid = task.input_oids["nir"][0]
        assert red_oid != nir_oid
        assert kernel.store.get(red_oid)["band"] == "red"
        assert kernel.store.get(nir_oid)["band"] == "nir"

    def test_threshold_demand_fires_producer_repeatedly(self, figure2_catalog):
        """P7 needs >= 2 NDVI snapshots; deriving vegetation change from
        scratch must fire P6 twice over distinct year pairs."""
        kernel = figure2_catalog.kernel
        result = kernel.planner.retrieve("veg_change_pca_c7")
        assert result.path == "derive"
        stamps = {str(o["timestamp"]) for o in kernel.store.objects("ndvi_c6")}
        assert len(stamps) == 2


class TestExplain:
    def test_explain_paths(self, world):
        assert world.planner.explain("mask")["path"] == "unsatisfiable"
        _field(world, day=0)
        assert world.planner.explain("mask")["path"] == "derive"
        _field(world, day=10)
        exp = world.planner.explain("field", temporal=AbsTime(5))
        assert exp["path"] == "interpolate"
        obj = world.store.find("field", temporal=AbsTime(0))[0]
        exp = world.planner.explain("field", temporal=AbsTime(0))
        assert exp["path"] == "retrieve"
        assert "matches" not in exp  # the first stored match answers
        # Every explanation reports the physical access path it priced.
        assert "access" in exp
        assert obj is not None

    def test_explain_has_no_side_effects(self, world):
        _field(world)
        before = len(world.derivations.tasks)
        world.planner.explain("mask")
        assert len(world.derivations.tasks) == before
        assert world.store.count("mask") == 0
