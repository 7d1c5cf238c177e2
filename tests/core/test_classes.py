"""Tests for non-primitive classes and the class store."""

import numpy as np
import pytest

from repro.adt import Image
from repro.core import NonPrimitiveClass
from repro.errors import (
    ClassAlreadyDefinedError,
    DerivationError,
    SpatialError,
    UnknownClassError,
)
from repro.spatial import Box
from repro.temporal import AbsTime


LANDCOVER = NonPrimitiveClass(
    name="landcover",
    attributes=(
        ("area", "char16"),
        ("numclass", "int4"),
        ("data", "image"),
        ("spatialextent", "box"),
        ("timestamp", "abstime"),
    ),
    derived_by="unsupervised-classification",
)


def _values(area="africa", x=0.0, day=0):
    return {
        "area": area,
        "numclass": 12,
        "data": Image.from_array(np.zeros((4, 4)), "int2"),
        "spatialextent": Box(x, 0, x + 10, 10),
        "timestamp": AbsTime(day),
    }


class TestDefinition:
    def test_describe_matches_paper_layout(self):
        text = LANDCOVER.describe()
        assert text.startswith("CLASS landcover (")
        assert "SPATIAL EXTENT:" in text
        assert "TEMPORAL EXTENT:" in text
        assert "DERIVED BY: unsupervised-classification" in text

    def test_base_vs_derived(self):
        assert not LANDCOVER.is_base
        base = NonPrimitiveClass(
            name="tm", attributes=(("data", "image"),),
            spatial_attr=None, temporal_attr=None,
        )
        assert base.is_base

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(DerivationError):
            NonPrimitiveClass(
                name="bad", attributes=(("a", "int4"), ("a", "int4")),
                spatial_attr=None, temporal_attr=None,
            )

    def test_extent_attr_must_be_defined(self):
        with pytest.raises(DerivationError):
            NonPrimitiveClass(
                name="bad", attributes=(("a", "int4"),),
                spatial_attr="spatialextent", temporal_attr=None,
            )

    def test_type_of(self):
        assert LANDCOVER.type_of("numclass") == "int4"
        with pytest.raises(DerivationError):
            LANDCOVER.type_of("ghost")


class TestRegistry:
    def test_define_and_get(self, kernel):
        kernel.classes.define(LANDCOVER)
        assert kernel.classes.get("landcover").name == "landcover"
        assert "landcover" in kernel.classes

    def test_duplicate_rejected(self, kernel):
        kernel.classes.define(LANDCOVER)
        with pytest.raises(ClassAlreadyDefinedError):
            kernel.classes.define(LANDCOVER)

    def test_unknown(self, kernel):
        with pytest.raises(UnknownClassError):
            kernel.classes.get("ghost")

    def test_unknown_attribute_type_rejected(self, kernel):
        bad = NonPrimitiveClass(
            name="bad", attributes=(("a", "ghost_type"),),
            spatial_attr=None, temporal_attr=None,
        )
        with pytest.raises(Exception):
            kernel.classes.define(bad)

    def test_base_and_derived_listing(self, kernel):
        kernel.classes.define(LANDCOVER)
        assert LANDCOVER in kernel.classes.derived_classes()
        assert LANDCOVER not in kernel.classes.base_classes()


class TestStore:
    @pytest.fixture()
    def stored(self, kernel):
        kernel.derivations.define_class(LANDCOVER)
        return kernel.store.store("landcover", _values())

    def test_store_assigns_oid(self, stored):
        assert stored.oid == 1
        assert stored["numclass"] == 12

    def test_get_by_oid(self, kernel, stored):
        again = kernel.store.get(stored.oid)
        assert again.values == stored.values

    @pytest.mark.parametrize("scope", ["autocommit", "transaction",
                                       "reader pin"])
    def test_store_writes_and_returns_without_reading_back(
            self, kernel, stored, monkeypatch, scope):
        """One write path: validate, insert, return the tuple the engine
        stored — no snapshot taken and no row fetched, whatever the
        scope, and the same values a later get() reads.  A view (writer
        transaction, or a reader's pinned snapshot) sees its own
        writes; nobody else sees the writer's before commit."""
        from repro.core.classes import View
        from repro.storage import StorageEngine, TransactionManager
        calls = []

        def counted(real, name):
            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for owner, name in ((TransactionManager, "snapshot"),
                            (StorageEngine, "fetch")):
            monkeypatch.setattr(owner, name,
                                counted(getattr(owner, name), name))
        store = kernel.store
        tx = store.begin_transaction() if scope == "transaction" else None
        view = View(store, tx)  # its snapshot predates the writes below
        calls.clear()
        if scope == "autocommit":
            obj = store.store("landcover", _values("asia", day=3))
        else:
            with view.entered():
                obj = store.store("landcover", _values("asia", day=3))
                assert store.get(obj.oid) == obj  # its own write
        # Only the get() under the view above read anything back.
        assert calls == ([] if scope == "autocommit" else ["fetch"])
        assert obj["area"] == "asia" and obj.oid == stored.oid + 1
        if scope == "transaction":
            with pytest.raises(UnknownClassError):
                store.get(obj.oid)  # uncommitted: invisible elsewhere
            store.commit_transaction(tx)
        assert store.get(obj.oid) == obj

    def test_get_unknown_oid(self, kernel, stored):
        with pytest.raises(UnknownClassError):
            kernel.store.get(999)

    def test_missing_attribute_rejected(self, kernel, stored):
        values = _values()
        del values["numclass"]
        with pytest.raises(DerivationError):
            kernel.store.store("landcover", values)

    def test_extra_attribute_rejected(self, kernel, stored):
        values = _values()
        values["bogus"] = 1
        with pytest.raises(DerivationError):
            kernel.store.store("landcover", values)

    @pytest.mark.parametrize("extent", [(float("nan"), 0, 10, 10),
                                        (0, 0, float("inf"), 10)])
    def test_non_finite_extent_rejected(self, kernel, stored, extent):
        values = _values()
        values["spatialextent"] = extent
        with pytest.raises(SpatialError):
            kernel.store.store("landcover", values)
        assert kernel.store.count("landcover") == 1
        found = kernel.store.find("landcover", spatial=Box(-20, -35, 52, 38))
        assert [o.oid for o in found] == [stored.oid]

    def test_find_spatial(self, kernel, stored):
        kernel.store.store("landcover", _values(x=100.0))
        found = kernel.store.find("landcover", spatial=Box(-1, -1, 11, 11))
        assert [o.oid for o in found] == [stored.oid]

    def test_find_temporal(self, kernel, stored):
        kernel.store.store("landcover", _values(day=100))
        found = kernel.store.find("landcover", temporal=AbsTime(0))
        assert [o.oid for o in found] == [stored.oid]

    def test_find_with_predicate(self, kernel, stored):
        kernel.store.store("landcover", _values(area="asia"))
        found = [o for o in kernel.store.find("landcover")
                 if o["area"] == "asia"]
        assert len(found) == 1 and found[0]["area"] == "asia"

    def test_count_and_objects(self, kernel, stored):
        assert kernel.store.count("landcover") == 1
        assert len(kernel.store.objects("landcover")) == 1

    def test_accessor_functions(self, kernel, stored):
        area_of = kernel.store.accessor("landcover", "area")
        assert area_of(stored) == "africa"

    def test_accessor_rejects_other_class(self, kernel, stored):
        kernel.derivations.define_class(NonPrimitiveClass(
            name="other", attributes=(("area", "char16"),),
            spatial_attr=None, temporal_attr=None,
        ))
        other = kernel.store.store("other", {"area": "x"})
        area_of = kernel.store.accessor("landcover", "area")
        with pytest.raises(DerivationError):
            area_of(other)

    def test_accessor_unknown_attribute(self, kernel, stored):
        with pytest.raises(DerivationError):
            kernel.store.accessor("landcover", "ghost")

    def test_sciobject_getitem_error(self, stored):
        with pytest.raises(DerivationError):
            stored["ghost"]
        assert stored.get("ghost", 5) == 5
