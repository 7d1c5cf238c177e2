"""What one deriving statement reads, structurally (no wall clock).

The §2.1.5 step-3 path asks the Petri marking instead of building it:
the backward search probes a place the first time it reads it, each
probe asks the timeline/grid for the exact-extent matches before any
any-time read, counts build no :class:`SciObject`, and the derivation
net is built once per registry change.  These tests pin that down on
the Figure-2 catalog by counting — scans, objects built, net builds —
and show the answer is the one a fully built marking gives.
"""

import numpy as np
import pytest

from repro.core import Apply, Argument, AttrRef, Literal, NonPrimitiveClass
from repro.core import Process
from repro.core.classes import SciObject
from repro.core.petri import DerivationNet
from repro.figures import build_figure2, populate_scenes
from repro.temporal import AbsTime

FIRST_YEAR = 1950
SQL = "SELECT FROM land_cover_c20 WHERE timestamp = ?"


def figure2(years):
    catalog = build_figure2()
    populate_scenes(catalog, seed=11, size=8,
                    years=tuple(range(FIRST_YEAR, FIRST_YEAR + years)))
    return catalog


def stamp_of(years):
    """1 July of a year in the middle of the stored range."""
    return AbsTime.from_ymd(FIRST_YEAR + years // 2, 7, 1)


@pytest.fixture()
def counted(monkeypatch):
    """Counts of ``SciObject``s built and derivation nets built."""
    counts = {"objects": 0, "nets": 0}
    build_object = SciObject.__init__
    build_net = DerivationNet.from_processes

    def counting_object(self, *args, **kwargs):
        counts["objects"] += 1
        build_object(self, *args, **kwargs)

    def counting_net(processes):
        counts["nets"] += 1
        return build_net(processes)

    monkeypatch.setattr(SciObject, "__init__", counting_object)
    monkeypatch.setattr(DerivationNet, "from_processes",
                        staticmethod(counting_net))
    return counts


def derive_by_select(years, counted):
    """Run the deriving SELECT on a fresh catalog; returns the catalog,
    the derived object, its task, the scan log and the counts."""
    catalog = figure2(years)
    store = catalog.kernel.store
    cursor = catalog.connection.cursor()
    store.scan_log = []
    counted.update(objects=0, nets=0)
    (cover,) = cursor.execute(SQL, [stamp_of(years)]).fetchall()
    (task,) = catalog.kernel.derivations.tasks
    return catalog, cover, task, list(store.scan_log), dict(counted)


def full_marking(catalog, temporal):
    """The marking as it used to be built: every catalog class read in
    full, exact-time matches preferred, any-time count otherwise."""
    marking = {}
    for name in catalog.kernel.classes.names():
        cls = catalog.kernel.classes.get(name)
        objs = catalog.kernel.store.find(name)
        exact = [o for o in objs if cls.temporal_attr is not None
                 and o[cls.temporal_attr] == temporal]
        marking[name] = len(exact or objs)
    return marking


@pytest.mark.parametrize("years", [5, 40])
class TestOneDerivingStatement:
    def test_scans_only_the_classes_the_plan_visits(self, years, counted):
        catalog, _, task, scans, _ = derive_by_select(years, counted)
        net = catalog.kernel.derivations.derivation_net()
        visited = {"land_cover_c20"} | {
            arc.place for arc in net.transition(task.process_name).inputs}
        assert visited == {"land_cover_c20", "landsat_tm_rectified"}
        assert {entry[0] for entry in scans} <= visited
        # the target's stored scan, the marking probe, the binding read
        assert len(scans) <= 4

    def test_builds_the_net_at_most_once(self, years, counted):
        _, _, _, _, counts = derive_by_select(years, counted)
        assert counts["nets"] <= 1

    def test_same_answer_as_a_fully_built_marking(self, years, counted):
        """Same plan, same task record, same pixels as deriving through
        the planner API on an identical catalog — and the plan is the
        one the eager all-classes marking yields."""
        stamp = stamp_of(years)
        catalog, cover, task, _, _ = derive_by_select(years, counted)
        twin = figure2(years)
        eager = full_marking(twin, stamp)
        plan = twin.kernel.derivations.derivation_net().backward_plan(
            "land_cover_c20", eager)
        result = twin.kernel.planner.derive("land_cover_c20", temporal=stamp)
        assert result.plan_steps == plan.steps == ("P20",)
        (twin_task,) = result.tasks
        for field in ("process_name", "input_oids", "output_oids",
                      "parameters"):
            assert getattr(task, field) == getattr(twin_task, field)
        assert sorted(task.input_oids["bands"]) == [
            o.oid for o in catalog.kernel.store.find(
                "landsat_tm_rectified", temporal=stamp)]
        assert cover.oid == result.object.oid
        assert np.array_equal(cover["data"].data,
                              result.object["data"].data)


def test_objects_built_do_not_grow_with_the_stored_years(counted):
    """5 or 40 stored years, one deriving statement builds the same few
    objects: the three bands it binds, the one it stores, the row it
    returns (443 at 40 years when the marking read every class)."""
    few = derive_by_select(5, counted)[4]["objects"]
    many = derive_by_select(40, counted)[4]["objects"]
    assert few == many
    assert many <= 8


def test_explain_probes_lazily_too(counted):
    catalog = figure2(5)
    store = catalog.kernel.store
    store.scan_log = []
    report = catalog.kernel.planner.explain("land_cover_c20",
                                            temporal=stamp_of(5))
    assert report["path"] == "derive" and report["plan"] == ["P20"]
    assert {entry[0] for entry in store.scan_log} \
        <= {"land_cover_c20", "landsat_tm_rectified"}


def test_define_process_invalidates_the_cached_net(counted):
    """A producer defined after a derivation is planned: the cached net
    is rebuilt once for the registry change, not once per statement."""
    catalog, cover, _, _, _ = derive_by_select(5, counted)
    manager = catalog.kernel.derivations
    stamp = stamp_of(5)
    manager.define_class(NonPrimitiveClass(
        name="cover_mask",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
        derived_by="PMASK",
    ))
    manager.define_process(Process(
        name="PMASK", output_class="cover_mask",
        arguments=(Argument(name="src", class_name="land_cover_c20"),),
        mappings={
            "data": Apply("img_threshold", (AttrRef("src", "data"),
                                            Literal(5.0))),
            "spatialextent": AttrRef("src", "spatialextent"),
            "timestamp": AttrRef("src", "timestamp"),
        },
    ))
    counted.update(nets=0)
    result = catalog.kernel.planner.derive("cover_mask", temporal=stamp)
    assert result.plan_steps == ("PMASK",)
    assert result.tasks[0].input_oids == {"src": (cover.oid,)}
    catalog.kernel.planner.explain("land_cover_changes_c21", temporal=stamp)
    assert counted["nets"] == 1
