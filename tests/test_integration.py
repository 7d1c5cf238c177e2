"""Cross-layer integration tests: the full Gaea loop.

Each test exercises several layers at once — GaeaQL through the
interpreter, the planner over the Petri net, process execution through
the ADT operators, storage with indexes and WAL underneath.
"""

import numpy as np
import pytest

from repro.errors import UnderivableError
from repro.figures import (
    AFRICA,
    build_figure2,
    build_figure5,
    populate_scenes,
)
from repro.storage import StorageEngine
from repro.temporal import AbsTime


@pytest.fixture()
def catalog():
    catalog = build_figure2()
    populate_scenes(catalog, seed=21, size=16, years=(1988, 1989))
    return catalog


class TestFullDerivationLoop:
    def test_deep_chain_derives_transitively(self, catalog):
        """desert_smoothed_c5 needs desert_rain250_c2 which needs rainfall:
        one query fires the whole chain."""
        [result] = catalog.connection.execute("SELECT FROM desert_smoothed_c5")
        assert result.path == "derive"
        assert result.details["plan_steps"] == ["P2", "P5"]
        lineage = catalog.kernel.provenance.lineage(result.objects[0].oid)
        assert lineage.processes_used() == ["P2", "P5"]
        assert lineage.depth == 2

    def test_derivation_persists_to_storage(self, catalog):
        catalog.connection.execute("SELECT FROM desert_rain250_c2")
        relation = catalog.kernel.store.relation_for("desert_rain250_c2")
        rows = list(catalog.kernel.engine.scan(relation))
        assert len(rows) == 1

    def test_memoization_across_query_paths(self, catalog):
        """SELECT-derive then RUN with the same inputs reuses the task."""
        [first] = catalog.connection.execute("SELECT FROM desert_rain250_c2")
        producer = catalog.kernel.provenance.tasks.producer_of(
            first.objects[0].oid
        )
        rain_oid = producer.input_oids["rain"][0]
        [rerun] = catalog.connection.execute(
            f"RUN P2 WITH rain = ({rain_oid})"
        )
        assert rerun.details["reused"]
        assert rerun.objects[0].oid == first.objects[0].oid

    def test_temporal_query_separates_years(self, catalog):
        [r88] = catalog.connection.execute(
            "SELECT FROM land_cover_c20 WHERE timestamp = '1988-07-01'"
        )
        [r89] = catalog.connection.execute(
            "SELECT FROM land_cover_c20 WHERE timestamp = '1989-07-01'"
        )
        assert r88.objects[0]["timestamp"] == AbsTime.from_ymd(1988, 7, 1)
        assert r89.objects[0]["timestamp"] == AbsTime.from_ymd(1989, 7, 1)
        assert r88.objects[0].oid != r89.objects[0].oid

    def test_interpolation_between_derived_years(self, catalog):
        for year in (1988, 1989):
            catalog.connection.execute(
                f"SELECT FROM ndvi_c6 WHERE timestamp = '{year}-07-01'"
            )
        [mid] = catalog.connection.execute(
            "SELECT FROM ndvi_c6 WHERE timestamp = '1989-01-01'"
        )
        assert mid.path == "interpolate"
        lo = catalog.kernel.store.find(
            "ndvi_c6", temporal=AbsTime.from_ymd(1988, 7, 1))[0]
        hi = catalog.kernel.store.find(
            "ndvi_c6", temporal=AbsTime.from_ymd(1989, 7, 1))[0]
        got = mid.objects[0]["data"].data
        assert float(got.min()) >= min(float(lo["data"].data.min()),
                                       float(hi["data"].data.min())) - 1e-6
        assert float(got.max()) <= max(float(lo["data"].data.max()),
                                       float(hi["data"].data.max())) + 1e-6


class TestExperimentReproducibility:
    def test_experiment_reproduces_bitwise(self, catalog):
        kernel = catalog.kernel
        experiment = kernel.experiments.begin(
            name="land-cover-1988", concepts=set(),
        )
        [result] = catalog.connection.execute(
            "SELECT FROM land_cover_c20 WHERE timestamp = '1988-07-01'"
        )
        producer = kernel.derivations.tasks.producer_of(
            result.objects[0].oid
        )
        experiment.add_task(producer.task_id)
        [rerun] = kernel.experiments.reproduce(experiment.experiment_id)
        assert rerun.output["data"] == result.objects[0]["data"]

    def test_compound_lineage_survives_wal_recovery(self, catalog):
        """After a crash, the recovered storage still holds every object
        the compound derivation created."""
        kernel = catalog.kernel
        build_figure5(catalog)
        scenes = kernel.store.objects("landsat_tm_rectified")
        early = [o for o in scenes if o["timestamp"].year == 1988]
        late = [o for o in scenes if o["timestamp"].year == 1989]
        result = kernel.derivations.execute_compound(
            "land-change-detection", {"tm_early": early, "tm_late": late}
        )
        relation = kernel.store.relation_for("land_cover_changes_c21")
        recovered = StorageEngine.recover(kernel.engine.wal, kernel.types)
        rows = list(recovered.scan(relation))
        assert len(rows) == 1
        assert np.array_equal(rows[0]["data"].data,
                              result.output["data"].data)


class TestConceptLevelQueries:
    def test_desert_concept_query_covers_all_derivations(self, catalog):
        [result] = catalog.connection.execute(
            "SELECT FROM hot_trade_wind_desert"
        )
        classes = {obj.class_name for obj in result.objects}
        assert classes == {
            "desert_rain250_c2", "desert_rain200_c3",
            "desert_aridity_c4", "desert_smoothed_c5",
        }

    def test_different_cutoffs_classify_differently(self, catalog):
        [d250] = catalog.connection.execute("SELECT FROM desert_rain250_c2")
        [d200] = catalog.connection.execute("SELECT FROM desert_rain200_c3")
        m250 = d250.objects[0]["data"].data != 0
        m200 = d200.objects[0]["data"].data != 0
        # 200 mm deserts are a strict subset of 250 mm deserts here.
        assert np.all(~m200 | m250)
        assert m250.sum() > m200.sum()

    def test_provenance_distinguishes_the_variants(self, catalog):
        [d250] = catalog.connection.execute("SELECT FROM desert_rain250_c2")
        [d200] = catalog.connection.execute("SELECT FROM desert_rain200_c3")
        assert catalog.kernel.provenance.same_concept_different_derivation(
            d250.objects[0].oid, d200.objects[0].oid
        )


class TestFailureHandling:
    def test_underivable_when_no_base_data(self):
        empty = build_figure2()
        with pytest.raises(UnderivableError):
            empty.connection.execute("SELECT FROM land_cover_c20")

    def test_failed_tasks_are_recorded(self, catalog):
        kernel = catalog.kernel
        scenes = kernel.store.objects("landsat_tm_rectified")[:2]
        with pytest.raises(Exception):
            kernel.derivations.execute_process("P20", {"bands": scenes})
        assert len(kernel.derivations.tasks.failed()) == 1

    def test_spatial_mismatch_query(self, catalog):
        from repro.spatial import Box

        with pytest.raises(UnderivableError):
            catalog.kernel.planner.retrieve(
                "land_cover_c20", spatial=Box(500, 500, 510, 510)
            )
