"""A complete global-change study, end to end.

The scenario the paper's introduction motivates, run as one test class:
two investigators study vegetation change and desertification in two
regions over three years, sharing one Gaea database.  Exercises every
layer together: GaeaQL DDL, base-data loading, concept-level queries that
trigger multi-step derivations, cross-scientist comparison through
provenance, experiment recording/reproduction, checkpointing, and the
WAL surviving a simulated crash.
"""

import numpy as np
import pytest

import repro
from repro.core import load_kernel, save_kernel
from repro.figures import AFRICA, build_figure2, build_figure5, populate_scenes
from repro.storage import StorageEngine
from repro.temporal import AbsTime


@pytest.fixture(scope="class")
def study():
    catalog = build_figure2()
    populate_scenes(catalog, seed=101, size=24, years=(1987, 1988, 1989))
    build_figure5(catalog)
    return catalog


class TestGlobalChangeStudy:
    def test_01_base_inventory(self, study):
        kernel = study.kernel
        assert kernel.store.count("landsat_tm_rectified") == 9  # 3y x 3 bands
        assert kernel.store.count("avhrr_scene") == 6
        assert kernel.store.count("rainfall_annual") == 3

    def test_02_vegetation_change_both_ways(self, study):
        """Investigator A derives PCA change, investigator B SPCA change;
        the concept query returns both and provenance tells them apart."""
        [result] = study.connection.execute("SELECT FROM vegetation_change")
        by_class = {obj.class_name: obj for obj in result.objects}
        assert set(by_class) == {"veg_change_pca_c7", "veg_change_spca_c8"}
        kernel = study.kernel
        assert kernel.provenance.same_concept_different_derivation(
            by_class["veg_change_pca_c7"].oid,
            by_class["veg_change_spca_c8"].oid,
        )
        report = kernel.provenance.compare_derivations(
            by_class["veg_change_pca_c7"].oid,
            by_class["veg_change_spca_c8"].oid,
        )
        # Both consumed the same NDVI snapshots (shared base AVHRR).
        assert report["shared_base_inputs"]

    def test_03_ndvi_supply_reused(self, study):
        """Deriving C7 created NDVI snapshots; C8's derivation reused
        them rather than re-deriving (task count tells)."""
        p6_tasks = study.kernel.derivations.tasks.tasks_of_process("P6")
        # Two snapshots needed, derived exactly once each.
        assert len([t for t in p6_tasks if t.succeeded]) == 2

    def test_04_desert_definitions_disagree(self, study):
        [result] = study.connection.execute(
            "SELECT FROM hot_trade_wind_desert"
        )
        fractions = {
            obj.class_name: float(np.mean(obj["data"].data != 0))
            for obj in result.objects
        }
        assert len(fractions) == 4
        assert fractions["desert_rain250_c2"] > fractions["desert_rain200_c3"]

    def test_05_land_change_compound(self, study):
        kernel = study.kernel
        scenes = kernel.store.objects("landsat_tm_rectified")
        early = [o for o in scenes if o["timestamp"].year == 1987]
        late = [o for o in scenes if o["timestamp"].year == 1989]
        result = kernel.derivations.execute_compound(
            "land-change-detection", {"tm_early": early, "tm_late": late}
        )
        lineage = kernel.provenance.lineage(result.output.oid)
        assert lineage.processes_used() == ["P20", "P20", "P21"]

    def test_06_experiment_recorded_and_reproduced(self, study):
        kernel = study.kernel
        experiment = kernel.experiments.begin(
            name="sahel-study-8789",
            investigator="qiu",
            concepts={"vegetation_change", "hot_trade_wind_desert"},
            parameters={"years": "1987-1989"},
        )
        for class_name in ("veg_change_pca_c7", "desert_rain250_c2"):
            obj = kernel.store.objects(class_name)[0]
            producer = kernel.derivations.tasks.producer_of(obj.oid)
            experiment.add_task(producer.task_id)
        reruns = kernel.experiments.reproduce(experiment.experiment_id)
        assert len(reruns) == 2
        assert all(not r.reused for r in reruns)

    def test_07_interpolated_mid_year(self, study):
        [result] = study.connection.execute(
            "SELECT FROM ndvi_c6 WHERE timestamp = '1988-01-01'"
        )
        assert result.path == "interpolate"
        assert result.objects[0]["timestamp"] == AbsTime.from_ymd(1988, 1, 1)

    def test_08_checkpoint_roundtrip(self, study, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "study.ckpt"
        save_kernel(study.kernel, path)
        restored = load_kernel(path)
        assert len(restored.derivations.tasks) == \
            len(study.kernel.derivations.tasks)
        # Restored kernel still answers the concept query by retrieval.
        tasks = len(restored.derivations.tasks)
        [result] = repro.connect(kernel=restored).execute(
            "SELECT FROM vegetation_change"
        )
        assert result.path == "retrieve"
        assert len(restored.derivations.tasks) == tasks

    def test_09_wal_survives_crash(self, study):
        engine = study.kernel.engine
        recovered = StorageEngine.recover(engine.wal, study.kernel.types)
        for relation in engine.relations():
            live = sum(1 for _ in engine.scan(relation))
            replayed = sum(1 for _ in recovered.scan(relation))
            assert live == replayed, relation

    def test_10_task_log_is_the_audit_trail(self, study):
        """Every derived object in the database has a producing task; no
        orphan derivations exist (the §1 sharing guarantee)."""
        kernel = study.kernel
        for cls in kernel.classes.derived_classes():
            for obj in kernel.store.objects(cls.name):
                producer = kernel.derivations.tasks.producer_of(obj.oid)
                assert producer is not None, (cls.name, obj.oid)
