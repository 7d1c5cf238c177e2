"""Tests for kernel checkpointing (save/load)."""

import numpy as np
import pytest

from repro.core import NonPrimitiveClass, load_kernel, save_kernel
from repro.core.classes import View
from repro.errors import GaeaError
from repro.figures import build_figure2, build_figure5, populate_scenes
from repro.spatial import Box


@pytest.fixture()
def populated():
    catalog = build_figure2()
    populate_scenes(catalog, seed=67, size=16, years=(1988, 1989))
    build_figure5(catalog)
    catalog.connection.execute("SELECT FROM desert_rain250_c2")
    return catalog


class TestRoundtrip:
    def test_save_and_load(self, populated, tmp_path):
        path = tmp_path / "gaea.ckpt"
        written = save_kernel(populated.kernel, path)
        assert written > 0
        restored = load_kernel(path)
        assert restored.classes.names() == populated.kernel.classes.names()
        assert restored.derivations.processes.names() == \
            populated.kernel.derivations.processes.names()
        assert restored.concepts.names() == populated.kernel.concepts.names()
        assert len(restored.derivations.tasks) == \
            len(populated.kernel.derivations.tasks)

    def test_objects_survive(self, populated, tmp_path):
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        restored = load_kernel(path)
        original = populated.kernel.store.objects("desert_rain250_c2")[0]
        reloaded = restored.store.objects("desert_rain250_c2")[0]
        assert np.array_equal(original["data"].data, reloaded["data"].data)

    def test_restored_kernel_derives(self, populated, tmp_path):
        """A restored kernel is fully operational: operators re-registered,
        planner works, new derivations record tasks."""
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        restored = load_kernel(path)
        result = restored.planner.retrieve("desert_rain200_c3")
        assert result.path == "derive"
        assert restored.derivations.tasks.producer_of(
            result.objects[0].oid
        ) is not None

    def test_restored_kernel_discards_rolled_back_tasks(self, populated,
                                                        tmp_path):
        """The store's rollback hooks are not pickled; the restored
        derivation and experiment managers re-register, against the
        restored log and experiments."""
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        restored = load_kernel(path)
        before = len(restored.derivations.tasks)
        experiment = restored.experiments.begin(name="study")
        rain = restored.store.objects("rainfall_annual")[0]
        tx = restored.store.begin_transaction()
        with View(restored.store, tx).entered():
            result = restored.planner.retrieve("desert_rain200_c3")
            restored.experiments.run_task(experiment, "P2", {"rain": rain},
                                          reuse=False)
        assert len(restored.derivations.tasks) == before + 2
        restored.store.rollback_transaction(tx)
        assert len(restored.derivations.tasks) == before
        assert restored.derivations.tasks.producer_of(
            result.objects[0].oid) is None
        assert experiment.task_ids == []

    def test_memoization_survives(self, populated, tmp_path):
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        restored = load_kernel(path)
        # Re-deriving the already-derived desert reuses the saved task.
        rain = restored.store.objects("rainfall_annual")[0]
        result = restored.derivations.execute_process("P2", {"rain": rain})
        assert result.reused

    def test_grid_probe_survives(self, kernel, tmp_path):
        """A probe answers the same after a round trip, and the restored
        index serves new inserts into cells probed before the save."""
        kernel.derivations.define_class(NonPrimitiveClass(
            name="site", attributes=(("serial", "int4"),
                                     ("spatialextent", "box")),
            temporal_attr=None))
        for i in range(60):  # a 10 x 6 lattice of small extents
            x, y = -20 + (i % 10) * 7, -35 + (i // 10) * 12
            extent = Box(x, y, x + 5, y + 5)
            kernel.store.store("site", {"serial": i,
                                        "spatialextent": extent})
        kernel.store.store("site", {"serial": 60,
                                    "spatialextent": Box(-30, -40, 60, 40)})
        probe = Box(-10, -15, 20, 20)

        def probed(k):
            return sorted(o["serial"] for o in k.store.find("site",
                                                             spatial=probe))

        before = probed(kernel)
        assert 60 in before and len(before) > 5
        save_kernel(kernel, tmp_path / "gaea.ckpt")
        restored = load_kernel(tmp_path / "gaea.ckpt")
        assert probed(restored) == before
        restored.store.store("site", {"serial": 61,
                                      "spatialextent": Box(4, 4, 5, 5)})
        assert probed(restored) == sorted(before + [61])

    def test_compounds_survive(self, populated, tmp_path):
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        restored = load_kernel(path)
        assert "land-change-detection" in restored.derivations.compounds


class TestValidation:
    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not_a_ckpt"
        path.write_bytes(b"hello world")
        with pytest.raises(GaeaError):
            load_kernel(path)

    def test_rejects_truncated_checkpoint(self, populated, tmp_path):
        path = tmp_path / "gaea.ckpt"
        save_kernel(populated.kernel, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GaeaError):
            load_kernel(path)
