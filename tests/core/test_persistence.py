"""Tests for kernel checkpointing (save/load)."""

import numpy as np
import pytest

from repro.core import load_kernel, save_kernel
from repro.core.classes import View
from repro.errors import GaeaError
from repro.figures import build_figure2, build_figure5, populate_scenes


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
