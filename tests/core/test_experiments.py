"""Tests for the experiment manager (high-level layer)."""

import numpy as np
import pytest

from repro import connect
from repro.adt import Image
from repro.core import Apply, Argument, AttrRef, Literal, NonPrimitiveClass, Process
from repro.errors import UnknownConceptError, UnknownExperimentError
from repro.spatial import Box
from repro.temporal import AbsTime


@pytest.fixture()
def lab(kernel):
    kernel.derivations.define_class(NonPrimitiveClass(
        name="raw",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
    ))
    kernel.derivations.define_class(NonPrimitiveClass(
        name="product",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
        derived_by="refine",
    ))
    kernel.derivations.define_process(Process(
        name="refine", output_class="product",
        arguments=(Argument(name="src", class_name="raw"),),
        mappings={
            "data": Apply("img_scale", (AttrRef("src", "data"), Literal(3.0))),
            "spatialextent": AttrRef("src", "spatialextent"),
            "timestamp": AttrRef("src", "timestamp"),
        },
    ))
    kernel.concepts.define("refined_stuff")
    raw = kernel.store.store("raw", {
        "data": Image.from_array(np.ones((2, 2)), "float4"),
        "spatialextent": Box(0, 0, 1, 1),
        "timestamp": AbsTime(0),
    })
    return kernel, raw


class TestLifecycle:
    def test_begin_and_get(self, lab):
        kernel, _ = lab
        exp = kernel.experiments.begin(
            name="study-1", investigator="qiu",
            concepts={"refined_stuff"}, parameters={"k": 12},
        )
        assert kernel.experiments.get(exp.experiment_id) is exp
        assert len(kernel.experiments) == 1

    def test_unknown_concept_rejected(self, lab):
        kernel, _ = lab
        with pytest.raises(UnknownConceptError):
            kernel.experiments.begin(name="bad", concepts={"ghost"})

    def test_unknown_experiment(self, lab):
        kernel, _ = lab
        with pytest.raises(UnknownExperimentError):
            kernel.experiments.get(99)

    def test_annotations(self, lab):
        kernel, _ = lab
        exp = kernel.experiments.begin(name="study")
        exp.annotate("first pass looks noisy")
        assert "first pass looks noisy" in exp.describe()


class TestRunAndReproduce:
    def test_run_task_records_in_experiment(self, lab):
        kernel, raw = lab
        exp = kernel.experiments.begin(name="study")
        result = kernel.experiments.run_task(exp, "refine", {"src": raw})
        assert exp.task_ids == [result.task.task_id]

    def test_reproduce_reruns_all_tasks(self, lab):
        kernel, raw = lab
        exp = kernel.experiments.begin(name="study")
        original = kernel.experiments.run_task(exp, "refine", {"src": raw})
        rerun = kernel.experiments.reproduce(exp.experiment_id)
        assert len(rerun) == 1
        assert rerun[0].output["data"] == original.output["data"]
        assert rerun[0].output.oid != original.output.oid  # fresh object
        assert not rerun[0].reused

    def test_experiments_on_concept(self, lab):
        kernel, _ = lab
        exp = kernel.experiments.begin(name="s1", concepts={"refined_stuff"})
        kernel.experiments.begin(name="s2")
        found = kernel.experiments.experiments_on("refined_stuff")
        assert [e.experiment_id for e in found] == [exp.experiment_id]

    def test_memoized_rerun_within_experiment(self, lab):
        kernel, raw = lab
        exp = kernel.experiments.begin(name="study")
        first = kernel.experiments.run_task(exp, "refine", {"src": raw})
        second = kernel.experiments.run_task(exp, "refine", {"src": raw})
        assert second.reused
        assert second.output.oid == first.output.oid
        # Both runs recorded in the experiment (the scientist did ask twice).
        assert exp.task_ids == [first.task.task_id, first.task.task_id]

    def test_rollback_forgets_the_tasks_it_discards(self, lab):
        """A task run inside a rolled-back transaction never happened:
        the experiment forgets its id, so reproduce() re-runs only the
        tasks whose outputs exist."""
        kernel, raw = lab
        conn = connect(kernel=kernel)
        exp = kernel.experiments.begin(name="study")
        kept = kernel.experiments.run_task(exp, "refine", {"src": raw})
        conn.begin()
        kernel.experiments.run_task(exp, "refine", {"src": raw}, reuse=False)
        conn.rollback()
        assert exp.task_ids == [kept.task.task_id]
        [rerun] = kernel.experiments.reproduce(exp.experiment_id)
        assert rerun.output["data"] == kept.output["data"]
