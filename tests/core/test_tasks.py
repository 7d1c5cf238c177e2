"""Tests for tasks and the task log."""

import sys
import threading

import numpy as np
import pytest

from repro import connect
from repro.adt import Image
from repro.core import (
    Apply,
    Argument,
    AttrRef,
    Literal,
    NonPrimitiveClass,
    Process,
    TaskStatus,
    bindings_key,
)
from repro.errors import TaskExecutionError
from repro.spatial import Box
from repro.temporal import AbsTime


SRC = NonPrimitiveClass(
    name="src", attributes=(("data", "image"), ("spatialextent", "box"),
                            ("timestamp", "abstime")),
)


@pytest.fixture()
def setup(kernel):
    kernel.derivations.define_class(SRC)
    objs = [
        kernel.store.store("src", {
            "data": Image.from_array(np.full((2, 2), float(i)), "float4"),
            "spatialextent": Box(0, 0, 1, 1),
            "timestamp": AbsTime(i),
        })
        for i in range(4)
    ]
    return kernel, objs


class TestBindingsKey:
    def test_set_arguments_order_insensitive(self, setup):
        _, objs = setup
        key_a = bindings_key("P", {"xs": [objs[0], objs[1]]})
        key_b = bindings_key("P", {"xs": [objs[1], objs[0]]})
        assert key_a == key_b

    def test_different_objects_different_key(self, setup):
        _, objs = setup
        assert bindings_key("P", {"x": objs[0]}) != \
            bindings_key("P", {"x": objs[1]})

    def test_process_name_in_key(self, setup):
        _, objs = setup
        assert bindings_key("P", {"x": objs[0]}) != \
            bindings_key("Q", {"x": objs[0]})


class TestTaskLog:
    def test_record_and_get(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        task = log.record("P", {"x": objs[0]}, output_oids=(99,))
        assert log.get(task.task_id) is task
        assert task.succeeded
        assert task.all_input_oids() == {objs[0].oid}

    def test_get_unknown(self, kernel):
        with pytest.raises(TaskExecutionError):
            kernel.derivations.tasks.get(42)

    def test_memoization_lookup(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        task = log.record("P", {"xs": [objs[0], objs[1]]}, output_oids=(99,))
        assert log.memoized("P", {"xs": [objs[1], objs[0]]}) == [task]
        assert log.memoized("P", {"xs": [objs[0], objs[2]]}) == []

    def test_producer_of(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        task = log.record("P", {"x": objs[0]}, output_oids=(99,))
        assert log.producer_of(99) is task
        assert log.producer_of(objs[0].oid) is None

    def test_failures_recorded(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        failure = log.record_failure("P", {"x": objs[0]}, error="boom")
        assert failure.status is TaskStatus.FAILED
        assert not failure.succeeded
        assert log.failed() == [failure]
        assert log.completed() == []
        # Failures never memoize.
        assert log.memoized("P", {"x": objs[0]}) == []

    def test_tasks_of_process(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        log.record("P", {"x": objs[0]}, output_oids=(90,))
        log.record("Q", {"x": objs[1]}, output_oids=(91,))
        assert len(log.tasks_of_process("P")) == 1

    def test_describe(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        task = log.record("P", {"x": objs[0]}, output_oids=(99,))
        text = task.describe()
        assert "P(" in text and "[completed]" in text

    def test_discard_returns_the_dropped_task_ids(self, setup):
        kernel, objs = setup
        log = kernel.derivations.tasks
        kept = log.record("P", {"x": objs[0]}, output_oids=(90,))
        gone = log.record("P", {"x": objs[1]}, output_oids=(91, 92))
        assert log.discard_outputs([92, 93]) == {gone.task_id}
        assert [task.task_id for task in log] == [kept.task_id]
        assert log.producer_of(91) is None
        assert log.memoized("P", {"x": objs[1]}) == []
        assert log.discard_outputs([92]) == set()

    def test_discard_leaves_earlier_tasks_over_the_same_inputs(self, setup):
        """Every completed task stays memoized, latest first: dropping
        the latest brings the earlier one back."""
        kernel, objs = setup
        log = kernel.derivations.tasks
        first = log.record("P", {"xs": [objs[0], objs[1]]}, output_oids=(90,))
        second = log.record("P", {"xs": [objs[1], objs[0]]},
                            output_oids=(91,))
        assert log.memoized("P", {"xs": [objs[0], objs[1]]}) \
            == [second, first]
        assert log.discard_outputs([91]) == {second.task_id}
        assert log.memoized("P", {"xs": [objs[1], objs[0]]}) == [first]
        assert log.producer_of(90) is first


class TestTaskLogUnderConcurrency:
    YEARS = 24

    @pytest.fixture()
    def years(self, kernel):
        kernel.derivations.define_class(SRC)
        kernel.derivations.define_class(NonPrimitiveClass(
            name="product", attributes=SRC.attributes, derived_by="refine"))
        kernel.derivations.define_process(Process(
            name="refine", output_class="product",
            arguments=(Argument(name="src", class_name="src"),),
            mappings={
                "data": Apply("img_scale",
                              (AttrRef("src", "data"), Literal(2.0))),
                "spatialextent": AttrRef("src", "spatialextent"),
                "timestamp": AttrRef("src", "timestamp"),
            },
        ))
        return kernel, [
            kernel.store.store("src", {
                "data": Image.from_array(np.full((2, 2), float(year)),
                                         "float4"),
                "spatialextent": Box(0, 0, 1, 1),
                "timestamp": AbsTime.from_ymd(1950 + year, 7, 1),
            })
            for year in range(self.YEARS)
        ]

    def test_a_rollback_beside_committing_writers_loses_no_task(
            self, years):
        """Writers derive distinct years — two commit, one rolls back
        over and over (more threads than cores).  Each discard happens
        under the log's lock, in place, so every task the others commit
        stays memoized."""
        kernel, scenes = years
        mine, theirs = scenes[0::3] + scenes[1::3], scenes[2::3]
        log = kernel.derivations.tasks
        # A long history: a discard that rebuilt the memo would walk it
        # all, a wide window for a record from another writer to land in.
        history = 20_000
        for i in range(history):
            log.record(f"earlier{i}", {"src": scenes[0]}, output_oids=())
        derive = kernel.derivations.execute_process
        committed = {}
        errors = []

        def committing(share):
            conn = connect(kernel=kernel)
            for scene in share:
                conn.begin()
                committed[scene.oid] = derive("refine", {"src": scene})
                conn.commit()

        def rolling_back():
            conn = connect(kernel=kernel)
            for _ in range(12):
                conn.begin()
                for scene in theirs:
                    derive("refine", {"src": scene})
                conn.rollback()

        def guarded(body, *args):
            def run():
                try:
                    body(*args)
                except Exception as exc:  # noqa: BLE001 — reported below
                    errors.append(exc)
            return threading.Thread(target=run)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave as finely as possible
        try:
            threads = [guarded(committing, mine[0::2]),
                       guarded(committing, mine[1::2]),
                       guarded(rolling_back)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(committed) == len(mine) == len(log) - history
        for scene in mine:
            task = committed[scene.oid].task
            assert log.memoized("refine", {"src": scene}) == [task]
            assert log.producer_of(task.output_oids[0]) is task
        for scene in theirs:
            assert log.memoized("refine", {"src": scene}) == []
