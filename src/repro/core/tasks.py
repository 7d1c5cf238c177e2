"""Tasks: object-level derivation records (paper §2.1.2, §2.1.5).

"The instantiation of a process with input data objects is called a task.
Every task will generate a set of objects (most of the time just one) for
the output class."  Tasks are the object-level half of the derivation
relationship: the class level is a template (a *process*), the data-object
level "will record the actual derivation relationship among data objects".

The :class:`TaskLog` keeps every task whose outputs exist — a task whose
transaction rolled back is discarded with the objects it produced — and
supports memoization: re-deriving the same process over
the same inputs returns the recorded result instead of recomputing —
"experiment management also helps avoid unnecessary duplication of
experiments" (paper §1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from ..errors import TaskExecutionError
from .derivation import Bindings

__all__ = ["TaskStatus", "Task", "TaskLog", "bindings_key"]


class TaskStatus(Enum):
    """Lifecycle of a task."""

    COMPLETED = "completed"
    FAILED = "failed"


def bindings_key(process_name: str, bindings: Bindings) -> tuple:
    """A hashable identity for (process, input objects).

    Input objects are identified by oid; SETOF arguments are order
    insensitive (a set of bands is a set).  Process parameters do not
    appear because they are part of process identity already (§2.1.2).
    """
    parts: list[tuple[str, tuple[int, ...]]] = []
    for arg_name in sorted(bindings):
        bound = bindings[arg_name]
        if isinstance(bound, list):
            oids = tuple(sorted(obj.oid for obj in bound))
        else:
            oids = (bound.oid,)
        parts.append((arg_name, oids))
    return (process_name, tuple(parts))


@dataclass(frozen=True)
class Task:
    """One recorded process instantiation."""

    task_id: int
    process_name: str
    input_oids: dict[str, tuple[int, ...]]  # argument name -> bound oids
    output_oids: tuple[int, ...]
    status: TaskStatus
    error: str = ""
    parameters: dict[str, Any] = field(default_factory=dict)

    @property
    def succeeded(self) -> bool:
        """True for completed tasks."""
        return self.status is TaskStatus.COMPLETED

    def all_input_oids(self) -> set[int]:
        """Every input oid across all arguments."""
        out: set[int] = set()
        for oids in self.input_oids.values():
            out |= set(oids)
        return out

    def describe(self) -> str:
        """One-line human-readable record."""
        ins = ", ".join(
            f"{name}={list(oids)}" for name, oids in sorted(self.input_oids.items())
        )
        return (
            f"task #{self.task_id}: {self.process_name}({ins}) -> "
            f"{list(self.output_oids)} [{self.status.value}]"
        )


@dataclass
class TaskLog:
    """Log of every task, in execution order, with memoization lookup."""

    _tasks: dict[int, Task] = field(default_factory=dict)  # by task_id
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    _memo: dict[tuple, int] = field(default_factory=dict)  # key -> task_id
    _by_output: dict[int, int] = field(default_factory=dict)  # oid -> task_id

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def record(self, process_name: str, bindings: Bindings,
               output_oids: tuple[int, ...],
               parameters: dict[str, Any] | None = None) -> Task:
        """Record a successful task."""
        input_oids = _bindings_to_oids(bindings)
        task = Task(
            task_id=next(self._ids),
            process_name=process_name,
            input_oids=input_oids,
            output_oids=output_oids,
            status=TaskStatus.COMPLETED,
            parameters=dict(parameters or {}),
        )
        self._tasks[task.task_id] = task
        self._memo[bindings_key(process_name, bindings)] = task.task_id
        for oid in output_oids:
            self._by_output[oid] = task.task_id
        return task

    def record_failure(self, process_name: str, bindings: Bindings,
                       error: str) -> Task:
        """Record a failed instantiation (failures are knowledge too)."""
        task = Task(
            task_id=next(self._ids),
            process_name=process_name,
            input_oids=_bindings_to_oids(bindings),
            output_oids=(),
            status=TaskStatus.FAILED,
            error=error,
        )
        self._tasks[task.task_id] = task
        return task

    def discard_outputs(self, oids: list[int]) -> None:
        """Forget the tasks that produced *oids*, with their memo and
        producer entries: the transaction that stored those objects
        rolled back, so the derivations never happened.  (Failure
        records have no outputs and stay.)"""
        dropped = {self._by_output[oid] for oid in oids
                   if oid in self._by_output}
        if not dropped:
            return
        for task_id in dropped:
            del self._tasks[task_id]
        self._memo = {key: task_id for key, task_id in self._memo.items()
                      if task_id not in dropped}
        self._by_output = {oid: task_id
                           for oid, task_id in self._by_output.items()
                           if task_id not in dropped}

    def get(self, task_id: int) -> Task:
        """The task with the given id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskExecutionError(f"unknown task id {task_id}") from None

    def find_memoized(self, process_name: str, bindings: Bindings
                      ) -> Task | None:
        """A previously completed task for the same (process, inputs)."""
        task_id = self._memo.get(bindings_key(process_name, bindings))
        return None if task_id is None else self.get(task_id)

    def producer_of(self, oid: int) -> Task | None:
        """The task that produced object *oid* (None for base objects)."""
        task_id = self._by_output.get(oid)
        return None if task_id is None else self.get(task_id)

    def tasks_of_process(self, process_name: str) -> list[Task]:
        """All tasks instantiating *process_name*."""
        return [t for t in self if t.process_name == process_name]

    def completed(self) -> list[Task]:
        """All successful tasks."""
        return [t for t in self if t.succeeded]

    def failed(self) -> list[Task]:
        """All failed tasks."""
        return [t for t in self if not t.succeeded]


def _bindings_to_oids(bindings: Bindings) -> dict[str, tuple[int, ...]]:
    out: dict[str, tuple[int, ...]] = {}
    for name, bound in bindings.items():
        if isinstance(bound, list):
            out[name] = tuple(obj.oid for obj in bound)
        else:
            out[name] = (bound.oid,)
    return out
