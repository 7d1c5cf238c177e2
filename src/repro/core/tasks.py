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
import threading
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
    return _memo_key(process_name, _bindings_to_oids(bindings))


def _memo_key(process_name: str,
              input_oids: dict[str, tuple[int, ...]]) -> tuple:
    """:func:`bindings_key` over bound oids (a task's ``input_oids``)."""
    return (process_name, tuple((name, tuple(sorted(input_oids[name])))
                                for name in sorted(input_oids)))


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
    """Log of every task, in execution order, with memoization lookup.
    Shared by every connection: reads and updates take one lock."""

    _tasks: dict[int, Task] = field(default_factory=dict)  # by task_id
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))
    #: key -> every completed task over those inputs, oldest first (a
    #: view may not see the latest one's output but an earlier one's).
    _memo: dict[tuple, list[int]] = field(default_factory=dict)
    _by_output: dict[int, int] = field(default_factory=dict)  # oid -> task_id
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._tasks

    def __iter__(self) -> Iterator[Task]:
        with self._lock:
            return iter(list(self._tasks.values()))

    def record(self, process_name: str, bindings: Bindings,
               output_oids: tuple[int, ...],
               parameters: dict[str, Any] | None = None) -> Task:
        """Record a successful task."""
        task = Task(
            task_id=next(self._ids),
            process_name=process_name,
            input_oids=_bindings_to_oids(bindings),
            output_oids=output_oids,
            status=TaskStatus.COMPLETED,
            parameters=dict(parameters or {}),
        )
        with self._lock:
            self._tasks[task.task_id] = task
            self._memo.setdefault(_memo_key(process_name, task.input_oids),
                                  []).append(task.task_id)
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
        with self._lock:
            self._tasks[task.task_id] = task
        return task

    def discard_outputs(self, oids: list[int]) -> set[int]:
        """Forget the tasks that produced *oids*, with their memo and
        producer entries: the transaction that stored those objects
        rolled back, so the derivations never happened.  (Failure
        records have no outputs and stay.)  Earlier tasks over the same
        inputs stay memoized.  Returns the dropped task ids."""
        with self._lock:
            dropped = {self._by_output[oid] for oid in oids
                       if oid in self._by_output}
            for task_id in dropped:
                task = self._tasks.pop(task_id)
                for oid in task.output_oids:
                    if self._by_output.get(oid) == task_id:
                        del self._by_output[oid]
                key = _memo_key(task.process_name, task.input_oids)
                self._memo[key].remove(task_id)
                if not self._memo[key]:
                    del self._memo[key]
        return dropped

    def get(self, task_id: int) -> Task:
        """The task with the given id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise TaskExecutionError(f"unknown task id {task_id}") from None

    def memoized(self, process_name: str, bindings: Bindings) -> list[Task]:
        """Every completed task for the same (process, inputs), latest
        first."""
        key = bindings_key(process_name, bindings)
        with self._lock:
            return [self._tasks[t] for t in reversed(self._memo.get(key, ()))]

    def producer_of(self, oid: int) -> Task | None:
        """The task that produced object *oid* (None for base objects)."""
        with self._lock:
            return self._tasks.get(self._by_output.get(oid))

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
