"""Derivation-history graph: lineage over objects and tasks.

The availability of task records turns the database into a *derivation
diagram* over data objects, which the paper's conclusion says can be used
to "1) browse data following their derivation relationships, 2) compare
derivation procedures and their resulting data classes, and 3) derive
data not stored in the database".  (3) is the planner's job; this module
provides (1) and (2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DerivationError
from .classes import ClassStore
from .tasks import Task, TaskLog

__all__ = ["Lineage", "ProvenanceBrowser"]


@dataclass(frozen=True)
class Lineage:
    """The full derivation history of one object.

    ``steps`` is a topologically ordered list of tasks from base inputs to
    the object; ``base_oids`` are the underived inputs at the fringe.
    """

    root_oid: int
    steps: tuple[Task, ...]
    base_oids: frozenset[int]

    @property
    def depth(self) -> int:
        """Longest derivation chain length (0 for base objects)."""
        if not self.steps:
            return 0
        level: dict[int, int] = {oid: 0 for oid in self.base_oids}
        for task in self.steps:
            in_level = max(
                (level.get(oid, 0) for oid in task.all_input_oids()), default=0
            )
            for oid in task.output_oids:
                level[oid] = in_level + 1
        return level.get(self.root_oid, 0)

    def processes_used(self) -> list[str]:
        """Process names along the history, in execution order."""
        return [task.process_name for task in self.steps]

    def describe(self) -> str:
        """Multi-line rendering of the derivation history."""
        lines = [f"lineage of object {self.root_oid}:"]
        if not self.steps:
            lines.append("  (base object — supplied from outside the system)")
        for task in self.steps:
            lines.append("  " + task.describe())
        return "\n".join(lines)


@dataclass
class ProvenanceBrowser:
    """Lineage queries over a :class:`TaskLog` and :class:`ClassStore`."""

    tasks: TaskLog
    store: ClassStore

    def lineage(self, oid: int) -> Lineage:
        """Full derivation history of the stored object *oid*
        (cycle-safe); an oid that names no object raises."""
        self.store.get(oid)
        steps: list[Task] = []
        seen_tasks: set[int] = set()
        base: set[int] = set()

        def visit(current: int, trail: tuple[int, ...]) -> None:
            if current in trail:
                raise DerivationError(
                    f"derivation cycle through object {current}"
                )
            producer = self.tasks.producer_of(current)
            if producer is None:
                base.add(current)
                return
            if producer.task_id in seen_tasks:
                return
            for input_oid in sorted(producer.all_input_oids()):
                visit(input_oid, trail + (current,))
            if producer.task_id not in seen_tasks:
                seen_tasks.add(producer.task_id)
                steps.append(producer)

        visit(oid, ())
        return Lineage(root_oid=oid, steps=tuple(steps),
                       base_oids=frozenset(base))

    def derived_from(self, oid: int) -> set[int]:
        """All objects downstream of *oid* (its derived descendants)."""
        out: set[int] = set()
        frontier = [oid]
        while frontier:
            current = frontier.pop()
            for task in self.tasks.completed():
                if current in task.all_input_oids():
                    for produced in task.output_oids:
                        if produced not in out:
                            out.add(produced)
                            frontier.append(produced)
        return out

    def same_concept_different_derivation(self, oid_a: int, oid_b: int
                                          ) -> bool:
        """True when two objects were produced by *different* processes —
        the paper's §1 scenario (NDVI change by subtraction vs. by
        division): the data cannot be meaningfully compared without
        consulting exactly this predicate."""
        task_a = self.tasks.producer_of(oid_a)
        task_b = self.tasks.producer_of(oid_b)
        name_a = task_a.process_name if task_a else None
        name_b = task_b.process_name if task_b else None
        return name_a != name_b

    def compare_derivations(self, oid_a: int, oid_b: int) -> dict[str, object]:
        """Structured comparison of two objects' derivation procedures."""
        lin_a = self.lineage(oid_a)
        lin_b = self.lineage(oid_b)
        procs_a = lin_a.processes_used()
        procs_b = lin_b.processes_used()
        return {
            "oid_a": oid_a,
            "oid_b": oid_b,
            "processes_a": procs_a,
            "processes_b": procs_b,
            "identical_procedure": procs_a == procs_b,
            "shared_base_inputs": sorted(lin_a.base_oids & lin_b.base_oids),
            "depth_a": lin_a.depth,
            "depth_b": lin_b.depth,
        }
