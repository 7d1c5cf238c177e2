"""The experiment manager: the high-level semantics layer (paper §2.1.1).

"This level records the information that is necessary for the
understanding of a specific experiment."  An experiment groups the
concepts under study, the tasks performed, free-form annotations, and the
parameters a scientist chose.  The manager supports the §4.2 claims:
experiments "can be reproduced, allowing rapid and reliable confirmation
of results", and information exchange is promoted because the derivation
history travels with the experiment record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import UnknownExperimentError
from .concepts import ConceptHierarchy
from .manager import DerivationManager, DerivationResult

__all__ = ["Experiment", "ExperimentManager"]


@dataclass
class Experiment:
    """A recorded scientific experiment."""

    experiment_id: int
    name: str
    investigator: str = ""
    description: str = ""
    concepts: set[str] = field(default_factory=set)
    task_ids: list[int] = field(default_factory=list)
    parameters: dict[str, Any] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add_task(self, task_id: int) -> None:
        """Attach a derivation task to this experiment."""
        self.task_ids.append(task_id)

    def annotate(self, note: str) -> None:
        """Append a free-form annotation (monitoring the progression of
        experiments, paper §1)."""
        self.notes.append(note)

    def describe(self) -> str:
        """Multi-line summary of the experiment record."""
        lines = [
            f"experiment #{self.experiment_id}: {self.name}",
            f"  investigator: {self.investigator or '(unknown)'}",
            f"  concepts: {sorted(self.concepts) or '(none)'}",
            f"  tasks: {self.task_ids or '(none)'}",
        ]
        if self.parameters:
            lines.append(f"  parameters: {self.parameters}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


@dataclass
class ExperimentManager:
    """Registry and replay engine for experiments."""

    derivations: DerivationManager
    concepts: ConceptHierarchy
    _experiments: dict[int, Experiment] = field(default_factory=dict)
    _ids: Iterator[int] = field(default_factory=lambda: itertools.count(1))

    def __post_init__(self) -> None:
        self.derivations.on_discard(self._forget_tasks)

    def _forget_tasks(self, dropped: set[int]) -> None:
        """Drop the ids of the tasks a rollback discarded."""
        for experiment in self._experiments.values():
            experiment.task_ids[:] = [t for t in experiment.task_ids
                                      if t not in dropped]

    def begin(self, name: str, investigator: str = "",
              description: str = "",
              concepts: set[str] | None = None,
              parameters: dict[str, Any] | None = None) -> Experiment:
        """Open a new experiment record."""
        for concept in concepts or set():
            self.concepts.get(concept)
        experiment = Experiment(
            experiment_id=next(self._ids),
            name=name,
            investigator=investigator,
            description=description,
            concepts=set(concepts or set()),
            parameters=dict(parameters or {}),
        )
        self._experiments[experiment.experiment_id] = experiment
        return experiment

    def get(self, experiment_id: int) -> Experiment:
        """The experiment with the given id."""
        try:
            return self._experiments[experiment_id]
        except KeyError:
            raise UnknownExperimentError(str(experiment_id)) from None

    def __len__(self) -> int:
        return len(self._experiments)

    def all_experiments(self) -> list[Experiment]:
        """Every recorded experiment."""
        return list(self._experiments.values())

    def run_task(self, experiment: Experiment, process_name: str,
                 bindings, reuse: bool = True) -> DerivationResult:
        """Execute a process inside an experiment, recording the task."""
        result = self.derivations.execute_process(process_name, bindings,
                                                  reuse=reuse)
        experiment.add_task(result.task.task_id)
        return result

    def reproduce(self, experiment_id: int) -> list[DerivationResult]:
        """Re-run every task of an experiment from its recorded inputs.

        Returns the fresh results in original task order.  This is the
        reproducibility capability IDRISI-style file workflows lack
        (paper §2.1.3): "such an experiment can be reproduced once the
        derivation procedures are captured".
        """
        experiment = self.get(experiment_id)
        return [
            self.derivations.reproduce_task(task_id)
            for task_id in experiment.task_ids
        ]

    def experiments_on(self, concept: str) -> list[Experiment]:
        """Experiments studying *concept* (browsing support)."""
        self.concepts.get(concept)
        return [
            e for e in self._experiments.values() if concept in e.concepts
        ]
