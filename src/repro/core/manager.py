"""The derivation manager: executing processes and recording tasks.

This is the "liaison layer" of Figure 1/2 — it owns class definitions,
process definitions (primitive and compound), the task log, and the
derivation net derived from them.  Executing a process:

1. checks the bindings and template assertions,
2. evaluates the mappings through the operator registry,
3. stores the resulting object in the class store, and
4. records a :class:`~repro.core.tasks.Task`.

Repeated instantiations over the same inputs are *memoized* through the
task log (reuse of previously performed experiments, paper §1) unless the
caller opts out.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Callable

from ..adt.operators import OperatorRegistry
from ..errors import (
    CompoundExpansionError,
    GaeaError,
    InteractionRequiredError,
    TaskExecutionError,
    UnknownClassError,
)
from .classes import ClassRegistry, ClassStore, NonPrimitiveClass, SciObject
from .compound import CompoundProcess, CompoundRegistry
from .derivation import Bindings, Process, ProcessRegistry
from .petri import DerivationNet
from .tasks import Task, TaskLog

__all__ = ["DerivationManager", "DerivationResult"]


@dataclass(frozen=True)
class DerivationResult:
    """Outcome of a process execution: the object plus its task record.

    ``reused`` is True when the result came from the task log instead of
    recomputation.
    """

    output: SciObject
    task: Task
    reused: bool


@dataclass
class DerivationManager:
    """Owner of the derivation-semantics layer."""

    classes: ClassRegistry
    store: ClassStore
    operators: OperatorRegistry
    processes: ProcessRegistry = field(init=False)
    compounds: CompoundRegistry = field(default_factory=CompoundRegistry)
    tasks: TaskLog = field(default_factory=TaskLog)
    #: ``derivation_net()``'s result and the registry sizes it was built
    #: at (both registries only ever grow).
    _net: tuple[tuple[int, int], DerivationNet] | None = field(
        default=None, init=False, repr=False, compare=False)
    #: Called with the ids of the tasks each rollback discards (held
    #: weakly, like the store's rollback hooks; not pickled: owners
    #: re-register on load).
    _discard_hooks: list[weakref.WeakMethod] = field(
        default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.processes = ProcessRegistry(classes=self.classes)
        self.store.on_rollback(self._discard_tasks)

    def __getstate__(self) -> dict:
        """Kernel checkpoints cannot pickle operator implementations; the
        registry is dropped here and re-attached by
        :func:`repro.core.persistence.load_kernel`."""
        state = self.__dict__.copy()
        state["operators"] = None
        state["_discard_hooks"] = []
        return state

    def _discard_tasks(self, oids: list[int]) -> None:
        dropped = self.tasks.discard_outputs(oids)
        for ref in self._discard_hooks if dropped else ():
            if (hook := ref()) is not None:
                hook(dropped)

    def on_discard(self, hook: Callable[[set[int]], None]) -> None:
        """Run the bound method *hook* with the ids of the tasks each
        rollback discards, while its object lives."""
        self._discard_hooks.append(weakref.WeakMethod(hook))

    # -- definitions -----------------------------------------------------------

    def define_class(self, cls: NonPrimitiveClass) -> NonPrimitiveClass:
        """Define a non-primitive class and materialize its storage."""
        defined = self.classes.define(cls)
        self.store.materialize(defined)
        return defined

    def define_process(self, process: Process) -> Process:
        """Define a primitive process."""
        return self.processes.define(process)

    def define_compound(self, compound: CompoundProcess) -> CompoundProcess:
        """Define a compound process."""
        for arg in compound.arguments:
            self.classes.get(arg.class_name)
        self.classes.get(compound.output_class)
        return self.compounds.define(compound)

    def derivation_net(self) -> DerivationNet:
        """The class-level derivation net over all primitive processes:
        built once per registry change and shared, so treat it as
        read-only."""
        sizes = (len(self.processes.names()), len(self.classes.names()))
        if self._net is None or self._net[0] != sizes:
            self._net = (sizes, DerivationNet.from_processes(self.processes))
        return self._net[1]

    # -- execution -----------------------------------------------------------------

    def execute_process(self, process_name: str, bindings: Bindings,
                        reuse: bool = True,
                        interaction_handler: Callable[[str, str], Any]
                        | None = None,
                        parameter_overrides: dict[str, Any] | None = None
                        ) -> DerivationResult:
        """Instantiate a primitive process over bound objects (a *task*).

        With ``reuse`` (default) a completed task over identical inputs —
        and, for interactive processes, identical resolved parameters —
        short-circuits to its recorded output object: the latest such
        task whose output the current view sees.

        Interactive processes (§4.3 extension) resolve their interaction
        parameters through ``interaction_handler(name, prompt)`` unless
        ``parameter_overrides`` already supplies them (the replay path);
        without either, :class:`InteractionRequiredError` reproduces the
        paper's original limitation.
        """
        process = self.processes.get(process_name)
        overrides = dict(parameter_overrides or {})
        for name, prompt in process.interactions.items():
            if name in overrides:
                continue
            if interaction_handler is None:
                raise InteractionRequiredError(
                    f"process {process_name!r} needs interactive "
                    f"parameter {name!r} ({prompt}); supply an "
                    "interaction_handler"
                )
            overrides[name] = interaction_handler(name, prompt)
        resolved = dict(process.parameters)
        resolved.update(overrides)

        if reuse:
            for memoized in self.tasks.memoized(process_name, bindings):
                if not memoized.output_oids or (
                        process.is_interactive
                        and memoized.parameters != resolved):
                    continue
                try:
                    return DerivationResult(
                        output=self.store.get(memoized.output_oids[0]),
                        task=memoized, reused=True)
                except UnknownClassError:
                    continue  # not visible to the current view
        try:
            attributes = process.evaluate(bindings, self.operators,
                                          parameter_overrides=overrides)
            output = self.store.store(process.output_class, attributes)
        except GaeaError as exc:
            self.tasks.record_failure(process_name, bindings, error=str(exc))
            raise
        task = self.tasks.record(
            process_name, bindings, output_oids=(output.oid,),
            parameters=resolved,
        )
        return DerivationResult(output=output, task=task, reused=False)

    def execute_compound(self, compound_name: str, bindings: Bindings,
                         reuse: bool = True) -> DerivationResult:
        """Expand a compound process and execute its primitive steps.

        'A compound process cannot be directly applied, but must be
        expanded into its primitive processes before actual derivation
        takes place' (§2.1.4).  Returns the output step's result.
        """
        compound = self.compounds.get(compound_name)
        for arg in compound.arguments:
            if arg.name not in bindings:
                raise CompoundExpansionError(
                    f"compound {compound_name!r}: argument {arg.name!r} "
                    "unbound"
                )
        steps = compound.expand(self.processes, self.compounds)
        produced: dict[str, SciObject] = {}
        result: DerivationResult | None = None
        for step in steps:
            step_bindings: Bindings = {}
            for arg_name, source in step.bindings.items():
                if source.startswith("@"):
                    step_bindings[arg_name] = bindings[source[1:]]
                else:
                    step_bindings[arg_name] = produced[source]
            result = self.execute_process(step.process, step_bindings,
                                          reuse=reuse)
            produced[step.label] = result.output
        if result is None:
            raise CompoundExpansionError(
                f"compound {compound_name!r} expanded to no steps"
            )
        return result

    def reproduce_task(self, task_id: int) -> DerivationResult:
        """Re-run a recorded task from its stored inputs, bypassing the
        memo — the reproducibility operation the paper motivates with the
        IDRISI comparison (§2.1.3).

        Interactive parameters replay from the task record: the scientist
        is *not* prompted again, which is exactly what makes interactive
        derivations reproducible.
        """
        task = self.tasks.get(task_id)
        if not task.succeeded:
            raise TaskExecutionError(
                f"task {task_id} failed originally; nothing to reproduce"
            )
        if "__external_procedure__" in task.parameters:
            raise TaskExecutionError(
                f"task {task_id} records a non-applicative (external) "
                "procedure; it is browsable but not re-executable — "
                f"procedure: {task.parameters['__external_procedure__']!r}"
            )
        if "__interpolation__" in task.parameters:
            from .interpolation import replay_interpolation_task

            output = replay_interpolation_task(self, task)
            fresh = self.tasks.producer_of(output.oid)
            assert fresh is not None
            return DerivationResult(output=output, task=fresh, reused=False)
        process = self.processes.get(task.process_name)
        bindings: Bindings = {}
        for arg in process.arguments:
            oids = task.input_oids[arg.name]
            objects = [self.store.get(oid) for oid in oids]
            bindings[arg.name] = objects if arg.is_set else objects[0]
        return self.execute_process(
            task.process_name, bindings, reuse=False,
            parameter_overrides=dict(task.parameters),
        )
