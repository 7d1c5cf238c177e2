"""Kernel checkpointing: save/load a whole Gaea database.

The prototype's metadata lived in POSTGRES and survived restarts; our
substitute keeps everything in memory, so this module provides the
equivalent durability: :func:`save_kernel` checkpoints the entire kernel
(catalog, objects, processes, concepts, tasks, experiments — the lot) to
a single file and :func:`load_kernel` restores it.

The checkpoint is a pickle of the kernel object graph.  Pickle is safe
here because checkpoints are local artifacts this library itself wrote —
the same trust model as a database heap file.  A magic header and version
guard against loading foreign files.  Mapping expressions, assertions and
synthetic-scene generators are all plain dataclasses, so the graph
round-trips; the one non-picklable corner is *operator implementations*
(closures), which are re-registered on load from the standard + GIS
registries rather than serialized.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from ..errors import GaeaError
from .metadata_manager import MetadataManager

__all__ = ["save_kernel", "load_kernel", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"GAEA-CKPT-1\n"


def save_kernel(kernel: MetadataManager, path: str | Path) -> int:
    """Checkpoint *kernel* to *path*; returns bytes written.

    The operator registry's callables are stripped (re-registered on
    load); everything else — classes, stored objects, processes,
    compounds, concepts, the task log, experiments, the WAL — is saved.
    """
    state = {
        "engine": kernel.engine,
        "classes": kernel.classes,
        "store": kernel.store,
        "derivations_processes": kernel.derivations.processes,
        "derivations_compounds": kernel.derivations.compounds,
        "tasks": kernel.derivations.tasks,
        "concepts": kernel.concepts,
        "experiments": kernel.experiments,
        "universe": kernel.store.universe,
    }
    payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    path = Path(path)
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(payload)
    return len(CHECKPOINT_MAGIC) + len(payload)


def load_kernel(path: str | Path) -> MetadataManager:
    """Restore a kernel from a checkpoint written by :func:`save_kernel`.

    Operators are rebuilt from the standard + GIS registrations against
    the restored type registry, so processes resolve their operators
    exactly as before the checkpoint.
    """
    from ..adt.builtin_ops import register_builtin_operators
    from ..adt.operators import OperatorRegistry
    from ..gis import register_gis_operators
    from .experiments import ExperimentManager
    from .manager import DerivationManager
    from .planner import RetrievalPlanner

    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise GaeaError(f"{path} is not a Gaea checkpoint")
        try:
            state = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError) as exc:
            raise GaeaError(f"checkpoint {path} is corrupt: {exc}") from exc

    engine = state["engine"]
    types = engine.types
    operators = OperatorRegistry(types=types)
    register_builtin_operators(operators)
    register_gis_operators(operators)

    derivations = DerivationManager(
        classes=state["classes"], store=state["store"], operators=operators,
    )
    # __post_init__ created fresh registries; restore the saved ones.
    derivations.processes = state["derivations_processes"]
    derivations.compounds = state["derivations_compounds"]
    derivations.tasks = state["tasks"]

    saved: ExperimentManager = state["experiments"]
    # Constructed afresh (not unpickled as is) so it registers its
    # discard hook with the restored derivation manager.
    experiments = ExperimentManager(
        derivations=derivations, concepts=state["concepts"],
        _experiments=saved._experiments, _ids=saved._ids,
    )

    planner = RetrievalPlanner(manager=derivations)
    return MetadataManager(
        types=types,
        operators=operators,
        engine=engine,
        classes=state["classes"],
        store=state["store"],
        derivations=derivations,
        concepts=state["concepts"],
        experiments=experiments,
        planner=planner,
    )
