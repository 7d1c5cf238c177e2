"""The metadata manager — the Gaea kernel facade (paper Figure 1).

Wires the three semantic layers together exactly as Figure 1 draws them:

* **data type/operator manager** — the ADT registries (system level);
* **derivation manager** — classes, processes, tasks, the derivation net
  (liaison layer);
* **experiment manager** — concepts and experiments (high level);

all on top of the storage engine (the POSTGRES-backend substitute).
:func:`open_kernel` builds a ready-to-use kernel; the query interpreter
(:mod:`repro.query`) executes against this facade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..adt import make_standard_registries
from ..adt.operators import OperatorRegistry
from ..adt.registry import TypeRegistry
from ..spatial.box import Box
from ..storage.engine import StorageEngine
from .classes import ClassRegistry, ClassStore
from .concepts import ConceptHierarchy
from .experiments import ExperimentManager
from .manager import DerivationManager
from .planner import RetrievalPlanner
from .provenance import ProvenanceBrowser

__all__ = ["MetadataManager", "open_kernel", "WORLD"]

#: Default spatial universe: the whole long/lat world.
WORLD = Box(-180.0, -90.0, 180.0, 90.0)


@dataclass
class MetadataManager:
    """The three-layer metadata manager plus its substrate handles."""

    types: TypeRegistry
    operators: OperatorRegistry
    engine: StorageEngine
    classes: ClassRegistry
    store: ClassStore
    derivations: DerivationManager
    concepts: ConceptHierarchy
    experiments: ExperimentManager
    planner: RetrievalPlanner
    provenance: ProvenanceBrowser = field(init=False)

    def __post_init__(self) -> None:
        self.provenance = ProvenanceBrowser(
            tasks=self.derivations.tasks, store=self.store
        )

    def schema_version(self) -> tuple[int, int, int, int, int]:
        """A cheap version stamp of everything plans depend on.

        Classes, processes and compounds are add-only (processes are
        immutable per §2.1.4), so their counts suffice; the concept
        hierarchy can gain ISA edges and members, so it contributes its
        own revision counter; the storage catalog's index version covers
        CREATE/DROP INDEX, whose access-path choices are baked into
        cached plans.  Plan caches compare this stamp to decide whether a
        cached plan is still meaningful.
        """
        return (
            len(self.classes.names()),
            len(self.derivations.processes.names())
            + len(self.derivations.compounds.names()),
            len(self.concepts.names()),
            self.concepts.revision,
            self.engine.catalog.index_version,
        )

    # -- component tree (FIG-1 regeneration) -----------------------------------

    def component_tree(self) -> dict[str, object]:
        """The architecture of Figure 1 as a nested mapping.

        Benchmarks verify this against the paper's component list; the
        'visual environment' box is out of scope (a UI) and the
        interpreter is attached by :class:`repro.query.client.Connection`.
        """
        return {
            "GAEA KERNEL": {
                "Meta-Data Manager": {
                    "Data Type/Operator Manager": {
                        "primitive_classes": len(self.types),
                        "operators": len(self.operators.names()),
                    },
                    "Derivation Manager": {
                        "classes": len(self.classes.names()),
                        "processes": len(self.derivations.processes.names()),
                        "compound_processes": len(
                            self.derivations.compounds.names()
                        ),
                        "tasks": len(self.derivations.tasks),
                    },
                    "Experiment Manager": {
                        "concepts": len(self.concepts.names()),
                        "experiments": len(self.experiments),
                    },
                },
            },
            "POSTGRES BACKEND (substitute)": {
                "relations": len(self.engine.relations()),
                "wal_records": len(self.engine.wal),
            },
        }

    def describe(self) -> str:
        """Readable dump of the kernel's current contents."""
        lines = ["Gaea kernel"]

        def render(node: dict[str, object], depth: int) -> None:
            for key, value in node.items():
                if isinstance(value, dict):
                    lines.append("  " * depth + f"{key}:")
                    render(value, depth + 1)
                else:
                    lines.append("  " * depth + f"{key}: {value}")

        render(self.component_tree(), 1)
        return "\n".join(lines)


def open_kernel(universe: Box = WORLD) -> MetadataManager:
    """Create a fresh Gaea kernel with standard types and operators.

    *universe* bounds the spatial indexes (the study region; defaults to
    the whole world in long/lat).
    """
    types, operators = make_standard_registries()
    engine = StorageEngine(types=types)
    classes = ClassRegistry(types=types)
    store = ClassStore(engine=engine, registry=classes, universe=universe)
    derivations = DerivationManager(
        classes=classes, store=store, operators=operators
    )
    concepts = ConceptHierarchy()
    experiments = ExperimentManager(derivations=derivations, concepts=concepts)
    planner = RetrievalPlanner(manager=derivations)
    return MetadataManager(
        types=types,
        operators=operators,
        engine=engine,
        classes=classes,
        store=store,
        derivations=derivations,
        concepts=concepts,
        experiments=experiments,
        planner=planner,
    )
