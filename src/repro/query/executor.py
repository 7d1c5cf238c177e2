"""The GaeaQL executor: plan nodes → operator trees → results.

A SELECT or DERIVE has one operator tree (:mod:`repro.query.operators`),
compiled per execution from the cached logical plan by
:class:`repro.query.physical.PhysicalPlanner`: a stored-data scan under
a ``FallbackSwitch`` whose ``Fallback`` leaf hands §2.1.5 steps 2–3 to
the retrieval planner only when nothing stored covers the extents, a
concept source as one cost-ordered ``ConceptUnion``, the algebra
operators on top.  :meth:`Executor.iter_group` streams that tree's
batches — :class:`repro.query.client.Cursor` slices its rows off them —
:meth:`Executor.execute` drains it into a :class:`QueryResult`, and
EXPLAIN renders it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.classes import NonPrimitiveClass, SciObject
from ..core.compound import CompoundProcess, Step
from ..core.derivation import Argument, Process
from ..errors import BindError, ExecutionError
from ..core.metadata_manager import MetadataManager
from .ast import (
    BoxTemplate,
    CreateIndex,
    DefineClass,
    DefineCompound,
    DefineConcept,
    DefineProcess,
    DropIndex,
    LineageQuery,
    Param,
    RunProcess,
    Show,
    Statement,
)
from .batch import Batch
from .operators import (
    HeapScan,
    IndexOnlyScan,
    IndexScan,
    PhysicalOperator,
    Run,
    render_tree,
)
from .optimizer import (
    ExplainNode,
    PlanNode,
    QueryNode,
    RetrieveNode,
    StatementNode,
)
from .physical import PhysicalPlanner

__all__ = ["QueryResult", "Executor"]


@dataclass(frozen=True)
class QueryResult:
    """Result of one statement.

    ``kind`` is one of ``objects`` (retrievals), ``message`` (DDL and
    browsing), ``explanation`` (EXPLAIN).
    """

    kind: str
    objects: tuple[SciObject, ...] = ()
    message: str = ""
    path: str = ""
    details: dict[str, Any] = field(default_factory=dict)


def _tree_walk(op: PhysicalOperator) -> Iterator[PhysicalOperator]:
    yield op
    for child in op.children:
        yield from _tree_walk(child)


def _tree_outcome(tree: PhysicalOperator) -> tuple[str, tuple[str, ...],
                                                   str | None]:
    """``(path, plan_steps, access)`` of a drained retrieval tree, read
    off the operators' §2.1.5 outcome records."""
    path = ""
    plan_steps: tuple[str, ...] = ()
    access: str | None = None
    for op in _tree_walk(tree):
        if op.result is not None:
            path = op.result.path
            plan_steps = plan_steps or op.result.plan_steps
        if isinstance(op, (HeapScan, IndexScan, IndexOnlyScan)) \
                and access is None:
            access = op.path.describe()
    return path, plan_steps, access


@dataclass
class Executor:
    """Executes plan nodes produced by the optimizer."""

    kernel: MetadataManager
    physical: PhysicalPlanner = field(init=False)

    def __post_init__(self) -> None:
        self.physical = PhysicalPlanner(kernel=self.kernel)

    def execute(self, node: PlanNode) -> QueryResult:
        """Run one plan node to completion."""
        if isinstance(node, QueryNode):
            return self._query(node)
        if isinstance(node, ExplainNode):
            return self._explain(node)
        if isinstance(node, StatementNode):
            return self._statement(node.statement)
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # -- EXPLAIN ---------------------------------------------------------------

    def explain_node(self, node: RetrieveNode) -> tuple[str, str | None]:
        """``(logical path, access-path dump)`` for one retrieval leg,
        resolved against the store as the caller's snapshot sees it.

        The logical §2.1.5 path is a run-time property of the operator
        tree (the FallbackSwitch decides it), so EXPLAIN peeks at the
        store through the planner's side-effect-free ``explain``.
        """
        self._require_bound(node)
        if node.force_derivation:
            return "derive", None
        explanation = self.kernel.planner.explain(
            node.class_name, spatial=node.spatial,
            temporal=node.temporal, filters=node.filters,
            ranges=node.ranges, projection=node.projection,
        )
        return str(explanation["path"]), str(explanation.get("access"))

    def _explain(self, node: ExplainNode) -> QueryResult:
        """EXPLAIN: one ``retrieve <class>: path=... access=...`` line
        per retrieval leg, then the statement's operator tree."""
        inner = node.inner
        paths: dict[str, str] = {}
        access: dict[str, str] = {}
        lines: list[str] = []
        if isinstance(inner, QueryNode):
            for leg in inner.legs:
                path, access_dump = self.explain_node(leg)
                paths[leg.class_name] = path
                line = f"retrieve {leg.class_name}: path={path}"
                if leg.concept:
                    line += f" via concept {leg.concept}"
                if access_dump is not None:
                    access[leg.class_name] = access_dump
                    line += f" access={access_dump}"
                lines.append(line)
        else:
            lines.append(f"run {inner.statement.process}")
        tree_lines = render_tree(self._tree(inner))
        return QueryResult(
            kind="explanation",
            message="\n".join(lines + tree_lines),
            details={"paths": paths, "access": access,
                     "tree": "\n".join(tree_lines)},
        )

    def render_plan(self, nodes: list[PlanNode]) -> list[str]:
        """Cursor-level plan dump: each statement's EXPLAIN text (an
        ``EXPLAIN`` statement renders as the statement it wraps)."""
        lines: list[str] = []
        for node in nodes:
            if isinstance(node, StatementNode) \
                    and not isinstance(node.statement, RunProcess):
                lines.append(f"statement {type(node.statement).__name__}")
                continue
            if not isinstance(node, ExplainNode):
                node = ExplainNode(inner=node)
            lines.append(self._explain(node).message)
        return lines

    # -- retrieval ------------------------------------------------------------

    @staticmethod
    def _require_bound(node: RetrieveNode) -> None:
        """Reject nodes still holding bind placeholders."""
        unbound = (
            isinstance(node.spatial, (Param, BoxTemplate))
            or isinstance(node.temporal, Param)
            or any(isinstance(v, Param) for _, v in node.filters)
            or any(isinstance(v, Param) for _, _, v in node.ranges)
        )
        if unbound:
            raise BindError(
                f"retrieval of {node.class_name!r} has unbound parameters — "
                "supply bind values (cursor.execute(source, params))"
            )

    def _tree(self, node: PlanNode) -> PhysicalOperator:
        """The operator tree of one (bound) SELECT, DERIVE or RUN node —
        the one tree EXPLAIN renders, cursors stream and ``execute``
        drains."""
        if isinstance(node, QueryNode):
            for leg in node.legs:
                self._require_bound(leg)
        return self.physical.build(node)

    def iter_group(self, node: QueryNode) -> Iterator[Batch]:
        """Stream one SELECT/DERIVE's batches lazily: the tree is built
        at the first pull and does only the work the batches pulled so
        far need — ``fetchone`` on a selective indexed retrieval touches
        the first batch the index yields, the FallbackSwitch runs the
        §2.1.5 fallbacks only once its scan has finished empty, a LIMIT
        stops the scans early, a blocking Sort/HashAggregate
        materializes only its own input."""
        yield from self._tree(node).run_batches()

    def _query(self, node: QueryNode) -> QueryResult:
        """Drain one SELECT/DERIVE's tree into an objects result."""
        tree = self._tree(node)
        objects = tuple(tree.run())
        path, plan_steps, access = _tree_outcome(tree)
        first = node.inputs[0]
        details: dict[str, Any] = {
            "class": first.class_name,
            "concept": first.concept,
            "source": node.source,
            "plan_steps": list(plan_steps),
            "filters": list(first.filters),
            "ranges": list(first.ranges),
        }
        if node.items:
            details["columns"] = [item.alias for item in node.items]
        if node.join is not None:
            details["join"] = node.join.source
        if access is not None:
            details["access"] = access
        return QueryResult(
            kind="objects",
            objects=objects,
            path=path or "retrieve",
            details=details,
        )

    # -- DDL / browsing ------------------------------------------------------------

    def _statement(self, statement: Statement) -> QueryResult:
        if isinstance(statement, DefineClass):
            cls = NonPrimitiveClass(
                name=statement.name,
                attributes=statement.attributes,
                spatial_attr=statement.spatial_attr,
                temporal_attr=statement.temporal_attr,
                derived_by=statement.derived_by,
            )
            self.kernel.derivations.define_class(cls)
            return QueryResult(kind="message",
                               message=f"class {statement.name} defined")
        if isinstance(statement, DefineProcess):
            process = Process(
                name=statement.name,
                output_class=statement.output_class,
                arguments=tuple(
                    Argument(name=a.name, class_name=a.class_name,
                             is_set=a.is_set,
                             min_cardinality=a.min_cardinality)
                    for a in statement.arguments
                ),
                assertions=statement.assertions,
                mappings=dict(statement.mappings),
                parameters=dict(statement.parameters),
            )
            self.kernel.derivations.define_process(process)
            return QueryResult(kind="message",
                               message=f"process {statement.name} defined")
        if isinstance(statement, DefineCompound):
            compound = CompoundProcess(
                name=statement.name,
                output_class=statement.output_class,
                arguments=tuple(
                    Argument(name=a.name, class_name=a.class_name,
                             is_set=a.is_set,
                             min_cardinality=a.min_cardinality)
                    for a in statement.arguments
                ),
                steps=tuple(
                    Step(name=s.name, process=s.process,
                         bindings=dict(s.bindings))
                    for s in statement.steps
                ),
                output_step=statement.output_step,
            )
            self.kernel.derivations.define_compound(compound)
            return QueryResult(
                kind="message",
                message=f"compound process {statement.name} defined",
            )
        if isinstance(statement, DefineConcept):
            self.kernel.concepts.define(statement.name)
            for parent in statement.isa:
                self.kernel.concepts.add_isa(statement.name, parent)
            for member in statement.members:
                self.kernel.classes.get(member)
                self.kernel.concepts.attach_class(statement.name, member)
            return QueryResult(kind="message",
                               message=f"concept {statement.name} defined")
        if isinstance(statement, CreateIndex):
            index = self.kernel.store.create_attribute_index(
                statement.class_name, statement.attr, name=statement.name
            )
            return QueryResult(
                kind="message",
                message=f"index {index.name} created on "
                        f"{statement.class_name}({statement.attr})",
                details={"index": index.name},
            )
        if isinstance(statement, DropIndex):
            if statement.name is not None:
                index = self.kernel.store.drop_index_named(statement.name)
            else:
                self.kernel.store.drop_attribute_index(
                    statement.class_name, statement.attr
                )
                index = None
            name = index.name if index is not None else (
                f"on {statement.class_name}({statement.attr})"
            )
            return QueryResult(kind="message",
                               message=f"index {name} dropped")
        if isinstance(statement, RunProcess):
            return self._run_process(statement)
        if isinstance(statement, Show):
            return self._show(statement)
        if isinstance(statement, LineageQuery):
            lineage = self.kernel.provenance.lineage(statement.oid)
            return QueryResult(
                kind="message",
                message=lineage.describe(),
                details={
                    "steps": [t.task_id for t in lineage.steps],
                    "base_oids": sorted(lineage.base_oids),
                    "depth": lineage.depth,
                },
            )
        raise ExecutionError(
            f"no execution rule for {type(statement).__name__}"
        )

    def _run_process(self, statement: RunProcess) -> QueryResult:
        operator: Run = self.physical.build_run(statement)
        objects = tuple(operator.run())
        return QueryResult(
            kind="objects",
            objects=objects,
            path="run",
            details={"task_id": operator.task_id,
                     "reused": operator.reused},
        )

    def _show(self, statement: Show) -> QueryResult:
        kernel = self.kernel
        if statement.what == "classes":
            lines = [
                kernel.classes.get(name).describe()
                for name in kernel.classes.names()
            ]
        elif statement.what == "processes":
            lines = [
                kernel.derivations.processes.get(name).describe()
                for name in kernel.derivations.processes.names()
            ] + [
                kernel.derivations.compounds.get(name).describe()
                for name in kernel.derivations.compounds.names()
            ]
        elif statement.what == "concepts":
            lines = []
            for name in kernel.concepts.names():
                concept = kernel.concepts.get(name)
                parents = sorted(kernel.concepts.parents(name))
                isa = f" ISA {', '.join(parents)}" if parents else ""
                members = sorted(concept.member_classes)
                lines.append(f"CONCEPT {name}{isa} -> {members}")
        elif statement.what == "tasks":
            lines = [task.describe() for task in kernel.derivations.tasks]
        elif statement.what == "experiments":
            lines = [
                e.describe() for e in kernel.experiments.all_experiments()
            ]
        elif statement.what == "operators":
            # §4.2 browsing: "look up appropriate operators for specific
            # primitive classes".
            lines = []
            for name in sorted(kernel.operators.names()):
                for op in kernel.operators.overloads(name):
                    doc = f"  // {op.doc}" if op.doc else ""
                    lines.append(f"{op}{doc}")
        elif statement.what == "indexes":
            # Physical browsing: which secondary structures back which
            # class attributes (extent indexes included), with the
            # statistics the cost model prices paths from.
            lines = []
            for ix in kernel.store.engine.catalog.all_indexes():
                line = (f"INDEX {ix.name} ON {ix.relation}({ix.column}) "
                        f"[{ix.kind}]")
                if ix.kind == "btree":
                    stats = kernel.store.engine.index_stats(
                        ix.relation, ix.column
                    )
                    line += (f" entries={stats['entries']}"
                             f" distinct_keys={stats['distinct_keys']}"
                             f" histogram_buckets="
                             f"{stats['histogram_buckets']}")
                lines.append(line)
        elif statement.what == "types":
            lines = []
            for type_name in kernel.types.names():
                cls = kernel.types.get(type_name)
                parent = f" ISA {cls.parent}" if cls.parent else ""
                doc = f"  // {cls.doc}" if cls.doc else ""
                lines.append(f"TYPE {cls.name}{parent}{doc}")
        else:
            raise ExecutionError(f"unknown SHOW target {statement.what!r}")
        return QueryResult(kind="message", message="\n".join(lines))
