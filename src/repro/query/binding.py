"""Bind-parameter resolution for prepared GaeaQL plans.

A parsed statement may carry :class:`~repro.query.ast.Param`
placeholders in its value positions.  Planning keeps the placeholders in
the plan nodes, so one compiled plan can be executed many times with
different bind values: :func:`collect_signature` reports what a plan
expects, and :func:`bind_nodes` produces concrete plan nodes from bind
values — validating that nothing is missing, extra, or mis-typed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

from ..errors import BindError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime
from .ast import BoxTemplate, Param
from .optimizer import ExplainNode, PlanNode, QueryNode, RetrieveNode

__all__ = ["ParamSignature", "collect_signature", "bind_nodes"]


@dataclass(frozen=True)
class ParamSignature:
    """What a compiled plan expects from a bind call."""

    positional: int = 0
    names: frozenset[str] = frozenset()

    def describe(self) -> str:
        if self.positional:
            return f"{self.positional} positional parameter(s)"
        if self.names:
            return f"named parameter(s) {sorted(self.names)}"
        return "no parameters"


def _params_of(node: PlanNode) -> Iterable[Param]:
    if isinstance(node, ExplainNode):
        yield from _params_of(node.inner)
        return
    if isinstance(node, QueryNode):
        for leg in node.legs:
            yield from _params_of(leg)
        if isinstance(node.limit, Param):
            yield node.limit
        if isinstance(node.offset, Param):
            yield node.offset
        return
    if not isinstance(node, RetrieveNode):
        return
    if isinstance(node.spatial, Param):
        yield node.spatial
    elif isinstance(node.spatial, BoxTemplate):
        for coord in node.spatial.coords:
            if isinstance(coord, Param):
                yield coord
    if isinstance(node.temporal, Param):
        yield node.temporal
    for _, value in node.filters:
        if isinstance(value, Param):
            yield value
    for _, _, value in node.ranges:
        if isinstance(value, Param):
            yield value


def collect_signature(nodes: Iterable[PlanNode]) -> ParamSignature:
    """The bind signature of a compiled plan."""
    positional = 0
    names: set[str] = set()
    for node in nodes:
        for param in _params_of(node):
            if param.name is not None:
                names.add(param.name)
            else:
                positional = max(positional, param.index + 1)
    return ParamSignature(positional=positional, names=frozenset(names))


class _Binder:
    """Validated access to one bind call's values."""

    def __init__(self, signature: ParamSignature, params: Any):
        if params is None:
            params = ()
        if isinstance(params, Mapping):
            given = ParamSignature(names=frozenset(params))
            self._named = dict(params)
            self._positional: Sequence[Any] = ()
        elif isinstance(params, Sequence) and not isinstance(params, str):
            given = ParamSignature(positional=len(params))
            self._named = {}
            self._positional = list(params)
        else:
            raise BindError(
                f"bind parameters must be a sequence or a mapping, "
                f"not {type(params).__name__}"
            )
        if signature.positional != given.positional:
            raise BindError(
                f"statement expects {signature.describe()}, "
                f"got {given.positional} positional value(s)"
            )
        missing = signature.names - given.names
        extra = given.names - signature.names
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {sorted(missing)}")
            if extra:
                detail.append(f"unexpected {sorted(extra)}")
            raise BindError(
                f"statement expects {signature.describe()}: "
                + ", ".join(detail)
            )

    def value(self, param: Param) -> Any:
        if param.name is not None:
            return self._named[param.name]
        return self._positional[param.index]


def _bind_spatial(spatial: Any, binder: _Binder) -> Box | None:
    if isinstance(spatial, Param):
        value = binder.value(spatial)
        if not isinstance(value, Box):
            raise BindError(
                f"parameter {spatial.describe()} in OVERLAPS/IN must be a "
                f"Box, got {type(value).__name__}"
            )
        return value
    if isinstance(spatial, BoxTemplate):
        coords = []
        for coord in spatial.coords:
            if isinstance(coord, Param):
                coord = binder.value(coord)
                if not isinstance(coord, (int, float)) \
                        or isinstance(coord, bool):
                    raise BindError(
                        "box coordinate parameters must be numbers, got "
                        f"{type(coord).__name__}"
                    )
            coords.append(float(coord))
        return Box(*coords)
    return spatial


def _bind_temporal(temporal: Any, binder: _Binder) -> AbsTime | None:
    if not isinstance(temporal, Param):
        return temporal
    value = binder.value(temporal)
    if isinstance(value, AbsTime):
        return value
    if isinstance(value, str):
        return AbsTime.parse(value)
    raise BindError(
        f"parameter {temporal.describe()} for a timestamp must be an "
        f"AbsTime or a date string, got {type(value).__name__}"
    )


def _bind_count(count: Any, binder: _Binder, clause: str) -> Any:
    """A bound LIMIT/OFFSET count: a non-negative int."""
    if not isinstance(count, Param):
        return count
    value = binder.value(count)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise BindError(
            f"parameter {count.describe()} in {clause} must be a "
            f"non-negative integer, got {value!r}"
        )
    return value


def _bind_node(node: PlanNode, binder: _Binder) -> PlanNode:
    if isinstance(node, ExplainNode):
        return ExplainNode(inner=_bind_node(node.inner, binder))
    if isinstance(node, QueryNode):
        join = node.join
        if join is not None:
            join = replace(join, inputs=tuple(
                _bind_node(inner, binder) for inner in join.inputs
            ))
        return replace(
            node, join=join,
            inputs=tuple(_bind_node(inner, binder) for inner in node.inputs),
            limit=_bind_count(node.limit, binder, "LIMIT"),
            offset=_bind_count(node.offset, binder, "OFFSET"),
        )
    if not isinstance(node, RetrieveNode):
        return node
    return replace(
        node,
        spatial=_bind_spatial(node.spatial, binder),
        temporal=_bind_temporal(node.temporal, binder),
        filters=tuple(
            (attr, binder.value(value) if isinstance(value, Param) else value)
            for attr, value in node.filters
        ),
        ranges=tuple(
            (attr, op,
             binder.value(value) if isinstance(value, Param) else value)
            for attr, op, value in node.ranges
        ),
    )


def bind_nodes(nodes: Sequence[PlanNode], signature: ParamSignature,
               params: Any = None) -> list[PlanNode]:
    """Concrete plan nodes with every placeholder replaced by its value."""
    binder = _Binder(signature, params)
    return [_bind_node(node, binder) for node in nodes]
