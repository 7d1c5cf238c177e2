"""The retrieval planner: retrieve → interpolate → derive (paper §2.1.5).

"The execution of a database query which involves the retrieval of a
derived spatio-temporal concept is performed according to the following
sequence: 1. direct data retrieval ... 2. data interpolation ... 3. data
are computed, based on a derivation relationship.  Steps 2 and 3 are
prioritized according to the user's needs."

:class:`RetrievalPlanner` implements exactly that: direct retrieval
always wins; the order of the two fallbacks is configurable.  Derivation
uses the Petri-net back-propagation plan at the class level
(:meth:`~repro.core.petri.DerivationNet.backward_plan`) and then binds
actual objects to each planned process, executing through the derivation
manager so every firing leaves a task record.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Iterator

from ..errors import AssertionViolatedError, DerivationError, UnderivableError
from ..spatial.box import Box
from ..storage.access import AccessPath
from ..temporal.abstime import AbsTime
from .classes import SciObject, matches_extents, matches_predicates
from .derivation import Bindings, CardinalityAssertion, Process
from .interpolation import (InterpolationError, TemporalInterpolator,
                            mosaic_values)
from .manager import DerivationManager
from .tasks import Task

__all__ = ["RetrievalPlanner", "RetrievalResult", "RetrievalPath",
           "MarkingCache"]

RetrievalPath = str  # "retrieve" | "interpolate" | "derive"

_DEFAULT_FALLBACKS: tuple[str, ...] = ("interpolate", "derive")

#: What "this step cannot answer" looks like; the ladder moves on to the
#: next step (anything else is a real error and propagates).
_STEP_FAILURES = (InterpolationError, UnderivableError,
                  AssertionViolatedError)

#: Shared stored-supply counts: ``{class_name: {(str(spatial),
#: str(temporal)): count}}``.  One query execution (e.g. a concept union
#: over several derivable members) passes the same cache to every
#: derivation so the backward-planning marking probes run once per input
#: class instead of once per member; a derivation that fires drops the
#: classes it produced into (their stored supply changed).
MarkingCache = dict


class _AskedMarking(dict):
    """A Petri marking that is asked, not built: ``get`` probes a place
    the first time the backward search reads it, so planning costs one
    supply probe per place the plan visits, not one per catalog class."""

    def __init__(self, known: dict[str, int], probe) -> None:
        super().__init__(known)
        self._probe = probe

    def get(self, place: str, default: int = 0) -> int:
        if place not in self:
            self[place] = self._probe(place)
        return self[place]


@dataclass(frozen=True)
class RetrievalResult:
    """Outcome of a planned retrieval: the one §2.1.5 record — which
    step answered, with which tasks — shared by the planner's object
    API and the query layer's operators."""

    objects: tuple[SciObject, ...]
    path: RetrievalPath
    tasks: tuple[Task, ...] = ()
    plan_steps: tuple[str, ...] = ()

    @property
    def object(self) -> SciObject:
        """The single result object (error when empty or plural)."""
        if len(self.objects) != 1:
            raise DerivationError(
                f"expected exactly one object, have {len(self.objects)}"
            )
        return self.objects[0]


@dataclass
class RetrievalPlanner:
    """Executes the §2.1.5 retrieval sequence over a derivation manager."""

    manager: DerivationManager
    interpolator: TemporalInterpolator = field(
        default_factory=TemporalInterpolator
    )
    fallback_order: tuple[str, ...] = _DEFAULT_FALLBACKS

    def __post_init__(self) -> None:
        bad = set(self.fallback_order) - {"interpolate", "derive"}
        if bad:
            raise DerivationError(f"unknown fallback step(s): {sorted(bad)}")

    # -- the public entry point -------------------------------------------------

    def retrieve(self, class_name: str,
                 spatial: Box | None = None,
                 temporal: AbsTime | None = None,
                 spatial_coverage: bool = False,
                 filters: tuple[tuple[str, Any], ...] = (),
                 ranges: tuple[tuple[str, str, Any], ...] = ()
                 ) -> RetrievalResult:
        """Fetch objects of *class_name* matching the extent predicates,
        generating them when they are not stored.

        With ``spatial_coverage`` the spatial predicate demands an object
        whose extent *contains* the query box (not merely overlaps it);
        partial neighbours are then combined by spatial interpolation
        (mosaicking) — the "temporal or spatial" interpolation of §2.1.5.

        *filters* (attribute equalities) and *ranges* (attribute
        comparisons) are pushed down into the store's access-path
        machinery, so a selective predicate rides an attribute B-tree
        instead of filtering a full scan.  They do not trigger the
        interpolate/derive fallbacks: when extent-matching objects exist
        but the predicates reject them all, the answer is an empty direct
        retrieval — exactly what post-filtering produced before pushdown.
        """
        cls = self.manager.classes.get(class_name)
        filters, ranges = self.manager.store.normalize_predicates(
            cls, filters, ranges)
        _, found, answered = self._stored_step(
            cls, spatial, temporal, filters, ranges,
            spatial_coverage=spatial_coverage)
        if answered:
            return RetrievalResult(objects=tuple(found), path="retrieve")
        return self.run_fallbacks(
            class_name, spatial, temporal,
            spatial_coverage=spatial_coverage,
            filters=filters, ranges=ranges,
        )

    def _stored_step(self, cls, spatial: Box | None,
                     temporal: AbsTime | None,
                     filters: tuple[tuple[str, Any], ...],
                     ranges: tuple[tuple[str, str, Any], ...],
                     spatial_coverage: bool = False,
                     projection: tuple[str, ...] = (),
                     limit: int | None = None
                     ) -> tuple[AccessPath, list[SciObject], bool]:
        """Step 1, direct retrieval, over normalized predicates: ``(access
        path, matching objects, answered)``.

        ONE stored-data scan, counting both extent matches and predicate
        survivors as it streams, so the fallback decision never re-reads
        the relation.  The scan stops at *limit* matches: one is enough
        to know that stored data answers.
        """
        store = self.manager.store
        path = store.choose_path(cls.name, spatial=spatial,
                                 temporal=temporal, filters=filters,
                                 ranges=ranges, projection=projection)
        extent_matches = 0
        found: list[SciObject] = []
        for obj in store.iter_scan(cls.name, spatial=spatial,
                                   temporal=temporal, filters=filters,
                                   ranges=ranges, access_path=path):
            if not matches_extents(obj, cls, spatial, temporal,
                                   spatial_coverage=spatial_coverage):
                continue
            extent_matches += 1
            if matches_predicates(obj, filters, ranges):
                found.append(obj)
                if len(found) == limit:
                    break
        return path, found, self.stored_answers(
            cls.name, spatial, temporal, bool(filters or ranges),
            len(found), extent_matches if path.observes_extents else None,
            spatial_coverage)

    def stored_answers(self, class_name: str, spatial: Box | None,
                       temporal: AbsTime | None,
                       has_predicates: bool, found: int,
                       extent_matches: int | None = None,
                       spatial_coverage: bool = False) -> bool:
        """The step-1 verdict after a stored scan that *found* so many
        rows: True when stored data answers the query — rows found, or
        the extents are covered and the attribute predicates rejected
        everything (an empty answer) — False when nothing stored covers
        the extents, the one case steps 2–3 exist for: fallbacks are for
        missing *data*, not for unsatisfied predicates.

        *extent_matches* is the scan's own count of extent candidates
        when its access path streams them all
        (:attr:`AccessPath.observes_extents`).  An attribute-index probe
        prunes by the predicates themselves, so its emptiness says
        nothing about the extents (pass None): one short-circuiting
        existence probe settles it.
        """
        if found or not has_predicates:
            return found > 0
        if extent_matches is not None:
            return extent_matches > 0
        store = self.manager.store
        spatial_attr = self.manager.classes.get(class_name).spatial_attr
        if spatial_coverage and spatial is not None \
                and spatial_attr is not None:
            # The direct path keeps only objects whose extent *contains*
            # the query box, so mere overlap must not count as coverage
            # — it would suppress the mosaic-interpolation fallback.
            return any(
                obj[spatial_attr].contains(spatial)
                for obj in store.iter_find(class_name, spatial=spatial,
                                           temporal=temporal)
            )
        return store.exists(class_name, spatial=spatial, temporal=temporal)

    def run_fallbacks(self, class_name: str,
                      spatial: Box | None, temporal: AbsTime | None,
                      spatial_coverage: bool = False,
                      filters: tuple[tuple[str, Any], ...] = (),
                      ranges: tuple[tuple[str, str, Any], ...] = (),
                      marking_cache: MarkingCache | None = None
                      ) -> RetrievalResult:
        """Steps 2–3 of §2.1.5 in the configured fallback order, for a
        query :meth:`stored_answers` judged "nothing stored here".  The
        one walk over ``fallback_order``: :meth:`retrieve`, the query
        layer's ``Fallback`` leaf and the index-nested-loop join's probe
        side all come through here.

        The first step that produces objects answers; a step that does
        not apply or cannot produce any is skipped, and when all are the
        query is unsatisfiable.  The derivation is told that no stored
        object matches the extents, so it never re-scans the target
        relation.  Normalized attribute predicates are re-applied to
        whatever the answering step produced.
        """
        errors: list[str] = []
        for step in self.fallback_order:
            try:
                if step == "derive":
                    result = self.derive(
                        class_name, spatial, temporal,
                        spatial_coverage=spatial_coverage,
                        known_empty=True, marking_cache=marking_cache)
                else:
                    result = self._interpolate_step(
                        class_name, spatial, temporal, spatial_coverage)
            except _STEP_FAILURES as exc:
                errors.append(f"{step}: {exc}")
                continue
            if not (filters or ranges):
                return result
            return replace(result, objects=tuple(
                obj for obj in result.objects
                if matches_predicates(obj, filters, ranges)
            ))
        raise UnderivableError(
            f"cannot satisfy query on {class_name!r}"
            + (f" ({'; '.join(errors)})" if errors else "")
        )

    # -- step 2: interpolation ------------------------------------------------------

    def _interpolate_step(self, class_name: str, spatial: Box | None,
                          temporal: AbsTime | None,
                          spatial_coverage: bool) -> RetrievalResult:
        """Step 2 as the ladder runs it: temporal interpolation, then —
        for a coverage query — mosaicking the partial neighbours."""
        try:
            return self.interpolate(class_name, spatial, temporal)
        except InterpolationError:
            if not (spatial_coverage and spatial is not None):
                raise
        return self._interpolate_spatial(class_name, spatial, temporal)

    def _interpolation_inputs(self, cls, spatial: Box | None,
                              temporal: AbsTime | None
                              ) -> tuple[SciObject, SciObject]:
        """The two stored snapshots temporal interpolation would blend;
        side-effect free, so :meth:`explain` asks exactly what
        :meth:`interpolate` asks.

        Raises :class:`InterpolationError` when step 2 does not apply:
        the query has no timestamp, the class no temporal extent, or no
        stored snapshots bracket the timestamp *at the query region*.
        """
        if temporal is None:
            raise InterpolationError(
                f"retrieval of {cls.name!r} has no timestamp to "
                "interpolate at"
            )
        if cls.temporal_attr is None:
            raise InterpolationError(
                f"class {cls.name!r} has no temporal extent"
            )
        store = self.manager.store
        timeline = store.engine.timeline_of(store.relation_for(cls.name))
        before_t, after_t = timeline.bracketing(temporal)
        if before_t is None or after_t is None:
            raise InterpolationError(
                f"no snapshots bracket {temporal} in {cls.name!r}"
            )
        before = store.find(cls.name, spatial=spatial, temporal=before_t)
        after = store.find(cls.name, spatial=spatial, temporal=after_t)
        if not before or not after:
            raise InterpolationError(
                f"bracketing snapshots of {cls.name!r} do not cover the "
                "requested region"
            )
        return before[0], after[0]

    def interpolate(self, class_name: str,
                    spatial: Box | None = None,
                    temporal: AbsTime | None = None) -> RetrievalResult:
        """Force the temporal-interpolation path (§2.1.5 step 2); raises
        :class:`InterpolationError` when it does not apply (see
        :meth:`_interpolation_inputs`)."""
        cls = self.manager.classes.get(class_name)
        before, after = self._interpolation_inputs(cls, spatial, temporal)
        obj = self.manager.store.store(
            class_name,
            self.interpolator.interpolate(cls, before, after, temporal))
        # Interpolation is itself a derivation (§2.1.5: "a generic
        # derivation process"), so it leaves a task record too.
        task = self.manager.tasks.record(
            "interpolate-temporal",
            {"before": before, "after": after},
            output_oids=(obj.oid,),
            parameters={"__interpolation__": "temporal",
                        "target": str(temporal)},
        )
        return RetrievalResult(objects=(obj,), path="interpolate",
                               tasks=(task,))

    def _interpolate_spatial(self, class_name: str, region: Box,
                             temporal: AbsTime | None) -> RetrievalResult:
        """Spatial interpolation: mosaic partial neighbours over *region*.

        Requires an image-typed ``data`` attribute; every other
        non-extent attribute must agree across the pieces.
        """
        from ..gis.mosaic import covers

        cls = self.manager.classes.get(class_name)
        if cls.spatial_attr is None:
            raise InterpolationError(
                f"class {class_name!r} has no spatial extent"
            )
        if "data" not in cls.attribute_names \
                or cls.type_of("data") != "image":
            raise InterpolationError(
                f"class {class_name!r} has no image 'data' attribute to "
                "mosaic"
            )
        candidates = self.manager.store.find(class_name, spatial=region,
                                             temporal=temporal)
        extents = [obj[cls.spatial_attr] for obj in candidates]
        if not covers(extents, region):
            raise InterpolationError(
                f"stored {class_name!r} objects do not jointly cover the "
                "requested region"
            )
        obj = self.manager.store.store(
            class_name, mosaic_values(cls, candidates, region))
        task = self.manager.tasks.record(
            "interpolate-spatial",
            {"pieces": candidates},
            output_oids=(obj.oid,),
            parameters={"__interpolation__": "spatial",
                        "region": str(region)},
        )
        return RetrievalResult(objects=(obj,), path="interpolate",
                               tasks=(task,))

    # -- step 3: derivation ------------------------------------------------------------

    def derive(self, class_name: str,
               spatial: Box | None = None,
               temporal: AbsTime | None = None,
               spatial_coverage: bool = False,
               known_empty: bool = False,
               marking_cache: MarkingCache | None = None
               ) -> RetrievalResult:
        """Force the derivation path (§2.1.5 step 3), skipping direct
        retrieval: recompute the objects through the derivation net even
        when matching data is already stored (the ``DERIVE`` statement).

        With *known_empty* the caller asserts that no stored object of
        *class_name* matches the query extents (it has already executed
        the stored-data scan), letting the derivation skip its own
        re-scans of the target relation.  *marking_cache* shares the
        backward-planning supply probes across the derivations of one
        query execution.

        Reads and stores go through the caller's view, which sees its own
        writes: what the net fires is visible to the rest of the
        derivation, and to nobody else until it commits.
        """
        cls = self.manager.classes.get(class_name)

        def matching_target() -> list[SciObject]:
            objs = self.manager.store.find(class_name, spatial=spatial,
                                           temporal=temporal)
            if spatial_coverage and spatial is not None \
                    and cls.spatial_attr is not None:
                objs = [o for o in objs
                        if o[cls.spatial_attr].contains(spatial)]
            return objs

        net = self.manager.derivation_net()
        # The target is counted strictly against the query extents;
        # inputs use the lenient rule of `_supply`.
        # With `known_empty` the caller has already executed the
        # stored-data scan and found nothing at these extents, so the
        # target count is known without touching the relation again.
        plan = self._derivation_plan(
            class_name, spatial, temporal,
            0 if known_empty else len(matching_target()), marking_cache)
        # Demand per class: the largest threshold any planned consumer
        # places on it (the target itself needs one object).  A step is
        # fired enough times, over distinct bindings, to close the gap
        # between stored supply and demand — the object-level realization
        # of the net's threshold semantics (§2.1.6 modification 2).
        demand: dict[str, int] = {class_name: 1}
        for step_name in plan.steps:
            for arc in net.transition(step_name).inputs:
                demand[arc.place] = max(demand.get(arc.place, 0),
                                        arc.threshold)
        tasks: list[Task] = []
        target_outputs: list[SciObject] = []
        for process_name in plan.steps:
            process = self.manager.processes.get(process_name)
            out_cls = process.output_class
            if known_empty and out_cls == class_name and temporal is None:
                # The caller's scan found nothing at these extents with
                # no timestamp restriction — the any-time supply check
                # below would re-read the same emptiness.
                existing: list[int] = []
            else:
                existing = self.manager.store.find_oids(out_cls,
                                                        spatial=spatial)
            needed = max(demand.get(out_cls, 1) - len(existing), 1)
            results = self._execute_with_search(
                process, spatial, temporal, count=needed,
                exclude_oids=set(existing),
            )
            tasks.extend(r.task for r in results)
            if out_cls == class_name:
                target_outputs.extend(r.output for r in results)
        if marking_cache is not None and tasks:
            # Firing changed the stored supply of what it produced only.
            for process_name in plan.steps:
                marking_cache.pop(
                    self.manager.processes.get(process_name).output_class,
                    None)
        if known_empty:
            # Nothing was stored at these extents before firing, so the
            # answer is exactly the fired outputs that match them — no
            # re-scan of the relation needed.
            produced = [
                obj for obj in target_outputs
                if matches_extents(obj, cls, spatial, temporal,
                                   spatial_coverage=spatial_coverage)
            ]
        else:
            produced = matching_target()
        if not produced:
            # The derivation ran but its output does not match the
            # requested extents (e.g. inputs covered a different region).
            raise UnderivableError(
                f"derivation of {class_name!r} produced no object matching "
                "the requested extents"
            )
        return RetrievalResult(
            objects=tuple(produced), path="derive", tasks=tuple(tasks),
            plan_steps=plan.steps,
        )

    def _derivation_plan(self, class_name: str, spatial: Box | None,
                         temporal: AbsTime | None, stored_targets: int,
                         marking_cache: MarkingCache | None = None):
        """The Petri-net backward plan that would produce *class_name*
        at these extents, given *stored_targets* objects of it already
        there; side-effect free (shared with :meth:`explain`).  Raises
        :class:`UnderivableError` when no firing sequence exists."""
        extents = (str(spatial), str(temporal))

        def supply(place: str) -> int:
            counts = {} if marking_cache is None \
                else marking_cache.setdefault(place, {})
            if extents not in counts:
                counts[extents] = len(self._supply(
                    place, spatial, temporal, self.manager.store.find_oids))
            return counts[extents]

        return self.manager.derivation_net().backward_plan(
            class_name, _AskedMarking({class_name: stored_targets}, supply))

    _MAX_BINDING_ATTEMPTS = 64

    def _execute_with_search(self, process: Process, spatial: Box | None,
                             temporal: AbsTime | None, count: int = 1,
                             exclude_oids: set[int] | None = None):
        """Execute *process* *count* times over distinct bindings.

        The first binding option is the natural one (earliest objects).
        When template assertions reject a combination — e.g. the same
        scene bound to both the red and NIR argument of an NDVI process —
        alternatives are tried, bounded by ``_MAX_BINDING_ATTEMPTS``.
        Results whose outputs duplicate each other or fall in
        *exclude_oids* (pre-existing supply) do not count toward *count*.
        """
        results = []
        produced_oids: set[int] = set(exclude_oids or set())
        last_error: AssertionViolatedError | None = None
        for attempt, bindings in enumerate(
            self._binding_options(process, spatial, temporal)
        ):
            if attempt >= self._MAX_BINDING_ATTEMPTS or len(results) >= count:
                break
            try:
                result = self.manager.execute_process(process.name, bindings)
            except AssertionViolatedError as exc:
                last_error = exc
                continue
            if result.output.oid in produced_oids:
                continue
            produced_oids.add(result.output.oid)
            results.append(result)
        if len(results) >= count:
            return results
        if not results and last_error is not None:
            raise last_error
        raise UnderivableError(
            f"process {process.name!r}: needed {count} distinct "
            f"derivations, achieved {len(results)}"
        )

    def _supply(self, class_name: str, spatial: Box | None,
                temporal: AbsTime | None, read):
        """What a derivation at these extents may consume of
        *class_name*, through *read* (:meth:`ClassStore.find` for the
        objects to bind, :meth:`ClassStore.find_oids` to count them).

        The exact-extent matches — one timeline/grid probe — when there
        are any; else everything stored at the region whatever its
        time: derivations may legitimately consume inputs at other
        timestamps (e.g. a change process spanning years).
        """
        cls = self.manager.classes.get(class_name)
        region = spatial if cls.spatial_attr else None
        if temporal is not None and cls.temporal_attr is not None:
            exact = read(class_name, spatial=region, temporal=temporal)
            if exact:
                return exact
        return read(class_name, spatial=region)

    def _binding_options(self, process: Process, spatial: Box | None,
                         temporal: AbsTime | None) -> Iterator[Bindings]:
        """Lazily enumerate candidate binding combinations.

        Scalar arguments iterate over their candidates (earliest first);
        two scalar arguments of the same class never receive the same
        object.  SETOF arguments take the exact count the template
        demands, sliding a window over the candidates when the first
        choice is rejected.
        """
        per_arg: list[list[object]] = []
        for arg in process.arguments:
            candidates = sorted(
                self._supply(arg.class_name, spatial, temporal,
                             self.manager.store.find),
                key=lambda obj: obj.oid)
            if not candidates:
                raise UnderivableError(
                    f"no stored objects of {arg.class_name!r} to bind "
                    f"argument {arg.name!r} of {process.name!r}"
                )
            if arg.is_set:
                count = self._set_cardinality(process, arg.name)
                if count is None:
                    options: list[object] = [candidates]
                else:
                    if len(candidates) < count:
                        raise UnderivableError(
                            f"argument {arg.name!r} of {process.name!r} "
                            f"needs {count} objects, found {len(candidates)}"
                        )
                    options = [
                        list(combo)
                        for combo in itertools.islice(
                            itertools.combinations(candidates, count), 16
                        )
                    ]
            else:
                options = list(candidates[:8])
            per_arg.append(options)

        names = [arg.name for arg in process.arguments]
        scalar_class = {
            arg.name: arg.class_name
            for arg in process.arguments if not arg.is_set
        }
        for combo in itertools.product(*per_arg):
            bindings = dict(zip(names, combo))
            # Distinctness: same-class scalar arguments get distinct oids.
            seen: dict[str, set[int]] = {}
            ok = True
            for name, bound in bindings.items():
                if name in scalar_class:
                    cls = scalar_class[name]
                    oid = bound.oid  # type: ignore[union-attr]
                    if oid in seen.setdefault(cls, set()):
                        ok = False
                        break
                    seen[cls].add(oid)
            if ok:
                yield bindings

    @staticmethod
    def _set_cardinality(process: Process, arg_name: str) -> int | None:
        """Exact SETOF cardinality demanded by the template, if any."""
        for assertion in process.assertions:
            if isinstance(assertion, CardinalityAssertion) \
                    and assertion.arg == arg_name and assertion.exact:
                return assertion.count
        return None

    # -- diagnostics ---------------------------------------------------------------------

    def explain(self, class_name: str,
                spatial: Box | None = None,
                temporal: AbsTime | None = None,
                filters: tuple[tuple[str, Any], ...] = (),
                ranges: tuple[tuple[str, str, Any], ...] = (),
                projection: tuple[str, ...] = ()
                ) -> dict[str, object]:
        """Describe, without side effects, which path a retrieval would
        take — used by the optimizer and by EXP-A.

        Besides the §2.1.5 path the report carries ``access``: the
        cost-based physical access path a direct retrieval would stream
        from (index probe vs. full scan), with its estimates.
        """
        cls = self.manager.classes.get(class_name)
        filters, ranges = self.manager.store.normalize_predicates(
            cls, filters, ranges)
        access, _, answered = self._stored_step(
            cls, spatial, temporal, filters, ranges, projection=projection,
            limit=1)
        report: dict[str, object] = {"access": access.describe()}
        if answered:
            return {"path": "retrieve", **report}
        # The ladder's own applicability tests, minus the effects, under
        # the view the steps themselves would read.
        for step in self.fallback_order:
            try:
                if step == "derive":
                    plan = self._derivation_plan(class_name, spatial,
                                                 temporal, 0)
                    return {"path": "derive",
                            "plan": list(plan.steps), **report}
                before, after = self._interpolation_inputs(
                    cls, spatial, temporal)
                return {"path": "interpolate",
                        "bracket": (str(before[cls.temporal_attr]),
                                    str(after[cls.temporal_attr])),
                        **report}
            except _STEP_FAILURES:
                continue
        return {"path": "unsatisfiable", **report}
