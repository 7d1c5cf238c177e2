"""Generic temporal interpolation of scientific objects.

Paper §2.1.5: "Interpolation can be used in many situations where data are
missing.  It is a generic derivation process which is applicable to many
data types in many domains."  The planner's step 2 uses this module to
synthesize an object at a missing timestamp from the stored snapshots
bracketing it.

Interpolation is attribute-wise, driven by the primitive type of each
attribute:

* numeric attributes (``int2/int4/float4/float8``) — linear in time;
* ``image`` — pixelwise linear blend (shapes must agree);
* ``abstime`` — the target timestamp for the temporal-extent attribute;
* everything else (names, reference systems, boxes) — must agree on both
  snapshots and is copied through; disagreement makes the pair
  non-interpolable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..adt.image import Image
from ..errors import DerivationError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime
from .classes import NonPrimitiveClass, SciObject

__all__ = ["TemporalInterpolator", "InterpolationError", "mosaic_values",
           "replay_interpolation_task"]


class InterpolationError(DerivationError):
    """The snapshot pair cannot be interpolated."""


@dataclass
class TemporalInterpolator:
    """Linear-in-time attribute interpolator."""

    def weight(self, before: AbsTime, after: AbsTime, target: AbsTime) -> float:
        """Fraction of the way from *before* to *after* at *target*."""
        if not before <= target <= after:
            raise InterpolationError(
                f"target {target} outside snapshot range [{before}, {after}]"
            )
        span = before.days_between(after)
        if span == 0:
            return 0.0
        return before.days_between(target) / span

    def _blend(self, type_name: str, lo: Any, hi: Any, w: float) -> Any:
        if type_name in ("float4", "float8"):
            return float(lo) * (1.0 - w) + float(hi) * w
        if type_name in ("int2", "int4"):
            return round(float(lo) * (1.0 - w) + float(hi) * w)
        if type_name == "image":
            if lo.shape != hi.shape:
                raise InterpolationError(
                    f"image shapes differ: {lo.shape} vs {hi.shape}"
                )
            blended = (
                lo.data.astype(np.float64) * (1.0 - w)
                + hi.data.astype(np.float64) * w
            )
            return Image.from_array(blended, "float4")
        # Categorical / structural attributes must agree.
        if lo != hi:
            raise InterpolationError(
                f"{type_name} attribute differs between snapshots "
                f"({lo!r} vs {hi!r}); cannot interpolate"
            )
        return lo

    def interpolate(self, cls: NonPrimitiveClass, before: SciObject,
                    after: SciObject, target: AbsTime) -> dict[str, Any]:
        """Attribute dict for a synthetic object of *cls* at *target*.

        *before*/*after* must be instances of *cls* bracketing *target*
        in time.  The temporal-extent attribute is set to *target*; every
        other attribute is blended per its primitive type.
        """
        if before.class_name != cls.name or after.class_name != cls.name:
            raise InterpolationError(
                "snapshots are not instances of the interpolated class"
            )
        if cls.temporal_attr is None:
            raise InterpolationError(
                f"class {cls.name!r} has no temporal extent to interpolate "
                "over"
            )
        t_lo = before[cls.temporal_attr]
        t_hi = after[cls.temporal_attr]
        if t_lo > t_hi:
            before, after = after, before
            t_lo, t_hi = t_hi, t_lo
        w = self.weight(t_lo, t_hi, target)
        values: dict[str, Any] = {}
        for attr, type_name in cls.attributes:
            if attr == cls.temporal_attr:
                values[attr] = target
            else:
                values[attr] = self._blend(
                    type_name, before[attr], after[attr], w
                )
        return values


def mosaic_values(cls: NonPrimitiveClass, pieces: list[SciObject],
                  region: Box) -> dict[str, Any]:
    """Attribute dict of the spatial interpolation of *pieces* over
    *region*: their ``data`` images mosaicked, the spatial extent set to
    *region*, and every other attribute copied from the pieces, which
    must agree on it."""
    from ..gis.mosaic import mosaic

    values: dict[str, Any] = {
        "data": mosaic([(obj["data"], obj[cls.spatial_attr])
                        for obj in pieces], region),
        cls.spatial_attr: region,
    }
    for attr, _ in cls.attributes:
        if attr in values:
            continue
        first = pieces[0][attr]
        if any(obj[attr] != first for obj in pieces[1:]):
            raise InterpolationError(
                f"attribute {attr!r} differs across mosaic pieces"
            )
        values[attr] = first
    return values


def replay_interpolation_task(manager, task) -> "SciObject":
    """Re-run a recorded interpolation task (temporal or spatial).

    *manager* is the :class:`~repro.core.manager.DerivationManager`
    owning the store; the fresh object is stored and returned, and a new
    task is recorded — mirroring :meth:`reproduce_task` for processes.
    """
    kind = task.parameters.get("__interpolation__")
    output_cls_name = manager.store.get(task.output_oids[0]).class_name
    cls = manager.classes.get(output_cls_name)
    if kind == "temporal":
        before = manager.store.get(task.input_oids["before"][0])
        after = manager.store.get(task.input_oids["after"][0])
        target = AbsTime.parse(task.parameters["target"])
        values = TemporalInterpolator().interpolate(cls, before, after,
                                                    target)
    elif kind == "spatial":
        values = mosaic_values(
            cls, [manager.store.get(oid) for oid in task.input_oids["pieces"]],
            Box.parse(task.parameters["region"]))
    else:
        raise DerivationError(
            f"task {task.task_id} is not an interpolation task"
        )
    obj = manager.store.store(output_cls_name, values)
    manager.tasks.record(
        task.process_name,
        {name: ([manager.store.get(o) for o in oids]
                if len(oids) > 1 or name == "pieces"
                else manager.store.get(oids[0]))
         for name, oids in task.input_oids.items()},
        output_oids=(obj.oid,),
        parameters=dict(task.parameters),
    )
    return obj
