"""Built-in scalar primitive classes.

Registers the primitive classes named throughout the paper — ``int2``,
``int4``, ``float4``, ``float8``, ``char``, ``char16``, ``bool`` — plus the
extent carriers ``box`` (spatial bounding box) and ``abstime`` (absolute
time), which Figure 3 and the ``landcover`` class definition use as
attribute types.

Each class gets a validator that normalizes to the canonical internal
representation (e.g. ``int4`` clamps nothing but *checks* range, because a
scientific DBMS should refuse silently-wrapping values) and an external
string representation.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from ..errors import ValueRepresentationError
from ..spatial.box import Box
from ..temporal.abstime import AbsTime
from .registry import PrimitiveClass, TypeRegistry
from .values import Representation, identity_representation

__all__ = ["register_scalar_primitives", "INT2_RANGE", "INT4_RANGE"]

INT2_RANGE = (-(2**15), 2**15 - 1)
INT4_RANGE = (-(2**31), 2**31 - 1)


def _validate_int(lo: int, hi: int, name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ValueRepresentationError(f"{name}: bool is not an integer")
    if isinstance(value, np.integer):
        value = int(value)
    if not isinstance(value, int):
        raise ValueRepresentationError(
            f"{name}: expected int, got {type(value).__name__}"
        )
    if not lo <= value <= hi:
        raise ValueRepresentationError(f"{name}: {value} out of range [{lo},{hi}]")
    return value


def _int_validator(lo: int, hi: int, name: str):
    # functools.partial of a module-level function: picklable, unlike a
    # closure — kernel checkpoints serialize the type registry.
    return partial(_validate_int, lo, hi, name)


def _validate_float(name: str, single: bool, value: Any) -> float | None:
    if isinstance(value, bool):
        raise ValueRepresentationError(f"{name}: bool is not a float")
    if isinstance(value, (np.floating, np.integer)):
        value = float(value)
    if isinstance(value, int):
        value = float(value)
    if not isinstance(value, float):
        raise ValueRepresentationError(
            f"{name}: expected float, got {type(value).__name__}"
        )
    if value != value:
        return None  # NaN is stored as NULL, as sqlite3 stores it
    if single:
        # Normalize through float32 the way a 4-byte column would.
        value = float(np.float32(value))
    # -0.0 is stored as 0.0: equal keys, so one spelling (an index-only
    # scan returns the B-tree's first-inserted spelling of a key).
    return 0.0 if value == 0.0 else value


def _float_validator(name: str, single: bool):
    return partial(_validate_float, name, single)


def _validate_char(limit: int | None, name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ValueRepresentationError(
            f"{name}: expected str, got {type(value).__name__}"
        )
    if limit is not None and len(value) > limit:
        raise ValueRepresentationError(
            f"{name}: length {len(value)} exceeds limit {limit}"
        )
    return value


def _char_validator(limit: int | None, name: str):
    return partial(_validate_char, limit, name)


def _bool_validator(value: Any) -> bool:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueRepresentationError(f"bool: expected bool, got {type(value).__name__}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except (ValueError, AttributeError) as exc:
        raise ValueRepresentationError(f"bad integer literal {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except (ValueError, AttributeError) as exc:
        raise ValueRepresentationError(f"bad float literal {text!r}") from exc


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("t", "true", "1"):
        return True
    if lowered in ("f", "false", "0"):
        return False
    raise ValueRepresentationError(f"bad boolean literal {text!r}")


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_box(text: str) -> Box:
    return Box.parse(text)


def _parse_abstime(text: str) -> AbsTime:
    return AbsTime.parse(text)


def register_scalar_primitives(registry: TypeRegistry) -> None:
    """Register the paper's scalar primitive classes into *registry*.

    The hierarchy mirrors how a user would browse it: ``numeric`` and
    ``character`` abstract roots with concrete width-specific leaves.
    """
    registry.register(
        PrimitiveClass(
            name="numeric",
            validate=_float_validator("numeric", single=False),
            representation=Representation(parse=_parse_float, format=repr),
            doc="Abstract numeric root (browsing only).",
        )
    )
    registry.register(
        PrimitiveClass(
            name="int2",
            validate=_int_validator(*INT2_RANGE, "int2"),
            representation=Representation(parse=_parse_int, format=str),
            parent="numeric",
            doc="16-bit signed integer.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="int4",
            validate=_int_validator(*INT4_RANGE, "int4"),
            representation=Representation(parse=_parse_int, format=str),
            parent="numeric",
            doc="32-bit signed integer.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="float4",
            validate=_float_validator("float4", single=True),
            representation=Representation(parse=_parse_float, format=repr),
            parent="numeric",
            doc="Single-precision float (normalized through float32).",
        )
    )
    registry.register(
        PrimitiveClass(
            name="float8",
            validate=_float_validator("float8", single=False),
            representation=Representation(parse=_parse_float, format=repr),
            parent="numeric",
            doc="Double-precision float.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="character",
            validate=_char_validator(None, "character"),
            representation=identity_representation(),
            doc="Abstract character root (browsing only).",
        )
    )
    registry.register(
        PrimitiveClass(
            name="char16",
            validate=_char_validator(16, "char16"),
            representation=identity_representation(),
            parent="character",
            doc="Character string of at most 16 bytes (paper's char16).",
        )
    )
    registry.register(
        PrimitiveClass(
            name="text",
            validate=_char_validator(None, "text"),
            representation=identity_representation(),
            parent="character",
            doc="Unbounded character string.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="bool",
            validate=_bool_validator,
            representation=Representation(
                parse=_parse_bool, format=_format_bool
            ),
            doc="Boolean.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="box",
            validate=Box.validate,
            representation=Representation(parse=_parse_box, format=str),
            doc="Spatial bounding box: the SPATIAL EXTENT carrier.",
        )
    )
    registry.register(
        PrimitiveClass(
            name="abstime",
            validate=AbsTime.validate,
            representation=Representation(parse=_parse_abstime, format=str),
            doc="Absolute time: the TEMPORAL EXTENT carrier.",
        )
    )
