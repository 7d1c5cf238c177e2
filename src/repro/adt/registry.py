"""Type registry: the primitive-class half of the ADT facility.

In Gaea (paper §2.1.3) the system level manages *primitive classes* —
abstract data types encapsulated with the operators that apply to them.
Our registry substitutes for the POSTGRES ADT facility the prototype used:
users can define new primitive classes dynamically, browse them in a
hierarchy, and attach operators (see :mod:`repro.adt.operators`).

A primitive class consists of:

* a name (``int4``, ``float8``, ``char16``, ``image``, ...),
* a validator for internal values,
* an external/internal :class:`~repro.adt.values.Representation`,
* an optional parent class name, giving the browsable hierarchy the paper
  describes ("all the primitive classes and their operators are managed
  in a hierarchical structure", §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import (
    TypeAlreadyRegisteredError,
    UnknownTypeError,
    ValueRepresentationError,
)
from .values import Representation

__all__ = ["PrimitiveClass", "TypeRegistry"]


@dataclass(frozen=True)
class PrimitiveClass:
    """A system-level primitive class (an ADT).

    ``validate`` returns the (possibly normalized) internal value or raises
    :class:`~repro.errors.ValueRepresentationError`.
    """

    name: str
    validate: Callable[[Any], Any]
    representation: Representation
    parent: str | None = None
    doc: str = ""

    def parse(self, text: str) -> Any:
        """Parse an external-representation string to an internal value."""
        return self.validate(self.representation.parse(text))

    def format(self, value: Any) -> str:
        """Format an internal value as its external representation."""
        return self.representation.format(self.validate(value))

    def accepts(self, value: Any) -> bool:
        """Return ``True`` when *value* is a valid instance of this class."""
        try:
            self.validate(value)
        except ValueRepresentationError:
            return False
        return True


@dataclass
class TypeRegistry:
    """Registry of primitive classes with hierarchy browsing.

    The registry is deliberately an instance (not module state) so that a
    Gaea kernel owns its own extensible type system, as the Postgres ADT
    facility is owned by a database.
    """

    _classes: dict[str, PrimitiveClass] = field(default_factory=dict)

    def register(self, cls: PrimitiveClass) -> PrimitiveClass:
        """Register *cls*; raises if the name is taken or the parent is
        unknown."""
        if cls.name in self._classes:
            raise TypeAlreadyRegisteredError(cls.name)
        if cls.parent is not None and cls.parent not in self._classes:
            raise UnknownTypeError(
                f"parent {cls.parent!r} of {cls.name!r} is not registered"
            )
        self._classes[cls.name] = cls
        return cls

    def get(self, name: str) -> PrimitiveClass:
        """Return the primitive class called *name*."""
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownTypeError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __iter__(self) -> Iterator[PrimitiveClass]:
        return iter(self._classes.values())

    def __len__(self) -> int:
        return len(self._classes)

    def names(self) -> list[str]:
        """All registered primitive-class names, in registration order."""
        return list(self._classes)

    def children(self, name: str) -> list[PrimitiveClass]:
        """Direct subclasses of *name* in the browsable hierarchy."""
        self.get(name)
        return [cls for cls in self._classes.values() if cls.parent == name]

    def ancestors(self, name: str) -> list[PrimitiveClass]:
        """Chain of parents of *name*, nearest first."""
        chain: list[PrimitiveClass] = []
        current = self.get(name)
        while current.parent is not None:
            current = self.get(current.parent)
            chain.append(current)
        return chain

    def is_subtype(self, name: str, ancestor: str) -> bool:
        """True when *name* equals *ancestor* or descends from it."""
        if name == ancestor:
            self.get(name)
            return True
        return any(cls.name == ancestor for cls in self.ancestors(name))

    def roots(self) -> list[PrimitiveClass]:
        """Primitive classes with no parent (hierarchy roots)."""
        return [cls for cls in self._classes.values() if cls.parent is None]

    def tree(self) -> dict[str, list[str]]:
        """Adjacency mapping parent name -> child names for browsing."""
        out: dict[str, list[str]] = {cls.name: [] for cls in self._classes.values()}
        for cls in self._classes.values():
            if cls.parent is not None:
                out[cls.parent].append(cls.name)
        return out
