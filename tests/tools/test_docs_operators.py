"""The docs name the operators that exist: every operator label in a
fenced EXPLAIN example under ``docs/`` is an operator class of
``query/operators.py``, and ``docs/architecture.md`` names every
physical operator class there — so a deleted or renamed operator
cannot linger in the docs, nor a new one go undocumented."""

import inspect
import pathlib
import re

from repro.query import operators

DOCS = pathlib.Path(__file__).resolve().parent.parent.parent / "docs"

#: A fenced block that is an EXPLAIN example: it says EXPLAIN or draws a
#: tree.
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
#: An operator label opening a tree line, after any ``-- `` comment
#: prefix and tree-drawing characters.
_LABEL = re.compile(r"^(?:--)?[\s│├└─]*([A-Z][A-Za-z]*)\(", re.M)


def _explain_labels() -> dict[str, set[str]]:
    labels: dict[str, set[str]] = {}
    for doc in sorted(DOCS.glob("*.md")):
        for block in _FENCE.findall(doc.read_text(encoding="utf-8")):
            if "EXPLAIN" in block or "─" in block:
                for name in _LABEL.findall(block):
                    labels.setdefault(name, set()).add(doc.name)
    return labels


def _operator_classes() -> set[str]:
    return {
        name for name, cls in inspect.getmembers(operators, inspect.isclass)
        if cls.__module__ == operators.__name__
        and issubclass(cls, operators.PhysicalOperator)
        and cls is not operators.PhysicalOperator
        and not name.startswith("_")
    }


def test_explain_examples_quote_real_operators():
    labels = _explain_labels()
    assert "FallbackSwitch" in labels  # the examples were found at all
    unknown = {name: sorted(docs) for name, docs in labels.items()
               if name not in _operator_classes()}
    assert unknown == {}


def test_architecture_names_every_operator():
    text = (DOCS / "architecture.md").read_text(encoding="utf-8")
    missing = sorted(name for name in _operator_classes()
                     if not re.search(rf"\b{name}\b", text))
    assert missing == []
