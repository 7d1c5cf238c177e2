#!/usr/bin/env python
"""Lint the physical operators: batch hot loops, and one engine only.

The whole point of ``run_batches`` is that columns flow as NumPy
arrays; the classic performance regression is someone "fixing" a batch
operator by rebuilding a Python dict per row inside the batch loop,
which silently reverts the operator to row-at-a-time speed while
nothing in EXPLAIN changes.

This check parses the target modules and fails when a ``run_batches``
body constructs a populated dict (literal with keys, ``dict(...)``
with arguments, or a dict comprehension) inside loop context — a
``for``/``while`` statement or a comprehension, i.e. anything executed
once per element.  Empty ``{}`` accumulators and batch-level dicts
built outside loops are the intended idiom and stay legal.

It also fails when any class other than ``PhysicalOperator`` defines
``run``: the base class's flatten over ``run_batches`` is the only row
path, so a second, row-at-a-time execution engine cannot grow back
operator by operator.

A third check guards the stored-read path: no module under
``src/repro/`` may call the engine's ``Row``-yielding streams (``iter_lookup`` / ``iter_range`` /
``iter_spatial`` / ``iter_temporal`` / ``engine.scan``).  Stored rows
travel as value tuples through ``StorageEngine.value_batches`` and the
one ``ClassStore`` generator over it; the ``Row`` views exist for tests
and tooling and must not grow a ``src/`` consumer back.

A fourth check keeps §2.1.5 in one home: no module under ``src/repro/``
other than ``core/planner.py`` may read ``.fallback_order`` or name
``InterpolationError`` in an ``except`` clause.  Walking the fallback
steps and deciding which failures skip one is
``RetrievalPlanner.run_fallbacks``' job; everything else calls it.

A fifth check keeps the fetch path sliced: no module under
``src/repro/`` may call ``.fetchone(`` inside loop context.  The
cursors' one row buffer answers ``fetchmany`` / ``fetchall`` /
iteration / the server's fetch op by slicing the current batch; a loop
over ``fetchone()`` is the signature of one of them regressing to a
call (and, over the wire, a round trip) per row.

A sixth check keeps the write path single and append-only: under
``src/repro/`` only ``storage/engine.py`` may call a heap's ``insert``,
name ``LogKind.INSERT`` or assign to ``.xmin`` (``StorageEngine.insert``
is the one place a row version is created and logged, recovery replays
it there too, and ``StorageEngine.abort`` is the one place a version is
stamped ``ABORTED``), and no module outside ``spatial/``, ``gis/`` and
``server/protocol.py`` — where it is a box coordinate — may name
``xmax``: visibility reads the creating transaction alone, and a
deleter stamp must not grow back.

A seventh check keeps the transaction with its connection: under
``src/repro/`` only ``core/classes.py`` may construct a ``ContextVar``
(the one that carries the current context's ``View``), and no module
may name ``current_tx`` — a kernel-wide open-transaction slot that
every connection's reads and stores consult must not grow back.

An eighth check keeps rows crossing the wire as pages: in
``server/server.py`` and ``server/remote.py``, no ``encode_value`` /
``decode_value`` call may sit inside loop context.  Result rows travel
column-major through ``protocol.encode_page`` / ``decode_page``; a
per-row value-codec call there is the row-at-a-time regression.

A ninth check keeps the query tree's predicate re-checks compiled:
no module under ``src/repro/query/`` may call ``iter_find``, ``find``,
``matches_predicates`` or ``matches_extents``.  Operators read stored
rows as batches and re-check them with the masks of
``query/expressions.py`` (``compile_predicate_mask`` /
``compile_extent_mask``); one of those calls is the per-object
``SciObject`` path growing back into the tree.

Usage::

    python tools/lint_vectorized.py [path ...]

Defaults to ``src/repro/query/operators.py`` for the operator checks
and every module under ``src/repro/`` for the ``Row``-stream,
fallback-ladder, fetch-loop, write-path, view, wire-codec and
compiled-recheck checks; explicit paths get all of them (the wire-codec
check only when they are the two wire modules, the compiled-recheck
check only under ``query/``).
Exits non-zero and prints one ``file:line: message`` per violation.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

DEFAULT_TARGETS = ("src/repro/query/operators.py",)
SOURCE_ROOT = "src/repro"
ROW_STREAMS = frozenset(
    {"iter_lookup", "iter_range", "iter_spatial", "iter_temporal"})
LADDER_HOME = "core/planner.py"
WRITE_PATH_HOME = "storage/engine.py"
BOX_HOMES = ("repro/spatial/", "repro/gis/", "repro/server/protocol.py")
_XMAX = re.compile(r"\bxmax\b")
VIEW_HOME = "core/classes.py"
_CURRENT_TX = re.compile(r"\bcurrent_tx\b")
WIRE_MODULES = ("server/server.py", "server/remote.py")
VALUE_CODEC = frozenset({"encode_value", "decode_value"})
QUERY_TREE = "repro/query/"
ROW_RECHECKS = frozenset(
    {"iter_find", "find", "matches_predicates", "matches_extents"})

_LOOPS = (ast.For, ast.While, ast.AsyncFor,
          ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _dict_violation(node: ast.AST) -> str | None:
    """A message if *node* builds a populated dict, else None."""
    if isinstance(node, ast.Dict) and node.keys:
        return "dict literal built per iteration"
    if isinstance(node, ast.DictComp):
        return "dict comprehension built per iteration"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "dict" and (node.args or node.keywords):
        return "dict(...) built per iteration"
    return None


def _fetchone_violation(node: ast.AST) -> str | None:
    """A message if *node* is a ``<cursor>.fetchone(...)`` call."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "fetchone":
        return ("fetchone() called per iteration — slice the cursor's row "
                "buffer (fetchmany/fetchall/iteration), one call per page")
    return None


def _codec_violation(node: ast.AST) -> str | None:
    """A message if *node* calls ``encode_value``/``decode_value``."""
    if isinstance(node, ast.Call) \
            and any(_is_named(node.func, name) for name in VALUE_CODEC):
        return ("value codec called per iteration — rows cross the wire "
                "as pages (protocol.encode_page/decode_page)")
    return None


def _scan_loop_context(node: ast.AST, violations: list[tuple[int, str]],
                       in_loop: bool, violation=_dict_violation) -> None:
    """Walk *node*, recording what *violation* names under loops."""
    for child in ast.iter_child_nodes(node):
        child_in_loop = in_loop or isinstance(child, _LOOPS)
        if child_in_loop:
            message = violation(child)
            # A DictComp is itself loop context, but only flag it when
            # it executes repeatedly (i.e. it sits under another loop).
            if message is not None and (in_loop
                                        or not isinstance(child,
                                                          ast.DictComp)):
                violations.append((child.lineno, message))
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested helpers get their own fresh context.
            _scan_loop_context(child, violations, False, violation)
        else:
            _scan_loop_context(child, violations, child_in_loop, violation)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def check_source(source: str, filename: str = "<string>"
                 ) -> list[tuple[int, str]]:
    """``(line, message)`` violations in *source*: populated dicts built
    per iteration in a run_batches body, and ``run`` methods defined
    outside ``PhysicalOperator``."""
    tree = ast.parse(source, filename=filename)
    dicts: list[tuple[int, str]] = []
    violations: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS) and node.name == "run_batches":
            _scan_loop_context(node, dicts, in_loop=False)
        elif isinstance(node, ast.ClassDef) \
                and node.name != "PhysicalOperator":
            violations.extend(
                (item.lineno,
                 f"class {node.name} defines run() — only PhysicalOperator "
                 "may; implement run_batches (one execution engine)")
                for item in node.body
                if isinstance(item, _FUNCTIONS) and item.name == "run"
            )
    violations.extend(
        (line, f"run_batches {message} "
               "(per-row dict building defeats vectorization)")
        for line, message in dicts
    )
    return sorted(violations)


def _is_named(node: ast.AST, name: str) -> bool:
    """Whether *node* reads as ``name`` or ``<anything>.name``."""
    return (isinstance(node, ast.Name) and node.id == name) \
        or (isinstance(node, ast.Attribute) and node.attr == name)


def check_row_streams(source: str, filename: str = "<string>"
                      ) -> list[tuple[int, str]]:
    """``(line, message)`` for every call of a ``Row``-yielding engine
    stream in *source*."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if name in ROW_STREAMS \
                or (name == "scan" and _is_named(node.func.value, "engine")):
            violations.append(
                (node.lineno,
                 f"{name}() streams Row dicts — read stored rows through "
                 "ClassStore (value_batches), not the Row views"))
    return sorted(violations)


def check_fallback_ladder(source: str, filename: str = "<string>"
                          ) -> list[tuple[int, str]]:
    """``(line, message)`` for every read of ``.fallback_order`` and
    every ``except`` clause naming ``InterpolationError`` in *source*."""
    violations = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Attribute) \
                and node.attr == "fallback_order" \
                and isinstance(node.ctx, ast.Load):
            violations.append(
                (node.lineno,
                 "reads .fallback_order — the §2.1.5 ladder lives in "
                 f"{LADDER_HOME}; call RetrievalPlanner.run_fallbacks"))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None \
                and any(getattr(name, "id", getattr(name, "attr", None))
                        == "InterpolationError"
                        for name in ast.walk(node.type)):
            violations.append(
                (node.lineno,
                 "except clause names InterpolationError — which failures "
                 f"skip a §2.1.5 step is decided in {LADDER_HOME}; call "
                 "RetrievalPlanner.run_fallbacks"))
    return sorted(violations)


def check_fetch_loops(source: str, filename: str = "<string>"
                      ) -> list[tuple[int, str]]:
    """``(line, message)`` for every ``.fetchone(`` call under a
    ``for``/``while``/comprehension in *source*."""
    violations: list[tuple[int, str]] = []
    _scan_loop_context(ast.parse(source, filename=filename), violations,
                       False, _fetchone_violation)
    return sorted(violations)


def check_wire_codec(source: str, filename: str = "<string>"
                     ) -> list[tuple[int, str]]:
    """``(line, message)`` for every ``encode_value``/``decode_value``
    call under a ``for``/``while``/comprehension in *source*, when it is
    one of the wire modules."""
    violations: list[tuple[int, str]] = []
    if pathlib.PurePath(filename).as_posix().endswith(WIRE_MODULES):
        _scan_loop_context(ast.parse(source, filename=filename), violations,
                           False, _codec_violation)
    return sorted(violations)


def check_write_path(source: str, filename: str = "<string>"
                     ) -> list[tuple[int, str]]:
    """``(line, message)`` for every heap ``insert`` call,
    ``LogKind.INSERT`` reference and assignment to ``.xmin`` outside
    ``storage/engine.py``, and for every line naming ``xmax`` outside
    the box-coordinate modules."""
    path = pathlib.PurePath(filename).as_posix()
    violations = []
    if not path.endswith(WRITE_PATH_HOME):
        for node in ast.walk(ast.parse(source, filename=filename)):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "insert" \
                    and _is_named(node.func.value, "heap"):
                violations.append(
                    (node.lineno,
                     "heap insert() — StorageEngine.insert is the one "
                     f"write path ({WRITE_PATH_HOME})"))
            elif isinstance(node, ast.Attribute) and node.attr == "INSERT" \
                    and _is_named(node.value, "LogKind"):
                violations.append(
                    (node.lineno,
                     "names LogKind.INSERT — only StorageEngine logs and "
                     f"replays row inserts ({WRITE_PATH_HOME})"))
            elif isinstance(node, ast.Attribute) and node.attr == "xmin" \
                    and isinstance(node.ctx, ast.Store):
                violations.append(
                    (node.lineno,
                     "assigns .xmin — only StorageEngine's insert and abort "
                     f"stamp write visibility ({WRITE_PATH_HOME})"))
    if not any(home in path for home in BOX_HOMES):
        violations.extend(
            (number, "names xmax — storage is append-only: visibility "
                     "reads xmin alone, there is no deleter stamp")
            for number, line in enumerate(source.splitlines(), start=1)
            if _XMAX.search(line))
    return sorted(violations)


def check_views(source: str, filename: str = "<string>"
                ) -> list[tuple[int, str]]:
    """``(line, message)`` for every ``ContextVar(...)`` constructed
    outside ``core/classes.py`` and every line naming ``current_tx``."""
    violations = []
    if not pathlib.PurePath(filename).as_posix().endswith(VIEW_HOME):
        violations.extend(
            (node.lineno,
             "constructs a ContextVar — the current view is the one "
             f"piece of context state ({VIEW_HOME})")
            for node in ast.walk(ast.parse(source, filename=filename))
            if isinstance(node, ast.Call)
            and _is_named(node.func, "ContextVar"))
    violations.extend(
        (number, "names current_tx — a transaction belongs to its "
                 "connection's view, not to the kernel")
        for number, line in enumerate(source.splitlines(), start=1)
        if _CURRENT_TX.search(line))
    return sorted(violations)


def check_compiled_rechecks(source: str, filename: str = "<string>"
                            ) -> list[tuple[int, str]]:
    """``(line, message)`` for every call of a per-object find or
    predicate re-check in *source*, when it is under ``query/``."""
    if QUERY_TREE not in pathlib.PurePath(filename).as_posix():
        return []
    return sorted(
        (node.lineno,
         f"{name}() — the query tree reads stored rows as batches and "
         "re-checks them with compiled masks (compile_predicate_mask / "
         "compile_extent_mask)")
        for node in ast.walk(ast.parse(source, filename=filename))
        if isinstance(node, ast.Call)
        for name in ROW_RECHECKS if _is_named(node.func, name))


def check_paths(paths: list[str], check=check_source) -> list[str]:
    """Formatted ``file:line: message`` violations of *check* across
    *paths*."""
    out = []
    for path in paths:
        text = pathlib.Path(path).read_text()
        for line, message in check(text, filename=path):
            out.append(f"{path}:{line}: {message}")
    return out


def main(argv: list[str]) -> int:
    targets = argv or list(DEFAULT_TARGETS)
    sources = argv or sorted(
        str(path) for path in pathlib.Path(SOURCE_ROOT).rglob("*.py"))
    problems = check_paths(targets) \
        + check_paths(sources, check_row_streams) \
        + check_paths(sources, check_fetch_loops) \
        + check_paths(sources, check_write_path) \
        + check_paths(sources, check_views) \
        + check_paths(sources, check_wire_codec) \
        + check_paths(sources, check_compiled_rechecks) \
        + check_paths([path for path in sources
                       if not path.endswith(LADDER_HOME)],
                      check_fallback_ladder)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(f"lint_vectorized: {len(set(targets) | set(sources))} "
          "file(s) clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
