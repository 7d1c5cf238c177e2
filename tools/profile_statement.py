#!/usr/bin/env python
"""Where does one GaeaQL statement spend its time, layer by layer?

    python tools/profile_statement.py "<GaeaQL>" [--figure2 YEARS]
                                      [--runs N] [--size S] [--top K]

Prepares the statement on a fresh Figure-2 catalog holding YEARS years
of seeded scenes (1980 onwards, stamped 1 July; nothing derived), runs
it N times under ``cProfile`` (default: once per stored year) and prints
the profiled time per statement grouped by layer.  Every ``?`` is bound
to the stamp of the next stored year, so ``... WHERE timestamp = ?`` on
a derived class derives on every run, as the bench's ``derive_fallback``
pass 1 does; a statement without parameters derives on its first run
and retrieves afterwards.  The layers:

* ``kernel``        — ``OperatorRegistry.apply`` and what it calls (the
  ``gis``/``adt`` operators a process template evaluates);
* ``planner probes``— ``RetrievalPlanner._supply``: the stored-supply
  reads behind the Petri marking and the argument bindings;
* ``petri``         — ``core/petri.py``: building the derivation net and
  the backward search itself;
* ``store insert``  — ``ClassStore.store``: heap insert, index
  maintenance, commit;
* ``rest``          — everything else (parse/plan, the stored scan,
  task log, fetch).

A function's own time goes to the layer whose entry point it was called
under; one reached from several layers (``StorageEngine.snapshot``, say)
is split by the cumulative time its callers spent in it — exact wherever
a function serves a single layer.  ``cProfile`` charges every Python
call but not the work inside NumPy, so the shares lean towards
call-heavy layers: find candidates here, then measure with
``python3 bench/run.py --workload derive_fallback``.

Example::

    python tools/profile_statement.py \\
        "SELECT FROM land_cover_c20 WHERE timestamp = ?" --figure2 40
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import pstats
import sys
import warnings

REPO = pathlib.Path(__file__).resolve().parent.parent

#: layer -> entry points, as ``(path suffix, function name or None for
#: every function of the file)``.  The first match wins.
LAYERS: tuple[tuple[str, tuple[tuple[str, str | None], ...]], ...] = (
    ("kernel", (("repro/adt/operators.py", "apply"),)),
    ("planner probes", (("repro/core/planner.py", "_supply"),)),
    ("petri", (("repro/core/petri.py", None),)),
    ("store insert", (("repro/core/classes.py", "store"),)),
)
REST = "rest"


def entry_layer(func: tuple[str, int, str]) -> str | None:
    """The layer *func* (a pstats ``(file, line, name)`` key) opens."""
    path, _, name = func
    path = path.replace("\\", "/")
    for layer, entries in LAYERS:
        for suffix, wanted in entries:
            if path.endswith(suffix) and wanted in (None, name):
                return layer
    return None


def layer_times(stats: dict) -> dict[str, float]:
    """Own time per layer, in seconds, from a ``pstats`` table."""
    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func: tuple, trail: frozenset) -> dict[str, float]:
        if func in shares:
            return shares[func]
        layer = entry_layer(func)
        callers = stats[func][4] if func in stats else {}
        if layer is not None:
            out = {layer: 1.0}
        elif not callers or func in trail:
            return {REST: 1.0}  # a root, or recursion: not memoized
        else:
            # weight each caller by the cumulative time it spent here
            # (by call count when the timer saw nothing)
            weights = {c: edge[3] for c, edge in callers.items()}
            if not any(weights.values()):
                weights = {c: edge[0] for c, edge in callers.items()}
            total = sum(weights.values())
            out = {}
            for caller, weight in weights.items():
                for name, part in share_of(caller, trail | {func}).items():
                    out[name] = out.get(name, 0.0) + part * weight / total
        shares[func] = out
        return out

    times = {layer: 0.0 for layer, _ in LAYERS} | {REST: 0.0}
    for func, (_, _, own, _, _) in stats.items():
        for layer, part in share_of(func, frozenset()).items():
            times[layer] += own * part
    return times


FIRST_YEAR = 1980


def profile_statement(source: str, years: int = 5, runs: int | None = None,
                      size: int = 48) -> tuple[pstats.Stats, int, int]:
    """Profile *runs* executions of *source* (fetch included) on one
    fresh Figure-2 catalog with *years* years of base scenes; returns
    the stats, the runs made and the rows the last one returned."""
    import repro
    from repro.figures import build_figure2, populate_scenes
    from repro.temporal import AbsTime

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        catalog = build_figure2()
    populate_scenes(catalog, seed=1, size=size,
                    years=tuple(range(FIRST_YEAR, FIRST_YEAR + years)))
    conn = repro.connect(kernel=catalog.kernel)
    cursor = conn.cursor()
    query = conn.prepare(source)
    runs = runs or years
    profile = cProfile.Profile()
    rows = 0
    for run in range(runs):
        stamp = AbsTime.from_ymd(FIRST_YEAR + run % years, 7, 1)
        params = [stamp] * query.signature.positional
        profile.enable()
        try:
            rows = len(cursor.execute(query, params).fetchall())
        finally:
            profile.disable()
    return pstats.Stats(profile), runs, rows


def render(times: dict[str, float], runs: int) -> str:
    total = sum(times.values()) or 1.0
    lines = [f"{'layer':<16}{'ms/stmt':>10}{'share':>8}"]
    for layer, seconds in times.items():
        lines.append(f"{layer:<16}{seconds / runs * 1e3:>10.3f}"
                     f"{seconds / total:>8.1%}")
    lines.append(f"{'total':<16}{total / runs * 1e3:>10.3f}{1:>8.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("statement", help="one GaeaQL statement")
    parser.add_argument("--figure2", type=int, default=5, metavar="YEARS",
                        help="years of scenes in the catalog (default 5)")
    parser.add_argument("--runs", type=int, default=None,
                        help="executions to profile (default: YEARS)")
    parser.add_argument("--size", type=int, default=48,
                        help="scene edge in pixels (default 48)")
    parser.add_argument("--top", type=int, default=0, metavar="K",
                        help="also print the K functions with most own time")
    args = parser.parse_args(argv)
    stats, runs, rows = profile_statement(args.statement, args.figure2,
                                          args.runs, args.size)
    print(f"{args.statement}\n{runs} runs, {args.figure2} stored years,"
          f" {rows} row(s) in the last; profiled time per statement:")
    print(render(layer_times(stats.stats), runs))
    if args.top:
        stats.sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.path.append(str(REPO / "src"))  # PYTHONPATH, if set, wins
    raise SystemExit(main())
