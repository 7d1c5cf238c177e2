"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates a paper artifact (figure) or quantifies a
paper claim (EXP-A…EXP-F from DESIGN.md).  Structural verification runs
inside each benchmark test so `pytest benchmarks/ --benchmark-only` is a
complete reproduction run; the printed tables are the "rows/series" the
EXPERIMENTS.md records.

Timing is opt-in: unless ``--benchmark-enable`` or ``--benchmark-only``
is given, each ``benchmark(...)`` body runs once, uncalibrated, and no
timing table is printed.  Every assertion still runs (the wall-clock
ones read their own timers), so the plain tier-1 run checks each
experiment without paying for rounds nobody reads.
"""

from __future__ import annotations

import pytest

from repro.figures import build_figure2, populate_scenes


def report(title: str, rows: list[tuple], header: tuple) -> None:
    """Print a small aligned table under a titled banner."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


@pytest.fixture()
def benchmark(benchmark, request):
    """pytest-benchmark's fixture, timing only when asked to."""
    config = request.config
    if not (config.getoption("benchmark_enable")
            or config.getoption("benchmark_only")):
        benchmark.disabled = True
    return benchmark


@pytest.fixture()
def catalog16():
    """Figure-2 catalog with small scenes (fast benchmarks)."""
    catalog = build_figure2()
    populate_scenes(catalog, seed=31, size=16, years=(1988, 1989))
    return catalog


@pytest.fixture()
def catalog48():
    """Figure-2 catalog with medium scenes (realistic image work)."""
    catalog = build_figure2()
    populate_scenes(catalog, seed=31, size=48, years=(1988, 1989))
    return catalog
