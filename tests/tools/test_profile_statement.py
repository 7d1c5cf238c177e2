"""``tools/profile_statement.py`` smoke test: one deriving statement on
a small Figure-2 catalog prints every layer, and the layers account for
all of the profiled time."""

import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import profile_statement  # noqa: E402

SQL = "SELECT FROM land_cover_c20 WHERE timestamp = ?"


def test_layer_table_for_a_deriving_statement(capsys):
    assert profile_statement.main([SQL, "--figure2", "3", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "3 runs, 3 stored years, 1 row(s)" in out
    for layer in ("kernel", "planner probes", "petri", "store insert",
                  "rest", "total"):
        assert f"\n{layer} " in out


def test_layers_partition_the_profiled_time():
    stats, runs, rows = profile_statement.profile_statement(
        SQL, years=2, size=8)
    assert (runs, rows) == (2, 1)
    times = profile_statement.layer_times(stats.stats)
    assert sum(times.values()) == pytest.approx(stats.total_tt)
    # P20's k-means runs under OperatorRegistry.apply; every run stores
    # the derived object and probes the supply of the bands
    assert times["kernel"] > 0
    assert times["store insert"] > 0
    assert times["planner probes"] > 0
    assert times["petri"] > 0
