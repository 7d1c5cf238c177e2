"""FIG-3 — regenerate the unsupervised-classification process definition.

Parses the paper's DEFINE PROCESS statement (verbatim structure: output
class, SETOF argument, card/common assertions, unsuperclassify∘composite
mapping, ANYOF extent transfer), executes it over synthetic rectified TM,
and verifies the assertions both pass and guard.
"""

import pytest
from conftest import report

from repro.errors import AssertionViolatedError
from repro.figures import AFRICA, FIGURE3_SOURCE, build_figure3
from repro.gis import SceneGenerator
from repro.query import parse_statement
from repro.temporal import AbsTime


def _loaded_connection(size=32):
    connection = build_figure3()
    generator = SceneGenerator(seed=17, nrow=size, ncol=size)
    stamp = AbsTime.from_ymd(1986, 1, 15)
    for band, image in zip(("red", "nir", "green"),
                           generator.scene("africa", 1986, 1)):
        connection.kernel.store.store("landsat_tm_rect", {
            "band": band, "data": image,
            "spatialextent": AFRICA, "timestamp": stamp,
        })
    return connection


def test_fig3_parse_definition(benchmark):
    stmt = benchmark(parse_statement, FIGURE3_SOURCE)
    assert stmt.name == "unsupervised-classification"
    assert stmt.output_class == "land_cover"
    assert len(stmt.assertions) == 3
    mappings = dict(stmt.mappings)
    assert str(mappings["data"]) == \
        "unsuperclassify(composite(bands.data), 12)"
    assert str(mappings["spatialextent"]) == "ANYOF bands.spatialextent"
    report("Figure 3: parsed process P20", [
        ("name", stmt.name),
        ("output", stmt.output_class),
        ("argument", str(stmt.arguments[0])),
        *[("assertion", str(a)) for a in stmt.assertions],
        *[(f"mapping {attr}", str(expr)) for attr, expr in stmt.mappings],
    ], header=("element", "value"))


def test_fig3_execute_p20(benchmark):
    connection = _loaded_connection()
    kernel = connection.kernel
    bands = kernel.store.objects("landsat_tm_rect")

    def run():
        return kernel.derivations.execute_process(
            "unsupervised-classification", {"bands": bands}, reuse=False,
        )

    result = benchmark(run)
    cover = result.output
    assert cover["numclass"] == 12
    assert int(cover["data"].data.max()) <= 11
    assert cover["spatialextent"] == AFRICA
    assert cover["timestamp"] == AbsTime.from_ymd(1986, 1, 15)


def test_fig3_assertions_guard(benchmark):
    """The template's guard rules actually reject bad inputs."""
    connection = _loaded_connection(size=16)
    kernel = connection.kernel
    bands = kernel.store.objects("landsat_tm_rect")
    generator = SceneGenerator(seed=18, nrow=16, ncol=16)
    stray = kernel.store.store("landsat_tm_rect", {
        "band": "red", "data": generator.band("africa", 1987, 1, "red"),
        "spatialextent": AFRICA, "timestamp": AbsTime.from_ymd(1987, 1, 15),
    })

    def violations():
        count = 0
        # card(bands) = 3 violated.
        try:
            kernel.derivations.execute_process(
                "unsupervised-classification", {"bands": bands[:2]})
        except AssertionViolatedError:
            count += 1
        # common(bands.timestamp) violated.
        try:
            kernel.derivations.execute_process(
                "unsupervised-classification",
                {"bands": [bands[0], bands[1], stray]})
        except AssertionViolatedError:
            count += 1
        return count

    assert benchmark(violations) == 2


@pytest.mark.parametrize("size", [16, 32, 64])
def test_fig3_p20_scaling(benchmark, size):
    """Classification cost vs. scene size (the task-level workload of the
    'land use classification for January 1986 for Africa' example)."""
    connection = _loaded_connection(size=size)
    kernel = connection.kernel
    bands = kernel.store.objects("landsat_tm_rect")

    def run():
        return kernel.derivations.execute_process(
            "unsupervised-classification", {"bands": bands}, reuse=False,
        )

    result = benchmark(run)
    assert result.output["data"].shape == (size, size)
