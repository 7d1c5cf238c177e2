"""EXP-G — costs of the future-work extensions.

Beyond the paper: interactive-process overhead (resolution + replay),
spatial-mosaic interpolation vs. re-derivation, and kernel checkpoint
save/load throughput.
"""

import numpy as np
import pytest
from conftest import report

from repro.adt import Image, Matrix
from repro.core import (
    AnyOf,
    Apply,
    Argument,
    AttrRef,
    NonPrimitiveClass,
    ParamRef,
    Process,
    load_kernel,
    open_kernel,
    save_kernel,
)
from repro.figures import AFRICA, build_figure2, populate_scenes
from repro.gis import register_gis_operators
from repro.spatial import Box
from repro.temporal import AbsTime


def _interactive_kernel(size=32):
    kernel = open_kernel(universe=AFRICA)
    register_gis_operators(kernel.operators)
    kernel.derivations.define_class(NonPrimitiveClass(
        name="tm_scene",
        attributes=(("band", "char16"), ("data", "image"),
                    ("spatialextent", "box"), ("timestamp", "abstime")),
    ))
    kernel.derivations.define_class(NonPrimitiveClass(
        name="supervised_cover",
        attributes=(("data", "image"), ("spatialextent", "box"),
                    ("timestamp", "abstime")),
        derived_by="supervised-classification",
    ))
    kernel.derivations.define_process(Process(
        name="supervised-classification",
        output_class="supervised_cover",
        arguments=(Argument(name="bands", class_name="tm_scene",
                            is_set=True, min_cardinality=2),),
        interactions={"signatures": "digitize training signatures"},
        mappings={
            "data": Apply("superclassify",
                          (Apply("composite", (AttrRef("bands", "data"),)),
                           ParamRef("signatures"))),
            "spatialextent": AnyOf(AttrRef("bands", "spatialextent")),
            "timestamp": AnyOf(AttrRef("bands", "timestamp")),
        },
    ))
    from repro.gis import SceneGenerator

    generator = SceneGenerator(seed=14, nrow=size, ncol=size)
    bands = [
        kernel.store.store("tm_scene", {
            "band": name, "data": generator.band("africa", 1986, 7, name),
            "spatialextent": AFRICA,
            "timestamp": AbsTime.from_ymd(1986, 7, 1),
        })
        for name in ("red", "nir")
    ]
    return kernel, bands


SIGNATURES = Matrix.from_array([[0.05, 0.03], [0.06, 0.45]])


def test_expG_interactive_execution(benchmark):
    kernel, bands = _interactive_kernel()

    def run():
        return kernel.derivations.execute_process(
            "supervised-classification", {"bands": bands},
            interaction_handler=lambda n, p: SIGNATURES, reuse=False,
        )

    result = benchmark(run)
    assert result.task.parameters["signatures"] == SIGNATURES


def test_expG_interactive_replay(benchmark):
    kernel, bands = _interactive_kernel()
    original = kernel.derivations.execute_process(
        "supervised-classification", {"bands": bands},
        interaction_handler=lambda n, p: SIGNATURES,
    )

    def replay():
        return kernel.derivations.reproduce_task(original.task.task_id)

    rerun = benchmark(replay)
    assert rerun.output["data"] == original.output["data"]


def _mosaic_kernel(tiles=4, size=32):
    kernel = open_kernel(universe=AFRICA)
    register_gis_operators(kernel.operators)
    kernel.derivations.define_class(NonPrimitiveClass(
        name="elevation",
        attributes=(("area", "char16"), ("data", "image"),
                    ("spatialextent", "box"), ("timestamp", "abstime")),
    ))
    for i in range(tiles):
        kernel.store.store("elevation", {
            "area": "ridge",
            "data": Image.from_array(
                np.full((size, size), 100.0 * (i + 1)), "float4"),
            "spatialextent": Box(8.0 * i, 0.0, 8.0 * i + 10.0, 10.0),
            "timestamp": AbsTime(0),
        })
    return kernel


@pytest.mark.parametrize("tiles", [2, 4, 8])
def test_expG_mosaic_scaling(benchmark, tiles):
    kernel = _mosaic_kernel(tiles=tiles)
    query = Box(2.0, 2.0, 8.0 * (tiles - 1) + 8.0, 8.0)

    def setup():
        return (_mosaic_kernel(tiles=tiles),), {}

    def run(fresh):
        return fresh.planner.retrieve("elevation", spatial=query,
                                      spatial_coverage=True)

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert result.path == "interpolate"
    assert kernel is not None


def test_expG_checkpoint_roundtrip(benchmark, tmp_path):
    catalog = build_figure2()
    populate_scenes(catalog, seed=19, size=32, years=(1988, 1989))
    catalog.connection.execute("SELECT FROM desert_rain250_c2")
    path = tmp_path / "kernel.ckpt"
    counter = iter(range(10_000))

    def roundtrip():
        target = tmp_path / f"k{next(counter)}.ckpt"
        written = save_kernel(catalog.kernel, target)
        restored = load_kernel(target)
        return written, restored

    written, restored = benchmark(roundtrip)
    assert restored.store.count("desert_rain250_c2") == 1
    report("EXP-G: kernel checkpoint", [
        ("classes", len(restored.classes.names())),
        ("stored objects (landsat bands)", restored.store.count(
            "landsat_tm_rectified")),
        ("recorded tasks", len(restored.derivations.tasks)),
        ("checkpoint size", f"{written / 1024:.0f} KiB"),
    ], header=("quantity", "value"))
    assert path is not None
