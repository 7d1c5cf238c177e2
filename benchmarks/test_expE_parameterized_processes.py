"""EXP-E — same method, different parameters ⇒ different processes (§2.1.2).

"One scientist may choose to derive a desertic region based on rainfall
less than 250mm, while another one chooses 200mm for the same parameter.
We make the assumption that the same derivation method with different
parameters represents different processes."

The experiment derives both variants (P2/C2 at 250 mm, P3/C3 at 200 mm),
verifies they are distinct processes producing distinct classes with
genuinely different classifications, and that both remain independently
retrievable — the capability the §1 sharing scenario needs.
"""

import numpy as np
from conftest import report

from repro.figures import build_figure2, populate_scenes


def _catalog(size=32):
    catalog = build_figure2()
    populate_scenes(catalog, seed=91, size=size, years=(1988,))
    return catalog


def test_expE_derive_both_variants(benchmark):
    def run():
        catalog = _catalog(size=16)
        [d250] = catalog.connection.execute("SELECT FROM desert_rain250_c2")
        [d200] = catalog.connection.execute("SELECT FROM desert_rain200_c3")
        return catalog, d250.objects[0], d200.objects[0]

    catalog, c2, c3 = benchmark(run)
    assert c2.class_name != c3.class_name


def test_expE_distinct_processes_distinct_results(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    catalog = _catalog()
    kernel = catalog.kernel
    c2 = catalog.connection.execute("SELECT FROM desert_rain250_c2")[0].objects[0]
    c3 = catalog.connection.execute("SELECT FROM desert_rain200_c3")[0].objects[0]

    p2 = kernel.derivations.processes.get("P2")
    p3 = kernel.derivations.processes.get("P3")
    frac250 = float(np.mean(c2["data"].data != 0))
    frac200 = float(np.mean(c3["data"].data != 0))
    subset = bool(np.all(~(c3["data"].data != 0) | (c2["data"].data != 0)))

    report("EXP-E: parameterized desert classification", [
        ("P2 (cutoff 250mm)", str(p2.parameters), f"{frac250:.3f}"),
        ("P3 (cutoff 200mm)", str(p3.parameters), f"{frac200:.3f}"),
    ], header=("process", "parameters", "desert fraction"))

    assert p2.parameters == {"cutoff": 250.0}
    assert p3.parameters == {"cutoff": 200.0}
    assert frac250 > frac200 > 0.0
    assert subset  # 200mm deserts ⊂ 250mm deserts

    # Provenance distinguishes the two derivations of the same concept.
    assert kernel.provenance.same_concept_different_derivation(c2.oid,
                                                               c3.oid)
    concepts = kernel.concepts.concepts_of_class(c2.class_name)
    assert concepts == kernel.concepts.concepts_of_class(c3.class_name)


def test_expE_editing_creates_new_process(benchmark):
    """§2.1.4 obs. 3: editing never overwrites; a third scientist's
    150 mm variant coexists with both originals."""
    catalog = _catalog(size=16)
    kernel = catalog.kernel

    def edit_and_run():
        name = f"P2_strict_{edit_and_run.n}"
        edit_and_run.n += 1
        p2 = kernel.derivations.processes.get("P2")
        if name not in kernel.derivations.processes:
            strict = p2.edited(name, parameters={"cutoff": 150.0})
            kernel.derivations.define_process(strict)
        rain = kernel.store.objects("rainfall_annual")[0]
        return kernel.derivations.execute_process(name, {"rain": rain})

    edit_and_run.n = 0
    result = benchmark(edit_and_run)
    # The edited process derived into P2's output class with the stricter
    # cutoff — fewer desert pixels than the 200 mm variant.
    [c3] = catalog.connection.execute("SELECT FROM desert_rain200_c3")
    frac150 = float(np.mean(result.output["data"].data != 0))
    frac200 = float(np.mean(c3.objects[0]["data"].data != 0))
    assert frac150 <= frac200
    # P2 itself is untouched.
    assert kernel.derivations.processes.get("P2").parameters == {
        "cutoff": 250.0
    }


def test_expE_concept_query_returns_all_variants(benchmark):
    catalog = _catalog(size=16)

    def query():
        return catalog.connection.execute("SELECT FROM hot_trade_wind_desert")

    [result] = benchmark(query)
    assert {obj.class_name for obj in result.objects} == {
        "desert_rain250_c2", "desert_rain200_c3",
        "desert_aridity_c4", "desert_smoothed_c5",
    }
