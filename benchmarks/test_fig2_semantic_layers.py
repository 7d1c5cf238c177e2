"""FIG-2 — regenerate the three semantic layers.

Builds the full Figure-2 catalog (concept DAG over deserts / NDVI /
vegetation change; derivation-layer classes C2–C21 with processes
P2–P21; the operator layer beneath) and verifies every relationship the
figure draws, then prints the three-layer listing.
"""

from conftest import report

from repro.figures import build_figure2


EXPECTED_CONCEPT_CLASSES = {
    "hot_trade_wind_desert": {
        "desert_rain250_c2", "desert_rain200_c3",
        "desert_aridity_c4", "desert_smoothed_c5",
    },
    "ndvi_concept": {"ndvi_c6"},
    "vegetation_change": {"veg_change_pca_c7", "veg_change_spca_c8"},
    "land_cover_concept": {"land_cover_c20"},
}

EXPECTED_DERIVED_BY = {
    "desert_rain250_c2": "P2",
    "desert_rain200_c3": "P3",
    "desert_aridity_c4": "P4",
    "desert_smoothed_c5": "P5",
    "ndvi_c6": "P6",
    "veg_change_pca_c7": "P7",
    "veg_change_spca_c8": "P8",
    "land_cover_c20": "P20",
    "land_cover_changes_c21": "P21",
}


def _verify(catalog) -> None:
    kernel = catalog.kernel
    # High-level layer: the ISA DAG of Figure 2.
    assert kernel.concepts.children("desert") == {
        "hot_trade_wind_desert", "ice_snow_desert"
    }
    assert kernel.concepts.parents("landsat_tm") == {"remote_sensing_data"}
    for concept, classes in EXPECTED_CONCEPT_CLASSES.items():
        assert kernel.concepts.classes_of(concept) == classes
    # Derivation layer: every derived class names its process.
    for class_name, process in EXPECTED_DERIVED_BY.items():
        assert kernel.classes.get(class_name).derived_by == process
        assert process in kernel.derivations.processes
    # System layer: the operators the processes apply are registered.
    for op in ("ndvi", "unsuperclassify", "composite", "pca_change",
               "spca_change", "desert_mask_rainfall", "aridity_index"):
        assert op in kernel.operators


def test_fig2_build_catalog(benchmark):
    catalog = benchmark(build_figure2)
    _verify(catalog)
    kernel = catalog.kernel
    rows = []
    for concept in catalog.concept_names:
        parents = sorted(kernel.concepts.parents(concept))
        members = sorted(kernel.concepts.get(concept).member_classes)
        rows.append((concept,
                     ",".join(parents) or "-",
                     ",".join(members) or "-"))
    report("Figure 2 / high-level layer: concepts", rows,
           header=("concept", "ISA", "member classes"))
    rows = [
        (name, EXPECTED_DERIVED_BY.get(name, "(base)"))
        for name in catalog.class_names
    ]
    report("Figure 2 / derivation layer: classes", rows,
           header=("class", "derived by"))
    rows = [
        (p, str(kernel.derivations.processes.get(p).input_classes),
         kernel.derivations.processes.get(p).output_class)
        for p in catalog.process_names
    ]
    report("Figure 2 / derivation layer: processes", rows,
           header=("process", "inputs", "output"))


def test_fig2_concept_query(benchmark, catalog16):
    """Query a concept: the high-level entry point of the layer stack."""
    connection = catalog16.connection

    def query():
        return connection.execute("SELECT FROM hot_trade_wind_desert")

    [result] = benchmark(query)
    assert {obj.class_name for obj in result.objects} == \
        EXPECTED_CONCEPT_CLASSES["hot_trade_wind_desert"]


def test_fig2_layer_mapping_consistency(benchmark, catalog16):
    """Every leaf concept's classes are materialized and derivable."""
    kernel = catalog16.kernel

    def check():
        count = 0
        for concept in ("hot_trade_wind_desert", "ndvi_concept",
                        "vegetation_change"):
            for class_name in kernel.concepts.classes_of(concept):
                explanation = kernel.planner.explain(class_name)
                assert explanation["path"] in ("retrieve", "derive")
                count += 1
        return count

    assert benchmark(check) == 7
