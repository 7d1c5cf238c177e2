"""Programmatic builders regenerating the paper's figures.

The paper has no tables; its evaluation surface is five figures.  Each
``build_figureN`` function constructs the corresponding artifact with the
public API so tests and benchmarks can verify structure and behaviour:

* Figure 1 — the Gaea system architecture (kernel component tree);
* Figure 2 — the three semantic layers: the desert/NDVI/vegetation-change
  concept DAG, the C*/P* class-and-process catalog, and the operator
  layer beneath;
* Figure 3 — the DEFINE PROCESS statement for unsupervised
  classification (P20), parsed from the paper's syntax;
* Figure 4 — the PCA compound operator as a five-node dataflow network;
* Figure 5 — the land-change-detection compound process.

The Figure-2 catalog follows the class/process identifiers the running
text names explicitly: C1 (rectified Landsat TM, base), C2–C5 (hot
trade-wind desert derivations, processes P2–P5, with P5 deriving the
concept *from itself* using C2), C6 (NDVI), C7/C8 (vegetation change by
PCA/SPCA, processes P7/P8), C20 (land cover, P20) and C21 (land-cover
changes, P21).  Identifiers the figure draws but the text never defines
(C10–C13 etc.) are represented by the base climate classes the desert
derivations need.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adt.dataflow import DataflowNetwork
from .adt.operators import OperatorRegistry
from .core.classes import SciObject
from .core.metadata_manager import MetadataManager
from .gis import SceneGenerator
from .query.client import Connection, connect
from .spatial.box import Box
from .temporal.abstime import AbsTime

__all__ = [
    "Figure2Catalog",
    "FIGURE3_SOURCE",
    "build_figure1",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "populate_scenes",
]

#: Study region used by all figure builders (roughly Africa in long/lat).
AFRICA = Box(-20.0, -35.0, 52.0, 38.0)


# ---------------------------------------------------------------------------
# Figure 1 — system architecture
# ---------------------------------------------------------------------------


def build_figure1() -> Connection:
    """A complete Gaea stack: kernel + interpreter, as Figure 1 wires it.

    The caller can verify :meth:`MetadataManager.component_tree` has the
    paper's boxes: metadata manager (data type/operator, derivation,
    experiment managers), interpreter (parser/optimizer/executor via the
    connection) and the backend.
    """
    return connect(universe=AFRICA)


# ---------------------------------------------------------------------------
# Figure 2 — the three semantic layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure2Catalog:
    """Handle to the built Figure-2 database."""

    connection: Connection
    concept_names: tuple[str, ...]
    class_names: tuple[str, ...]
    process_names: tuple[str, ...]

    @property
    def kernel(self) -> MetadataManager:
        """The kernel under the connection."""
        return self.connection.kernel


_FIGURE2_CLASSES = """
DEFINE CLASS avhrr_scene (
  ATTRIBUTES: area = char16; band = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS landsat_tm_rectified (
  ATTRIBUTES: area = char16; band = char16; ref_system = char16;
              ref_unit = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS rainfall_annual (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS temperature_annual (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS ndvi_c6 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P6
)
DEFINE CLASS veg_change_pca_c7 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P7
)
DEFINE CLASS veg_change_spca_c8 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P8
)
DEFINE CLASS desert_rain250_c2 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P2
)
DEFINE CLASS desert_rain200_c3 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P3
)
DEFINE CLASS desert_aridity_c4 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P4
)
DEFINE CLASS desert_smoothed_c5 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P5
)
DEFINE CLASS land_cover_c20 (
  ATTRIBUTES: area = char16; numclass = int4; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P20
)
DEFINE CLASS land_cover_changes_c21 (
  ATTRIBUTES: area = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P21
)
"""

_FIGURE2_PROCESSES = """
DEFINE PROCESS P6
OUTPUT ndvi_c6
ARGUMENT ( avhrr_scene red, avhrr_scene nir )
TEMPLATE {
  ASSERTIONS:
    str_eq(red.band, 'red');
    str_eq(nir.band, 'nir');
    time_eq(red.timestamp, nir.timestamp);
    img_size_eq(red.data, nir.data);
  MAPPINGS:
    ndvi_c6.data = ndvi(red.data, nir.data);
    ndvi_c6.area = red.area;
    ndvi_c6.spatialextent = red.spatialextent;
    ndvi_c6.timestamp = red.timestamp;
}
DEFINE PROCESS P7
OUTPUT veg_change_pca_c7
ARGUMENT ( SETOF ndvi_c6 series >= 2 )
TEMPLATE {
  ASSERTIONS:
    card(series) >= 2;
    common(series.spatialextent);
  MAPPINGS:
    veg_change_pca_c7.data = pca_change(series);
    veg_change_pca_c7.area = ANYOF series.area;
    veg_change_pca_c7.spatialextent = ANYOF series.spatialextent;
    veg_change_pca_c7.timestamp = ANYOF series.timestamp;
}
DEFINE PROCESS P8
OUTPUT veg_change_spca_c8
ARGUMENT ( SETOF ndvi_c6 series >= 2 )
TEMPLATE {
  ASSERTIONS:
    card(series) >= 2;
    common(series.spatialextent);
  MAPPINGS:
    veg_change_spca_c8.data = spca_change(series);
    veg_change_spca_c8.area = ANYOF series.area;
    veg_change_spca_c8.spatialextent = ANYOF series.spatialextent;
    veg_change_spca_c8.timestamp = ANYOF series.timestamp;
}
DEFINE PROCESS P2
OUTPUT desert_rain250_c2
ARGUMENT ( rainfall_annual rain )
TEMPLATE {
  MAPPINGS:
    desert_rain250_c2.data = desert_mask_rainfall(rain.data, $cutoff);
    desert_rain250_c2.area = rain.area;
    desert_rain250_c2.spatialextent = rain.spatialextent;
    desert_rain250_c2.timestamp = rain.timestamp;
  PARAMETERS:
    cutoff = 250.0;
}
DEFINE PROCESS P3
OUTPUT desert_rain200_c3
ARGUMENT ( rainfall_annual rain )
TEMPLATE {
  MAPPINGS:
    desert_rain200_c3.data = desert_mask_rainfall(rain.data, $cutoff);
    desert_rain200_c3.area = rain.area;
    desert_rain200_c3.spatialextent = rain.spatialextent;
    desert_rain200_c3.timestamp = rain.timestamp;
  PARAMETERS:
    cutoff = 200.0;
}
DEFINE PROCESS P4
OUTPUT desert_aridity_c4
ARGUMENT ( rainfall_annual rain, temperature_annual temp )
TEMPLATE {
  ASSERTIONS:
    img_size_eq(rain.data, temp.data);
  MAPPINGS:
    desert_aridity_c4.data = desert_mask_aridity(aridity_index(rain.data, temp.data), 10.0);
    desert_aridity_c4.area = rain.area;
    desert_aridity_c4.spatialextent = rain.spatialextent;
    desert_aridity_c4.timestamp = rain.timestamp;
}
DEFINE PROCESS P5
OUTPUT desert_smoothed_c5
ARGUMENT ( desert_rain250_c2 d )
TEMPLATE {
  MAPPINGS:
    desert_smoothed_c5.data = img_threshold_above(img_smooth(d.data, 2), 0.5);
    desert_smoothed_c5.area = d.area;
    desert_smoothed_c5.spatialextent = d.spatialextent;
    desert_smoothed_c5.timestamp = d.timestamp;
}
DEFINE PROCESS P20
OUTPUT land_cover_c20
ARGUMENT ( SETOF landsat_tm_rectified bands >= 3 )
TEMPLATE {
  ASSERTIONS:
    card(bands) = 3;
    common(bands.spatialextent);
    common(bands.timestamp);
  MAPPINGS:
    land_cover_c20.data = unsuperclassify(composite(bands), 12);
    land_cover_c20.numclass = 12;
    land_cover_c20.area = ANYOF bands.area;
    land_cover_c20.spatialextent = ANYOF bands.spatialextent;
    land_cover_c20.timestamp = ANYOF bands.timestamp;
}
DEFINE PROCESS P21
OUTPUT land_cover_changes_c21
ARGUMENT ( land_cover_c20 later, land_cover_c20 earlier )
TEMPLATE {
  ASSERTIONS:
    img_size_eq(later.data, earlier.data);
  MAPPINGS:
    land_cover_changes_c21.data = label_changes(later.data, earlier.data);
    land_cover_changes_c21.area = later.area;
    land_cover_changes_c21.spatialextent = later.spatialextent;
    land_cover_changes_c21.timestamp = later.timestamp;
}
"""

_FIGURE2_CONCEPTS = """
DEFINE CONCEPT remote_sensing_data MEMBERS avhrr_scene, landsat_tm_rectified
DEFINE CONCEPT landsat_tm ISA remote_sensing_data MEMBERS landsat_tm_rectified
DEFINE CONCEPT desert
DEFINE CONCEPT hot_trade_wind_desert ISA desert MEMBERS desert_rain250_c2, desert_rain200_c3, desert_aridity_c4, desert_smoothed_c5
DEFINE CONCEPT ice_snow_desert ISA desert
DEFINE CONCEPT ndvi_concept MEMBERS ndvi_c6
DEFINE CONCEPT vegetation_change MEMBERS veg_change_pca_c7, veg_change_spca_c8
DEFINE CONCEPT land_cover_concept MEMBERS land_cover_c20
DEFINE CONCEPT land_cover_changes_concept MEMBERS land_cover_changes_c21
"""


def build_figure2(connection: Connection | None = None) -> Figure2Catalog:
    """Build the Figure-2 catalog: classes, processes and concepts."""
    if connection is None:
        connection = connect(universe=AFRICA)
    connection.execute(_FIGURE2_CLASSES)
    connection.execute(_FIGURE2_PROCESSES)
    connection.execute(_FIGURE2_CONCEPTS)
    return Figure2Catalog(
        connection=connection,
        concept_names=(
            "remote_sensing_data", "landsat_tm", "desert",
            "hot_trade_wind_desert", "ice_snow_desert", "ndvi_concept",
            "vegetation_change", "land_cover_concept",
            "land_cover_changes_concept",
        ),
        class_names=(
            "avhrr_scene", "landsat_tm_rectified", "rainfall_annual",
            "temperature_annual", "ndvi_c6", "veg_change_pca_c7",
            "veg_change_spca_c8", "desert_rain250_c2", "desert_rain200_c3",
            "desert_aridity_c4", "desert_smoothed_c5", "land_cover_c20",
            "land_cover_changes_c21",
        ),
        process_names=(
            "P6", "P7", "P8", "P2", "P3", "P4", "P5", "P20", "P21",
        ),
    )


def populate_scenes(catalog: Figure2Catalog, seed: int = 7, size: int = 48,
                    years: tuple[int, ...] = (1988, 1989),
                    region: str = "africa") -> dict[str, list[SciObject]]:
    """Load synthetic base data into a Figure-2 catalog.

    Per year: one AVHRR red/nir pair, three rectified TM bands, plus the
    annual rainfall and temperature rasters.  Returns the stored objects
    by class name.
    """
    gen = SceneGenerator(seed=seed, nrow=size, ncol=size)
    store = catalog.kernel.store
    out: dict[str, list[SciObject]] = {}

    def keep(obj: SciObject) -> None:
        out.setdefault(obj.class_name, []).append(obj)

    for year in years:
        stamp = AbsTime.from_ymd(year, 7, 1)
        for band in ("red", "nir"):
            keep(store.store("avhrr_scene", {
                "area": region, "band": band,
                "data": gen.band(region, year, 7, band),
                "spatialextent": AFRICA, "timestamp": stamp,
            }))
        for band in ("red", "nir", "green"):
            keep(store.store("landsat_tm_rectified", {
                "area": region, "band": band,
                "ref_system": "long/lat", "ref_unit": "degree",
                "data": gen.band(region, year, 7, band),
                "spatialextent": AFRICA, "timestamp": stamp,
            }))
        keep(store.store("rainfall_annual", {
            "area": region, "data": gen.rainfall(region, year),
            "spatialextent": AFRICA, "timestamp": stamp,
        }))
        keep(store.store("temperature_annual", {
            "area": region, "data": gen.temperature(region, year),
            "spatialextent": AFRICA, "timestamp": stamp,
        }))
    return out


# ---------------------------------------------------------------------------
# Figure 3 — DEFINE PROCESS for unsupervised classification
# ---------------------------------------------------------------------------

#: The paper's Figure-3 statement in GaeaQL (P20 over rectified TM).
FIGURE3_SOURCE = """
DEFINE PROCESS unsupervised-classification
OUTPUT land_cover
ARGUMENT ( SETOF landsat_tm_rect bands >= 3 )
TEMPLATE {
  ASSERTIONS:
    card(bands) = 3;
    common(bands.spatialextent);
    common(bands.timestamp);
  MAPPINGS:
    land_cover.data = unsuperclassify(composite(bands), 12);
    land_cover.numclass = 12;
    land_cover.spatialextent = ANYOF bands.spatialextent;
    land_cover.timestamp = ANYOF bands.timestamp;
}
"""


def build_figure3(connection: Connection | None = None) -> Connection:
    """Define the Figure-3 class pair and the P20 process verbatim."""
    if connection is None:
        connection = connect(universe=AFRICA)
    connection.execute("""
    DEFINE CLASS landsat_tm_rect (
      ATTRIBUTES: band = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
    )
    DEFINE CLASS land_cover (
      ATTRIBUTES: numclass = int4; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: unsupervised-classification
    )
    """)
    connection.execute(FIGURE3_SOURCE)
    return connection


# ---------------------------------------------------------------------------
# Figure 4 — the PCA compound operator
# ---------------------------------------------------------------------------


def build_figure4(operators: OperatorRegistry,
                  name: str = "pca_network") -> DataflowNetwork:
    """The five-node PCA dataflow network exactly as Figure 4 draws it.

    ``SET OF image -> convert-image-matrix -> compute-covariance ->
    get-eigen-vector -> linear-combination -> convert-matrix-image ->
    SET OF image``.
    """
    net = DataflowNetwork(name=name, operators=operators,
                          doc="principal component analysis (Figure 4)")
    net.add_input("images", "setof image")
    net.add_node("to_matrices", "convert-image-matrix", ["@images"])
    net.add_node("covariance", "compute-covariance", ["to_matrices"])
    net.add_node("eigenvector", "get-eigen-vector", ["covariance"])
    net.add_node("combined", "linear-combination",
                 ["eigenvector", "to_matrices"])
    net.add_node("to_images", "convert-matrix-image", ["combined"])
    net.set_output("to_images")
    return net


# ---------------------------------------------------------------------------
# Figure 5 — the land-change-detection compound process
# ---------------------------------------------------------------------------


def build_figure5(catalog: Figure2Catalog) -> str:
    """Define Figure 5's compound process on a Figure-2 catalog.

    Two rectified-TM scenes are classified independently (the figure's
    two ``unsupervised classification`` boxes) and compared by P21 (the
    label-change comparison the figure routes into Land-Cover-Changes).
    Returns the compound's name.
    """
    catalog.connection.execute("""
    DEFINE COMPOUND PROCESS land-change-detection
    OUTPUT land_cover_changes_c21
    ARGUMENT ( SETOF landsat_tm_rectified tm_early >= 3,
               SETOF landsat_tm_rectified tm_late >= 3 )
    STEPS {
      classify_early: P20 ( bands = $tm_early );
      classify_late: P20 ( bands = $tm_late );
      compare: P21 ( later = classify_late, earlier = classify_early );
    }
    RESULT compare
    """)
    return "land-change-detection"
