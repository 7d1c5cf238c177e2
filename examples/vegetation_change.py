"""Vegetation change in Africa, 1988 vs 1989 — the paper's §1 scenario.

Two scientists study the same question with different derivations:

* scientist A subtracts the 1988 NDVI from the 1989 NDVI;
* scientist B divides the 1989 NDVI by the 1988 NDVI.

"If only the resultant images are stored (as in common GIS such as IDRISI
and GRASS), there is no way to share and compare the produced data unless
the derivation procedures are known to both scientists."  In Gaea the two
results are objects of *different classes*, each defined by its process,
and the provenance browser answers exactly the sharing question.

The example then reruns Eastman's experiment: vegetation change by PCA
vs. standardized PCA over the NDVI series (paper §2.1.3, Figure 4), and
shows the derivation comparison for those too.

Run:  python examples/vegetation_change.py
"""

import numpy as np

from repro import connect
from repro.figures import AFRICA
from repro.gis import SceneGenerator, ndvi
from repro.temporal import AbsTime


def load_ndvi_series(conn, years=(1988, 1989)) -> dict[int, object]:
    """Compute and store one NDVI object per year from synthetic AVHRR."""
    generator = SceneGenerator(seed=11, nrow=48, ncol=48)
    stored = {}
    for year in years:
        red = generator.band("africa", year, 7, "red")
        nir = generator.band("africa", year, 7, "nir")
        obj = conn.kernel.store.store("ndvi", {
            "area": "africa",
            "data": ndvi(red, nir),
            "spatialextent": AFRICA,
            "timestamp": AbsTime.from_ymd(year, 7, 1),
        })
        stored[year] = obj
    return stored


def main() -> None:
    conn = connect(universe=AFRICA)
    conn.execute("""
    DEFINE CLASS ndvi (
      ATTRIBUTES: area = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
    )
    DEFINE CLASS veg_change_subtract (
      ATTRIBUTES: area = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: change-by-subtraction
    )
    DEFINE CLASS veg_change_divide (
      ATTRIBUTES: area = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: change-by-division
    )
    DEFINE PROCESS change-by-subtraction
    OUTPUT veg_change_subtract
    ARGUMENT ( ndvi later, ndvi earlier )
    TEMPLATE {
      ASSERTIONS:
        img_size_eq(later.data, earlier.data);
      MAPPINGS:
        veg_change_subtract.data = img_subtract(later.data, earlier.data);
        veg_change_subtract.area = later.area;
        veg_change_subtract.spatialextent = later.spatialextent;
        veg_change_subtract.timestamp = later.timestamp;
    }
    DEFINE PROCESS change-by-division
    OUTPUT veg_change_divide
    ARGUMENT ( ndvi later, ndvi earlier )
    TEMPLATE {
      ASSERTIONS:
        img_size_eq(later.data, earlier.data);
      MAPPINGS:
        veg_change_divide.data = ndvi_ratio(later.data, earlier.data);
        veg_change_divide.area = later.area;
        veg_change_divide.spatialextent = later.spatialextent;
        veg_change_divide.timestamp = later.timestamp;
    }
    """)

    stored = load_ndvi_series(conn)
    print("stored NDVI snapshots:",
          {year: obj.oid for year, obj in stored.items()})

    kernel = conn.kernel
    later, earlier = stored[1989], stored[1988]
    res_a = kernel.derivations.execute_process(
        "change-by-subtraction", {"later": later, "earlier": earlier}
    )
    res_b = kernel.derivations.execute_process(
        "change-by-division", {"later": later, "earlier": earlier}
    )
    print(f"scientist A produced object {res_a.output.oid} "
          f"(mean change {float(np.mean(res_a.output['data'].data)):+.4f})")
    print(f"scientist B produced object {res_b.output.oid} "
          f"(mean ratio  {float(np.mean(res_b.output['data'].data)):.4f})")

    comparison = kernel.provenance.compare_derivations(
        res_a.output.oid, res_b.output.oid
    )
    print("same procedure?", comparison["identical_procedure"])
    print("processes:", comparison["processes_a"], "vs",
          comparison["processes_b"])
    print("shared base inputs:", comparison["shared_base_inputs"])

    # --- Eastman's experiment: PCA vs SPCA over the NDVI series ----------
    conn.execute("""
    DEFINE CLASS veg_change_pca (
      ATTRIBUTES: area = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: pca-change
    )
    DEFINE CLASS veg_change_spca (
      ATTRIBUTES: area = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: spca-change
    )
    DEFINE PROCESS pca-change
    OUTPUT veg_change_pca
    ARGUMENT ( SETOF ndvi series >= 2 )
    TEMPLATE {
      ASSERTIONS:
        common(series.spatialextent);
      MAPPINGS:
        veg_change_pca.data = pca_change(series);
        veg_change_pca.area = ANYOF series.area;
        veg_change_pca.spatialextent = ANYOF series.spatialextent;
        veg_change_pca.timestamp = ANYOF series.timestamp;
    }
    DEFINE PROCESS spca-change
    OUTPUT veg_change_spca
    ARGUMENT ( SETOF ndvi series >= 2 )
    TEMPLATE {
      ASSERTIONS:
        common(series.spatialextent);
      MAPPINGS:
        veg_change_spca.data = spca_change(series);
        veg_change_spca.area = ANYOF series.area;
        veg_change_spca.spatialextent = ANYOF series.spatialextent;
        veg_change_spca.timestamp = ANYOF series.timestamp;
    }
    """)
    [pca_result] = conn.execute("SELECT FROM veg_change_pca")
    [spca_result] = conn.execute("SELECT FROM veg_change_spca")
    img_pca = pca_result.objects[0]["data"].data
    img_spca = spca_result.objects[0]["data"].data
    correlation = float(np.corrcoef(img_pca.ravel(), img_spca.ravel())[0, 1])
    print(f"PCA path={pca_result.path}, SPCA path={spca_result.path}; "
          f"component correlation {correlation:+.3f}")
    print("Gaea can reproduce Eastman's comparison because both derivation "
          "procedures are captured; IDRISI could not (paper §2.1.3).")


if __name__ == "__main__":
    main()
