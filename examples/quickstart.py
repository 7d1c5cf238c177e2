"""Quickstart: the v2 connect/cursor API driving the paper's core loop.

1. connect to a fresh kernel (``repro.connect``);
2. define a base class (rectified Landsat TM bands) and a derived class
   (land cover) with its derivation process — Figure 3's P20;
3. load synthetic scenes;
4. prepare a parameterized retrieval once, then execute it with
   different bind values: Gaea notices nothing is stored, plans the
   derivation over its Petri net, runs the process, records the task;
5. execute it again: now it is a plain retrieval, and the plan came
   straight from the connection's plan cache (no re-parse/re-plan);
6. stream the result through the cursor and inspect its lineage.

Run:  python examples/quickstart.py
"""

import repro
from repro.figures import AFRICA
from repro.gis import SceneGenerator
from repro.temporal import AbsTime


def main() -> None:
    conn = repro.connect(universe=AFRICA)
    cur = conn.cursor()

    cur.execute("""
    DEFINE CLASS landsat_tm (
      ATTRIBUTES: area = char16; band = char16; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
    )
    DEFINE CLASS land_cover (
      ATTRIBUTES: area = char16; numclass = int4; data = image;
      SPATIAL EXTENT: spatialextent = box;
      TEMPORAL EXTENT: timestamp = abstime;
      DERIVED BY: unsupervised-classification
    )
    DEFINE PROCESS unsupervised-classification
    OUTPUT land_cover
    ARGUMENT ( SETOF landsat_tm bands >= 3 )
    TEMPLATE {
      ASSERTIONS:
        card(bands) = 3;
        common(bands.spatialextent);
        common(bands.timestamp);
      MAPPINGS:
        land_cover.data = unsuperclassify(composite(bands), 12);
        land_cover.numclass = 12;
        land_cover.area = ANYOF bands.area;
        land_cover.spatialextent = ANYOF bands.spatialextent;
        land_cover.timestamp = ANYOF bands.timestamp;
    }
    """)

    generator = SceneGenerator(seed=42, nrow=48, ncol=48)
    stamp = AbsTime.from_ymd(1986, 1, 15)
    for band, image in zip(("red", "nir", "green"),
                           generator.scene("africa", 1986, 1)):
        conn.kernel.store.store("landsat_tm", {
            "area": "africa", "band": band, "data": image,
            "spatialextent": AFRICA, "timestamp": stamp,
        })
    print("loaded 3 rectified TM bands for Africa, 1986-01-15")

    cover_at = conn.prepare(
        "SELECT FROM land_cover WHERE timestamp = ?"
    )

    [explained] = conn.execute(
        "EXPLAIN SELECT FROM land_cover WHERE timestamp = ?",
        ["1986-01-15"],
    )
    print("optimizer says:", explained.message)

    cur.execute(cover_at, ["1986-01-15"])
    cover = cur.fetchone()
    print(f"derived on demand; numclass={cover['numclass']}, "
          f"labels in [{cover['data'].data.min()}, "
          f"{cover['data'].data.max()}]")

    cur.execute(cover_at, ["1986-01-15"])
    cur.fetchall()
    print(f"second execution reused the cached plan "
          f"(hits={conn.cache_hits}, misses={conn.cache_misses}) "
          "and retrieved the materialized object")

    [lineage] = conn.execute(f"LINEAGE {cover.oid}")
    print(lineage.message)


if __name__ == "__main__":
    main()
