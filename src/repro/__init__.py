"""Reproduction of *Managing Derived Data in the Gaea Scientific DBMS*
(Hachem, Qiu, Gennert, Ward — VLDB 1993).

The package rebuilds the Gaea kernel from scratch in Python:

* :mod:`repro.adt` — system-level semantics: the ADT facility (primitive
  classes, operators, compound-operator dataflow networks);
* :mod:`repro.spatial` / :mod:`repro.temporal` — the two classic extents;
* :mod:`repro.storage` — the POSTGRES-substitute append-only engine;
* :mod:`repro.core` — the paper's contribution: concepts, processes,
  tasks, Petri-net derivation modeling, the retrieval planner, the
  experiment manager, and the metadata-manager facade;
* :mod:`repro.query` — the GaeaQL interpreter (parser/optimizer/executor);
* :mod:`repro.gis` — the global-change workload substrate (synthetic
  scenes, NDVI, classification, PCA/SPCA, climate indexes);
* :mod:`repro.baseline` — the IDRISI/GRASS-style file-based comparison
  system;
* :mod:`repro.figures` — programmatic builders regenerating the paper's
  figures.

Quickstart::

    import repro

    conn = repro.connect()
    cur = conn.cursor()
    cur.execute('''
        DEFINE CLASS landsat_tm (
          ATTRIBUTES: band = char16; data = image;
          SPATIAL EXTENT: spatialextent = box;
          TEMPORAL EXTENT: timestamp = abstime;
        )
    ''')
    scenes = conn.prepare("SELECT FROM landsat_tm WHERE timestamp = ?")
    cur.execute(scenes, ["1986-01-15"])   # planned once, bound per call
    for obj in cur:                        # objects stream lazily
        print(obj.oid, obj["band"])

    cur.execute("CREATE INDEX ON landsat_tm (band)")  # B-tree + replan
    print(cur.explain("SELECT FROM landsat_tm WHERE band = 'nir'"))
    # retrieve landsat_tm: path=retrieve access=index-eq(band='nir') ...

See ``README.md`` and ``docs/`` (architecture, full GaeaQL reference)
for the complete tour.
"""

from .core import open_kernel
from .query import Connection, Cursor, PreparedStatement, connect

__version__ = "2.1.0"

__all__ = [
    "Connection",
    "Cursor",
    "GaeaServer",
    "PreparedStatement",
    "connect",
    "open_kernel",
    "remote_connect",
    "__version__",
]


def __getattr__(name: str):
    # The server stack imports lazily: plain local use never pays for
    # the socket/server modules, and repro.server importing repro stays
    # cycle-free.
    if name == "GaeaServer":
        from .server import GaeaServer
        return GaeaServer
    if name == "remote_connect":
        from .server.remote import remote_connect
        return remote_connect
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
