"""Seeded input generators and the dataset load policy.

Everything the engine sees is generated here from ``--seed``; the oracle
(:mod:`bench.oracle`) is computed from the same plain rows, never from
the engine.  Value multisets are balanced (every code has the same number
of rows, every station, every day) and only their *placement* is seeded,
so statement selectivities — and therefore the work per round — do not
drift with the seed.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any

from repro.figures import AFRICA
from repro.spatial.box import Box
from repro.temporal.abstime import AbsTime

__all__ = ["Sizes", "StationData", "AnalyticData", "station_data",
           "station_row", "analytic_data", "load_rows", "derive_years",
           "STATION_DDL", "PHOTO_DDL", "ANALYTIC_DDL", "BULK_TRANSACTION"]

#: Rows per explicit transaction while bulk loading.
BULK_TRANSACTION = 1000
#: Share of each dataset stored last, as single-row auto-commit stores.
AUTOCOMMIT_TAIL = 0.10

STATION_DDL = """
DEFINE CLASS station_obs (
  ATTRIBUTES: serial = int4; code = int4; reading = float8; tag = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

#: wire_serving stores these: an object carrying box, abstime and image.
PHOTO_DDL = """
DEFINE CLASS station_photo (
  ATTRIBUTES: serial = int4; data = image;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""

ANALYTIC_DDL = """
DEFINE CLASS measurement (
  ATTRIBUTES: code = int4; reading = float8; tag = char16; station = int4;
)
DEFINE CLASS site (
  ATTRIBUTES: code = int4; station = int4; region = char16;
              elevation = float8;
)
DEFINE CLASS gauge_a ( ATTRIBUTES: code = int4; reading = float8; tag = char16; )
DEFINE CLASS gauge_b ( ATTRIBUTES: code = int4; reading = float8; tag = char16; )
DEFINE CLASS gauge_c ( ATTRIBUTES: code = int4; reading = float8; tag = char16; )
DEFINE CONCEPT gauge MEMBERS gauge_a, gauge_b, gauge_c
"""


@dataclass(frozen=True)
class Sizes:
    """Dataset and round sizes; ``quick`` shrinks them for the smoke test.

    Rounds are short on purpose: every round replays the same
    operations, so a shorter round means more replicates of each
    operation inside ``--seconds``, and the quiet-value statistics
    (``bench/harness.py``) get more chances to see it undisturbed.
    """

    station_rows: int = 20_000
    measurement_rows: int = 20_000
    site_rows: int = 200
    gauge_rows: int = 1_000
    point_statements: int = 1_000
    analytic_repeats: int = 2
    adhoc_sources: int = 512
    derive_years: int = 40
    scene_size: int = 48
    wire_statements: int = 300
    ingest_cycles: int = 2_000

    @staticmethod
    def quick() -> "Sizes":
        return Sizes(station_rows=1_000, measurement_rows=2_000,
                     site_rows=20, gauge_rows=100, point_statements=200,
                     analytic_repeats=1, adhoc_sources=160,
                     derive_years=4, scene_size=16, wire_statements=100,
                     ingest_cycles=60)


# -- station_obs (point_lookup, adhoc_cold_plan, wire_serving, ingest) ----------

#: Rows per code / per day / per station.
ROWS_PER_CODE = 20
ROWS_PER_DAY = 20
ROWS_PER_STATION = 10
_FIRST_DAY = AbsTime.from_ymd(1980, 1, 1).days


@functools.lru_cache(maxsize=None)
def _lattice(n_stations: int) -> tuple[int, float, float]:
    """Columns and cell pitch of a lattice holding *n_stations* cells
    inside the AFRICA universe."""
    cols = max(1, int(round((n_stations * AFRICA.width / AFRICA.height)
                            ** 0.5)))
    rows = -(-n_stations // cols)
    return cols, AFRICA.width / cols, AFRICA.height / rows


def _station_cell(station: int, n_stations: int, lo: float, hi: float
                  ) -> tuple[float, float, float, float]:
    """The sub-rectangle ``[lo, hi]`` (fractions) of a station's lattice
    cell.  Stored extents use (0.1, 0.9) and probes (0.2, 0.8), so a
    probe overlaps exactly its own station's rows."""
    cols, dx, dy = _lattice(n_stations)
    x = AFRICA.xmin + (station % cols) * dx
    y = AFRICA.ymin + (station // cols) * dy
    return (x + lo * dx, y + lo * dy, x + hi * dx, y + hi * dy)


def station_row(serial: int, code: int, station: int, day: int,
                reading: float, n_stations: int) -> dict[str, Any]:
    return {
        "serial": serial, "code": code, "reading": reading,
        "tag": f"t{serial % 50}",
        "cell": Box(*_station_cell(station, n_stations, 0.1, 0.9)),
        "timestamp": AbsTime(days=_FIRST_DAY + day),
    }


@dataclass(frozen=True)
class StationData:
    """``station_obs`` rows in load order plus their plain columns."""

    rows: list[dict[str, Any]]
    serial: list[int]
    code: list[int]
    station: list[int]
    day: list[int]
    reading: list[float]
    n_codes: int
    n_stations: int
    n_days: int

    def probe_box(self, station: int) -> list[float]:
        """Bind values of a grid probe hitting exactly *station*."""
        return list(_station_cell(station, self.n_stations, 0.2, 0.8))

    @staticmethod
    def stamp(day: int) -> AbsTime:
        return AbsTime(days=_FIRST_DAY + day)


def _balanced(rng: random.Random, n: int, per_key: int) -> list[int]:
    """A seeded placement of keys ``0..n/per_key`` with *per_key* rows each."""
    keys = [i // per_key for i in range(n)]
    rng.shuffle(keys)
    return keys


def station_data(seed: int, n: int) -> StationData:
    rng = random.Random(f"{seed}:station_obs")
    serial = list(range(n))
    rng.shuffle(serial)  # unique, uncorrelated with load order
    code = _balanced(rng, n, ROWS_PER_CODE)
    station = _balanced(rng, n, ROWS_PER_STATION)
    day = _balanced(rng, n, ROWS_PER_DAY)
    # multiples of 0.25 sum exactly in float64, so checksums are exact
    reading = [rng.randrange(4000) * 0.25 for _ in range(n)]
    n_stations = n // ROWS_PER_STATION
    rows = [
        station_row(serial[i], code[i], station[i], day[i], reading[i],
                    n_stations)
        for i in range(n)
    ]
    return StationData(rows=rows, serial=serial, code=code, station=station,
                       day=day, reading=reading,
                       n_codes=n // ROWS_PER_CODE, n_stations=n_stations,
                       n_days=n // ROWS_PER_DAY)


# -- measurement / site / gauge (analytic_scan) ---------------------------------

#: Distinct ``reading`` values (EXP-M's modulus), each a multiple of 0.25.
READING_VALUES = 997
SITE_REGIONS = 10


@dataclass(frozen=True)
class AnalyticData:
    measurement: list[dict[str, Any]]
    site: list[dict[str, Any]]
    gauges: dict[str, list[dict[str, Any]]]


def _reading_rows(rng: random.Random, n: int, n_codes: int
                  ) -> list[dict[str, Any]]:
    code = _balanced(rng, n, max(1, n // n_codes))
    reading = [(i % READING_VALUES) * 0.25 for i in range(n)]
    rng.shuffle(reading)
    return [
        {"code": code[i], "reading": reading[i], "tag": f"t{i % 50}"}
        for i in range(n)
    ]


def analytic_data(seed: int, sizes: Sizes) -> AnalyticData:
    rng = random.Random(f"{seed}:analytic")
    n = sizes.measurement_rows
    measurement = _reading_rows(rng, n, n // ROWS_PER_CODE)
    station = _balanced(rng, n, n // sizes.site_rows)
    for row, st in zip(measurement, station):
        row["station"] = st
    site = [
        {"code": i, "station": i, "region": f"r{i % SITE_REGIONS}",
         "elevation": rng.randrange(8000) * 0.5}
        for i in range(sizes.site_rows)
    ]
    gauges = {
        name: _reading_rows(rng, sizes.gauge_rows, sizes.gauge_rows // 10)
        for name in ("gauge_a", "gauge_b", "gauge_c")
    }
    return AnalyticData(measurement=measurement, site=site, gauges=gauges)


# -- derive_fallback ------------------------------------------------------------


def derive_years(seed: int, count: int) -> tuple[int, ...]:
    """*count* distinct seeded years, ascending.  Ascending matters:
    asked oldest-first, no year is ever bracketed by two already-derived
    ones, so pass 1 derives every time instead of interpolating."""
    rng = random.Random(f"{seed}:derive")
    return tuple(sorted(rng.sample(range(1900, 2100), count)))


# -- load policy ----------------------------------------------------------------


def load_rows(conn: Any, class_name: str, rows: list[dict[str, Any]]) -> None:
    """Store *rows* the way the README documents: explicit
    1,000-row transactions, then the last 10 % as single-row auto-commit
    stores.

    ``TransactionManager.snapshot`` copies the committed-xid set per
    statement, so commit history is a traffic dimension: this policy
    leaves ~2k xids behind 20k rows (reported as
    ``storage.transactions.committed_xids``).
    """
    store = conn.kernel.store
    bulk = len(rows) - int(len(rows) * AUTOCOMMIT_TAIL)
    for start in range(0, bulk, BULK_TRANSACTION):
        conn.begin()
        for values in rows[start:min(start + BULK_TRANSACTION, bulk)]:
            store.store(class_name, values)
        conn.commit()
    for values in rows[bulk:]:
        store.store(class_name, values)
