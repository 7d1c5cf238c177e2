"""The six workloads.

Each workload touches Gaea only through its client surface
(``repro.connect``, ``Cursor``, ``remote_connect``, ``GaeaServer``) plus
``kernel.store.store`` for loading (GaeaQL has no INSERT).  All are
closed loops with one client: the next operation starts when the
previous one's rows have arrived.  A round is a fixed, seeded list of
operations and every round of a run replays the same list, so the
rounds are replicates of each operation (the statistics rely on that:
see ``bench/harness.py``).  Timing wraps each operation alone, and each
result is
checked against :mod:`bench.oracle` right after its clock stops and then
dropped — rows kept until the round's end would be garbage-collector
load of the harness's making, charged to whichever statement it hit.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
import time
import warnings
from typing import Any

import numpy as np

import repro
from repro.adt.image import Image
from repro.errors import GaeaError
from repro.figures import AFRICA, build_figure2, populate_scenes
from repro.server import GaeaServer
from repro.server.remote import remote_connect
from repro.spatial.box import Box
from repro.storage.engine import StorageEngine
from repro.storage.wal import WriteAheadLog, read_log_file
from repro.temporal.abstime import AbsTime

from . import datasets
from .datasets import Sizes
from .metrics import ANALYTIC_SHAPES, POINT_KINDS
from .oracle import (AnalyticOracle, ContractMonitor, StationOracle,
                     check_interpolated, check_land_cover)

__all__ = ["Round", "Workload", "WORKLOAD_CLASSES"]

_clock = time.perf_counter_ns

#: Share of attribute lookups that bind a key no row has.
ABSENT_SHARE = 0.05


class Round:
    """What one round measured.

    ``samples`` holds ``(op, kind, latency_ns, first_row_ns, rows)`` per
    successful operation, *op* being the operation's position in the
    round's list (``first_row_ns`` is -1 where not taken).  A failed
    operation — exception, wrong rows, contract violation — is counted
    in ``attempted``, described in ``failures`` and contributes no
    sample.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[int, str, int, int, int]] = []
        self.attempted = 0
        self.failures: list[str] = []
        #: Counters the per-layer metrics need (see trace.layer_metrics).
        self.info: dict[str, Any] = {}
        #: Workload-specific single measurements (e.g. wal_recover_s).
        self.extra: dict[str, float] = {}

    def fail(self, message: str) -> None:
        """A contract violation that belongs to no single operation."""
        self.failures.append(message)

    def error(self, message: str) -> None:
        """An operation that raised."""
        self.attempted += 1
        self.failures.append(message)

    def record(self, kind: str, ns: int, first_ns: int, rows: int,
               problem: str | None) -> None:
        """One finished operation: a sample, or a failure if the oracle
        found a *problem* with its result."""
        if problem:
            self.failures.append(problem)
        else:
            self.samples.append((self.attempted, kind, ns, first_ns, rows))
        self.attempted += 1


class _Untraced:
    """What a round drives when no :class:`bench.trace.Tracer` is
    installed: the same three touch points, doing nothing."""

    stmt = 0

    def start_round(self) -> None:
        pass

    def stop(self) -> None:
        pass


UNTRACED = _Untraced()


class Workload:
    """Base of the workloads; see the module docstring."""

    name = ""
    #: Fresh processes a run measures in (each replays the same rounds).
    processes = 2
    #: Timed rounds each process completes whatever ``--seconds`` says.
    min_rounds = 2
    #: Kinds pooled into ``stmt_latency_*`` (None: every kind).
    latency_kinds: frozenset[str] | None = None
    #: Kinds whose execute()->first fetchone() is ``first_row_p50_ms``.
    first_row_kinds: frozenset[str] = frozenset()
    #: Kinds reported as ``query.client.shape.<kind>.p50_ms``.
    shape_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, sizes: Sizes, out_dir: str, traced: bool):
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.traced = traced

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{purpose}")

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_round(self) -> None:
        """Untimed, untraced work a round needs first."""

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        """One round; *tracer* is told where the timed operations start
        and stop and which one is running.  *warm* marks the warm-up."""
        raise NotImplementedError

    def verify_round(self, rnd: Round) -> None:
        """Checks that need the engine again (untraced, untimed)."""

    def extra_metrics(self, samples: list[tuple]) -> dict[str, float]:
        """Workload-specific end-to-end metrics of a sample list."""
        return {}

    def diagnostics(self, samples: list[tuple]) -> dict[str, float]:
        return {}

    def teardown(self) -> None:
        pass


def _fetch(cursor: Any, operation: Any, params: Any, first_row: bool
           ) -> tuple[int, int, list[Any]]:
    """Execute and drain one statement: ``(latency_ns, first_row_ns,
    rows)``.  The row list is assembled after the clock stops."""
    t0 = _clock()
    cursor.execute(operation, params)
    if first_row:
        head = cursor.fetchone()
        t1 = _clock()
        rest = cursor.fetchall()
        t2 = _clock()
        rows = rest if head is None else [head] + rest
        return t2 - t0, t1 - t0, rows
    rows = cursor.fetchall()
    t2 = _clock()
    return t2 - t0, -1, rows


def _kernel_info(kernel: Any, monitor: ContractMonitor, wal_records: int
                 ) -> dict[str, Any]:
    return {
        "scans": monitor.scan_delta(),
        "committed_xids": len(kernel.engine.snapshot().committed),
        "wal_records": len(kernel.engine.wal) - wal_records,
        "wal_bytes": 0,
    }


# -- station_obs workloads ---------------------------------------------------------


class _StationWorkload(Workload):
    """Shared set-up of the workloads over a loaded ``station_obs``."""

    POINT_SQL = {
        "serial_eq": "SELECT FROM station_obs WHERE serial = ?",
        "code_eq": "SELECT FROM station_obs WHERE code = ?",
        "grid_probe": "SELECT FROM station_obs WHERE cell OVERLAPS (?,?,?,?)",
        "time_probe": "SELECT FROM station_obs WHERE timestamp = ?",
    }

    def setup(self) -> None:
        self.data = datasets.station_data(self.seed, self.sizes.station_rows)
        self.oracle = StationOracle(self.data)
        self.conn = repro.connect(universe=AFRICA)
        cur = self.conn.cursor()
        cur.run(datasets.STATION_DDL)
        # Indexes exist before the load, as on a live system: set-up
        # time then includes their maintenance, insert by insert.
        cur.run("CREATE INDEX ON station_obs (serial)")
        cur.run("CREATE INDEX ON station_obs (code)")
        datasets.load_rows(self.conn, "station_obs", self.data.rows)
        self.kernel = self.conn.kernel
        self.cursor = self.conn.cursor()

    def point_plan(self, rng: random.Random, count: int
                   ) -> list[tuple[str, int, Any]]:
        """*count* point statements, the four kinds equally often in
        seeded order: ``(kind, oracle key, bind values)``."""
        data = self.data
        n = len(data.serial)
        kinds = [POINT_KINDS[i % 4] for i in range(count)]
        rng.shuffle(kinds)
        plan = []
        for kind in kinds:
            if kind == "serial_eq":
                key = n + rng.randrange(n) if rng.random() < ABSENT_SHARE \
                    else rng.randrange(n)
                params: Any = [key]
            elif kind == "code_eq":
                key = data.n_codes + rng.randrange(data.n_codes) \
                    if rng.random() < ABSENT_SHARE \
                    else rng.randrange(data.n_codes)
                params = [key]
            elif kind == "grid_probe":
                key = rng.randrange(data.n_stations)
                params = data.probe_box(key)
            else:
                key = rng.randrange(data.n_days)
                params = [data.stamp(key)]
            plan.append((kind, key, params))
        return plan

    def point_scans(self, plan: list[tuple[str, int, Any]]) -> int:
        """Scans the contract allows *plan*: one per statement, plus the
        FallbackSwitch's existence probe when an attribute-index lookup
        comes back empty (it must tell "predicate matched nothing" from
        "nothing stored", and only the latter may fall back)."""
        scans = len(plan)
        for kind, key, _ in plan:
            if kind in ("serial_eq", "code_eq") \
                    and not self.oracle.expected_serials(kind, key):
                scans += 1
        return scans


class PointLookup(_StationWorkload):
    name = "point_lookup"
    first_row_kinds = frozenset({"code_eq"})
    shape_kinds = POINT_KINDS

    def setup(self) -> None:
        super().setup()
        self.prepared = {kind: self.conn.prepare(sql)
                         for kind, sql in self.POINT_SQL.items()}
        self.plan = self.point_plan(self.rng("plan"),
                                    self.sizes.point_statements)

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        rnd = Round()
        plan = self.plan
        monitor = ContractMonitor(self.kernel)
        wal0 = len(self.kernel.engine.wal)
        cursor, prepared, check = self.cursor, self.prepared, self.oracle.check
        tracer.start_round()
        for i, (kind, key, params) in enumerate(plan):
            tracer.stmt = i
            try:
                ns, first, rows = _fetch(cursor, prepared[kind], params,
                                         kind == "code_eq")
            except GaeaError as exc:
                rnd.error(f"{kind}({key}): {type(exc).__name__}: {exc}")
                continue
            rnd.record(kind, ns, first, len(rows), check(kind, key, rows))
        tracer.stop()
        rnd.info = _kernel_info(self.kernel, monitor, wal0)
        for problem in monitor.check(self.point_scans(plan), 0):
            rnd.fail(problem)
        return rnd


class AdhocColdPlan(_StationWorkload):
    name = "adhoc_cold_plan"
    first_row_kinds = frozenset({"lookup"})
    #: One EXPLAIN per this many lookups.
    EXPLAIN_EVERY = 16

    def setup(self) -> None:
        super().setup()
        rng = self.rng("sources")
        keys = rng.sample(self.data.serial, self.sizes.adhoc_sources)
        #: The cycle of distinct literal-inlined sources.  It is longer
        #: than the plan cache, and LRU eviction means a text is gone
        #: again before the cycle comes back to it: 0 % hits.
        self.sources = [
            (key, f"SELECT FROM station_obs WHERE serial = {key}")
            for key in keys
        ]
        if len(self.sources) <= self.conn.plan_cache.maxsize:
            raise RuntimeError("adhoc cycle must exceed the plan cache")

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        rnd = Round()
        monitor = ContractMonitor(self.kernel)
        wal0 = len(self.kernel.engine.wal)
        hits0 = self.conn.plan_cache.hits
        cursor, check = self.cursor, self.oracle.check
        explains = 0
        tracer.start_round()
        for i, (key, source) in enumerate(self.sources, start=1):
            tracer.stmt = i
            try:
                ns, first, rows = _fetch(cursor, source, None, True)
                rnd.record("lookup", ns, first, len(rows),
                           check("serial_eq", key, rows))
                if i % self.EXPLAIN_EVERY == 0:
                    explains += 1
                    t0 = _clock()
                    cursor.execute("EXPLAIN " + source)
                    cursor.fetchall()
                    ns = _clock() - t0
                    plans = cursor.results
                    ok = (len(plans) == 1
                          and plans[0].kind == "explanation"
                          and f"index-eq(serial={key})" in plans[0].message)
                    rnd.record("explain", ns, -1, 0, None if ok else
                               f"explain({key}): unexpected plan")
            except GaeaError as exc:
                rnd.error(f"adhoc({key}): {type(exc).__name__}: {exc}")
        tracer.stop()
        rnd.info = _kernel_info(self.kernel, monitor, wal0)
        # every lookup and every EXPLAIN's path resolution scans once
        for problem in monitor.check(len(self.sources) + explains, 0):
            rnd.fail(problem)
        hits = self.conn.plan_cache.hits - hits0
        if hits:
            rnd.fail(f"contract: {hits} plan-cache hits on a cold-plan mix")
        return rnd


class WireServing(_StationWorkload):
    name = "wire_serving"
    first_row_kinds = frozenset({"paging"})
    PAGE = 256
    #: One paging statement per this many point statements.
    PAGING_EVERY = 100
    #: One conn.store per this many reads.
    STORE_EVERY = 20
    PAGING_SQL = "SELECT serial, reading FROM station_obs WHERE code < ?"

    def setup(self) -> None:
        super().setup()
        self.conn.cursor().run(datasets.PHOTO_DDL)
        self.server = GaeaServer(kernel=self.kernel).start()
        self.remote = remote_connect(self.server.host, self.server.port)
        self.rcursor = self.remote.cursor()
        #: ~20 % of the rows: a ~4k-row projection at full size.
        self.page_bound = max(1, self.data.n_codes // 5)
        self.photos = 0

    def teardown(self) -> None:
        self.remote.close()
        self.server.stop()

    def _photo(self, rng: random.Random, serial: int) -> dict[str, Any]:
        pixels = np.array(
            [rng.randrange(256) for _ in range(64)], dtype=np.uint8
        ).reshape(8, 8)
        station = rng.randrange(self.data.n_stations)
        return {
            "serial": serial,
            "data": Image.from_array(pixels, "char"),
            "cell": Box(*self.data.probe_box(station)),
            "timestamp": self.data.stamp(rng.randrange(self.data.n_days)),
        }

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        rnd = Round()
        rng = self.rng("plan")
        plan = self.point_plan(rng, self.sizes.wire_statements)
        # the same images every round, under fresh serials
        photos = [self._photo(rng, self.photos + j)
                  for j in range(len(plan) // self.STORE_EVERY)]
        monitor = ContractMonitor(self.kernel)
        wal0 = len(self.kernel.engine.wal)
        cursor, remote, sql = self.rcursor, self.remote, self.POINT_SQL
        oracle = self.oracle
        pagings = 0
        tracer.start_round()
        for i, (kind, key, params) in enumerate(plan):
            tracer.stmt = i
            try:
                ns, first, rows = _fetch(cursor, sql[kind], params, False)
                rnd.record(kind, ns, first, len(rows),
                           oracle.check(kind, key, rows))
                if (i + 1) % self.PAGING_EVERY == 0:
                    pagings += 1
                    rows = []
                    t0 = _clock()
                    cursor.execute(self.PAGING_SQL, [self.page_bound])
                    head = cursor.fetchone()
                    t1 = _clock()
                    while True:
                        page = cursor.fetchmany(self.PAGE)
                        rows.append(page)
                        if len(page) < self.PAGE:
                            break
                    t2 = _clock()
                    flat = [r for page in rows for r in page]
                    if head is not None:
                        flat.insert(0, head)
                    rnd.record(
                        "paging", t2 - t0, t1 - t0, len(flat),
                        oracle.check_code_below(self.page_bound, flat))
                if (i + 1) % self.STORE_EVERY == 0:
                    photo = photos[(i + 1) // self.STORE_EVERY - 1]
                    t0 = _clock()
                    remote.store("station_photo", photo)
                    rnd.record("store", _clock() - t0, -1, 0, None)
            except GaeaError as exc:
                rnd.error(f"{kind}({key}): {type(exc).__name__}: {exc}")
        tracer.stop()
        rnd.info = _kernel_info(self.kernel, monitor, wal0)
        for problem in monitor.check(self.point_scans(plan) + pagings, 0):
            rnd.fail(problem)
        self.photos += len(photos)
        self._last_photo = photos[-1] if photos else None
        return rnd

    def verify_round(self, rnd: Round) -> None:
        """Every acknowledged store is readable, ADT values intact."""
        cursor = self.rcursor
        count = cursor.execute(
            "SELECT count(*) FROM station_photo").fetchall()
        if count[0]["count(*)"] != self.photos:
            rnd.fail(f"store: {count[0]['count(*)']} photos readable, "
                     f"{self.photos} acknowledged")
        want = self._last_photo
        if want is not None:
            got = cursor.execute(
                "SELECT FROM station_photo WHERE serial = ?",
                [want["serial"]]).fetchall()
            if len(got) != 1 or got[0]["cell"] != want["cell"] \
                    or got[0]["timestamp"] != want["timestamp"] \
                    or not np.array_equal(got[0]["data"].data,
                                          want["data"].data):
                rnd.fail(f"store: photo {want['serial']} did not round-trip")


# -- analytic_scan --------------------------------------------------------------------


class AnalyticScan(Workload):
    name = "analytic_scan"
    #: The shapes that stream: their first row needs one batch, not the
    #: whole input (the aggregates and top_k block; the joins build).
    first_row_kinds = frozenset({"project_all", "filter_eq", "filter_range",
                                 "concept_union"})
    shape_kinds = ANALYTIC_SHAPES

    #: The first five texts are EXP-M's, verbatim, so that series
    #: continues here.
    SQL = {
        "filter_eq": "SELECT code, reading FROM measurement WHERE code = 7",
        "filter_range": ("SELECT code FROM measurement "
                         "WHERE reading >= 10.0 AND reading <= 10.5"),
        "aggregate_group": ("SELECT code, count(*), avg(reading) "
                            "FROM measurement GROUP BY code"),
        "aggregate_scalar": "SELECT count(*), avg(reading) FROM measurement",
        "top_k": ("SELECT code, reading FROM measurement "
                  "ORDER BY reading DESC LIMIT 10"),
        "project_all": "SELECT code, reading, tag FROM measurement",
        "join_hash": ("SELECT measurement.reading, site.region "
                      "FROM measurement JOIN site "
                      "ON measurement.code = site.code"),
        "join_inl": ("SELECT site.region, measurement.reading "
                     "FROM site JOIN measurement "
                     "ON site.station = measurement.station "
                     "WHERE site.region = 'r3'"),
        "concept_union": ("SELECT code, reading FROM gauge "
                          "WHERE reading >= 10.0 AND reading <= 60.0"),
    }

    def setup(self) -> None:
        data = datasets.analytic_data(self.seed, self.sizes)
        self.oracle = AnalyticOracle(data)
        self.conn = repro.connect(universe=AFRICA)
        cur = self.conn.cursor()
        cur.run(datasets.ANALYTIC_DDL)
        # The only B-tree: join_inl probes through it.  `code` stays
        # unindexed so EXP-M's filter shapes remain vectorized scans.
        cur.run("CREATE INDEX ON measurement (station)")
        datasets.load_rows(self.conn, "measurement", data.measurement)
        datasets.load_rows(self.conn, "site", data.site)
        for name, rows in data.gauges.items():
            datasets.load_rows(self.conn, name, rows)
        self.kernel = self.conn.kernel
        self.cursor = self.conn.cursor()
        for shape, operator in (("join_hash", "HashJoin("),
                                ("join_inl", "IndexNestedLoopJoin(")):
            if operator not in self.cursor.explain(self.SQL[shape]):
                raise RuntimeError(f"{shape} no longer plans as {operator})")

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        rnd = Round()
        plan = [shape for shape in ANALYTIC_SHAPES
                for _ in range(self.sizes.analytic_repeats)]
        self.rng("plan").shuffle(plan)
        monitor = ContractMonitor(self.kernel)
        wal0 = len(self.kernel.engine.wal)
        cursor, sql, check = self.cursor, self.SQL, self.oracle.check
        tracer.start_round()
        for i, shape in enumerate(plan):
            tracer.stmt = i
            try:
                ns, first, rows = _fetch(cursor, sql[shape], None, True)
            except GaeaError as exc:
                rnd.error(f"{shape}: {type(exc).__name__}: {exc}")
                continue
            rnd.record(shape, ns, first, len(rows), check(shape, rows))
        tracer.stop()
        rnd.info = _kernel_info(self.kernel, monitor, wal0)
        scans = sum(self.oracle.expected_scans(shape) for shape in plan)
        for problem in monitor.check(scans, 0):
            rnd.fail(problem)
        return rnd


# -- derive_fallback ------------------------------------------------------------------


class DeriveFallback(Workload):
    name = "derive_fallback"
    first_row_kinds = frozenset({"stored"})
    SQL = "SELECT FROM land_cover_c20 WHERE timestamp = ?"

    def setup(self) -> None:
        self.cursor = None

    def prepare_round(self) -> None:
        """A fresh Figure-2 catalog with seeded scenes, nothing derived."""
        # The previous round's catalog is cyclic garbage by now; left to
        # the collector's own schedule it makes peak memory a matter of
        # how many rounds happened to fit.
        self.kernel = self.conn = self.cursor = self.query = None
        gc.collect()
        years = datasets.derive_years(self.seed, self.sizes.derive_years)
        with warnings.catch_warnings():
            # build_figure2 still rides the deprecated session shim
            warnings.simplefilter("ignore", DeprecationWarning)
            catalog = build_figure2()
        # One scene seed per year: k-means runs to convergence, so its
        # cost depends on the scene, and a round should average over
        # scenes rather than repeat one forty times.
        rng = self.rng("scenes")
        for year in years:
            populate_scenes(catalog, seed=rng.randrange(1 << 30),
                            size=self.sizes.scene_size, years=(year,))
        self.kernel = catalog.kernel
        self.conn = repro.connect(kernel=self.kernel)
        self.cursor = self.conn.cursor()
        self.query = self.conn.prepare(self.SQL)
        self.years = years

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        rnd = Round()
        stamps = [AbsTime.from_ymd(year, 7, 1) for year in self.years]
        # one stamp strictly inside each gap between consecutive years
        mids = [AbsTime.from_ymd(year, 1, 1) for year in self.years[1:]]
        tasks = self.kernel.derivations.tasks
        passes = (("derive", stamps, len(stamps)),   # P20 fires once each
                  ("stored", stamps, 0),             # derive-once
                  ("interpolate", mids, len(mids)))
        monitor = ContractMonitor(self.kernel)
        wal0 = len(self.kernel.engine.wal)
        cursor, query = self.cursor, self.query
        derived: dict[int, Any] = {}  # days -> the object pass 1 derived
        tracer.start_round()
        i = 0
        for kind, asked, new_tasks in passes:
            before = len(tasks)
            for stamp in asked:
                tracer.stmt = i
                i += 1
                try:
                    ns, first, rows = _fetch(cursor, query, [stamp], True)
                except GaeaError as exc:
                    rnd.error(f"{kind}({stamp}): {type(exc).__name__}: {exc}")
                    continue
                rnd.record(kind, ns, first, len(rows),
                           self._check(kind, stamp, rows, derived))
            if len(tasks) - before != new_tasks:
                rnd.fail(f"contract: pass {kind!r} recorded "
                         f"{len(tasks) - before} tasks, expected {new_tasks}")
        tracer.stop()
        rnd.info = _kernel_info(self.kernel, monitor, wal0)
        return rnd

    def _check(self, kind: str, stamp: AbsTime, rows: list[Any],
               derived: dict[int, Any]) -> str | None:
        if len(rows) != 1:
            return f"{kind}({stamp}): {len(rows)} rows, expected 1"
        obj = rows[0]
        if kind == "derive":
            derived[stamp.days] = obj
            return check_land_cover(obj, stamp, self.sizes.scene_size)
        if kind == "stored":
            first = derived.get(stamp.days)
            same = first is not None and obj.oid == first.oid \
                and np.array_equal(obj["data"].data, first["data"].data)
            return None if same else \
                f"stored({stamp}): not the object pass 1 derived"
        lo = max((d for d in derived if d < stamp.days), default=None)
        hi = min((d for d in derived if d > stamp.days), default=None)
        if lo is None or hi is None:
            return f"interpolate({stamp}): no derived brackets"
        return check_interpolated(obj, derived[lo], derived[hi], stamp)

    def extra_metrics(self, samples: list[tuple]) -> dict[str, float]:
        out = {}
        for metric, kind in (("derive_p50_ms", "derive"),
                             ("interpolate_p50_ms", "interpolate"),
                             ("stored_after_derive_p50_ms", "stored")):
            values = [ns for _, k, ns, _, _ in samples if k == kind]
            if values:
                out[metric] = statistics.median(values) / 1e6
        return out


# -- ingest_interleaved ---------------------------------------------------------------


class IngestInterleaved(Workload):
    name = "ingest_interleaved"
    #: One round is the whole 2,000-cycle history (8 s): one per
    #: process, so two replicates of it.
    min_rounds = 1
    latency_kinds = frozenset({"read"})
    first_row_kinds = frozenset({"read"})
    TXN_ROWS = 25
    READS = 5
    COUNT_EVERY = 100
    READ_SQL = "SELECT FROM station_obs WHERE serial = ?"
    COUNT_SQL = "SELECT count(*) FROM station_obs"

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.wal_path = os.path.join(
            self.out_dir, f"ingest-wal-{os.getpid()}.log")

    def teardown(self) -> None:
        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)

    def run_round(self, tracer: Any = UNTRACED, warm: bool = False) -> Round:
        # The warm-up round is a short history: it exists to import,
        # compile and page in code, not to grow a 50k-row relation twice.
        cycles = self.sizes.ingest_cycles
        if warm:
            cycles = max(10, cycles // 20)
        rnd = Round()
        rng = self.rng("history")
        total = cycles * self.TXN_ROWS
        n_codes = max(1, total // datasets.ROWS_PER_CODE)
        n_stations = max(1, total // datasets.ROWS_PER_STATION)
        n_days = max(1, total // datasets.ROWS_PER_DAY)

        if os.path.exists(self.wal_path):
            os.remove(self.wal_path)
        conn = repro.connect(universe=AFRICA)
        kernel = conn.kernel
        # Mirror the log from its first record: replay needs the DDL.
        kernel.engine.wal.attach_file(self.wal_path)
        cur = conn.cursor()
        cur.run(datasets.STATION_DDL)
        cur.run("CREATE INDEX ON station_obs (serial)")
        cur.run("CREATE INDEX ON station_obs (code)")
        read = conn.prepare(self.READ_SQL)
        store = kernel.store.store
        oracle = StationOracle()
        monitor = ContractMonitor(kernel)
        wal0 = len(kernel.engine.wal)
        reads = counts = 0
        serial = 0
        tracer.start_round()
        for cycle in range(cycles):
            tracer.stmt = cycle
            batch = [
                (serial + j, rng.randrange(n_codes),
                 rng.randrange(n_stations), rng.randrange(n_days),
                 rng.randrange(4000) * 0.25)
                for j in range(self.TXN_ROWS)
            ]
            rows = [datasets.station_row(s, c, st, d, r, n_stations)
                    for s, c, st, d, r in batch]
            try:
                t0 = _clock()
                conn.begin()
                for values in rows:
                    store("station_obs", values)
                conn.commit()
                ns = _clock() - t0
            except GaeaError as exc:
                rnd.error(f"txn({cycle}): {type(exc).__name__}: {exc}")
                if conn.in_transaction:
                    conn.rollback()
                continue
            rnd.record("txn", ns, -1, 0, None)
            for row in batch:  # acknowledged: the oracle now expects them
                oracle.add(*row)
            serial += self.TXN_ROWS
            # three old keys, two from the transaction just committed
            keys = [rng.randrange(serial) for _ in range(self.READS - 2)] \
                + [serial - 1 - rng.randrange(self.TXN_ROWS)
                   for _ in range(2)]
            for key in keys:
                reads += 1
                try:
                    ns, first, got = _fetch(cur, read, [key], True)
                except GaeaError as exc:
                    rnd.error(f"read({key}): {type(exc).__name__}: {exc}")
                    continue
                rnd.record("read", ns, first, len(got),
                           oracle.check("serial_eq", key, got))
            if (cycle + 1) % self.COUNT_EVERY == 0:
                counts += 1
                try:
                    ns, first, got = _fetch(cur, self.COUNT_SQL, None, False)
                except GaeaError as exc:
                    rnd.error(f"count: {type(exc).__name__}: {exc}")
                    continue
                ok = len(got) == 1 and got[0]["count(*)"] == serial
                rnd.record("count", ns, first, 1, None if ok else
                           f"count after {cycle + 1} cycles: {got}")
        tracer.stop()
        rnd.info = _kernel_info(kernel, monitor, wal0)
        for problem in monitor.check(reads + counts, 0):
            rnd.fail(problem)
        kernel.engine.wal.close()
        rnd.info["wal_bytes"] = os.path.getsize(self.wal_path)
        self._recover = (not warm and not self.traced, kernel.types,
                         serial)
        return rnd

    def verify_round(self, rnd: Round) -> None:
        recover, types, committed = self._recover
        if not recover:
            return
        # Durability: every acknowledged commit is readable after a
        # replay of only the mirrored log file.
        rnd.attempted += 1
        try:
            t0 = _clock()
            records = read_log_file(self.wal_path)
            engine = StorageEngine.recover(
                WriteAheadLog(_records=records, _next_lsn=len(records) + 1),
                types,
            )
            ns = _clock() - t0
            rows = sum(1 for _ in engine.scan("cls_station_obs"))
        except GaeaError as exc:
            rnd.error(f"recover: {type(exc).__name__}: {exc}")
            return
        if rows != committed:
            rnd.fail(f"recover: {rows} rows after replay, {committed} "
                     "acknowledged")
            return
        rnd.extra["wal_recover_s"] = ns / 1e9

    def extra_metrics(self, samples: list[tuple]) -> dict[str, float]:
        txns = [ns for _, k, ns, _, _ in samples if k == "txn"]
        if not txns:
            return {}
        return {
            "ingest_rows_per_s":
                len(txns) * self.TXN_ROWS / (sum(txns) / 1e9),
            "commit_p50_ms": statistics.median(txns) / 1e6,
        }

    def diagnostics(self, samples: list[tuple]) -> dict[str, float]:
        """Read latency over the first and last tenth of the history:
        committed-xid growth shows as the difference."""
        reads = [ns for _, k, ns, _, _ in samples if k == "read"]
        tenth = max(1, len(reads) // 10)
        return {
            "read_p50_first_tenth_ms":
                statistics.median(reads[:tenth]) / 1e6,
            "read_p50_last_tenth_ms":
                statistics.median(reads[-tenth:]) / 1e6,
        }


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PointLookup, AnalyticScan, AdhocColdPlan, DeriveFallback,
                WireServing, IngestInterleaved)
}
