"""Names, units and directions of every workload and metric.

The single table the harness, ``compare.py``, the smoke test and
``BENCHMARK.json`` agree on.  ``BENCHMARK.json`` lists the *guarded*
end-to-end metrics (those every workload measures, as the pipeline's
contract requires) and every per-layer metric; the remaining end-to-end
metrics exist on some workloads only and are reported by ``bench.run``
as diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkloadDef", "EndToEnd", "PerLayer", "WORKLOADS", "END_TO_END",
           "PER_LAYER", "POINT_KINDS", "ANALYTIC_SHAPES", "EXACT_COUNTS",
           "end_to_end_for", "benchmark_json"]


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    why: str


WORKLOADS: tuple[WorkloadDef, ...] = (
    WorkloadDef(
        "point_lookup",
        "prepared index/grid/timeline probes on 20k rows: plan-cache hit, "
        "bind, physical build, snapshot and index probe are the whole cost",
    ),
    WorkloadDef(
        "analytic_scan",
        "nine cached scan/aggregate/sort/join/concept shapes over 20k rows: "
        "scans, batches and operators do the work, parse/plan/wire none",
    ),
    WorkloadDef(
        "adhoc_cold_plan",
        "unique-key lookups as 512 distinct literal texts over a 128-entry "
        "plan cache: every statement lexes, parses, plans and prices paths",
    ),
    WorkloadDef(
        "derive_fallback",
        "Figure-2 catalog asked for land cover that is not stored: derive "
        "via Petri planning + P20, then stored retrieval, then interpolation",
    ),
    WorkloadDef(
        "wire_serving",
        "the point_lookup mix plus paging and stores through GaeaServer on "
        "loopback: the difference to point_lookup is frames, codec, round trips",
    ),
    WorkloadDef(
        "ingest_interleaved",
        "25-row transactions beside prepared reads on a growing indexed, "
        "WAL-mirrored relation, then WAL replay: write cost beside read cost",
    ),
)

#: ``point_lookup`` / ``wire_serving`` statement kinds.
POINT_KINDS = ("serial_eq", "code_eq", "grid_probe", "time_probe")
#: ``analytic_scan`` shapes (the first five are EXP-M's texts verbatim).
ANALYTIC_SHAPES = ("filter_eq", "filter_range", "aggregate_group",
                   "aggregate_scalar", "top_k", "project_all", "join_hash",
                   "join_inl", "concept_union")

ALL = tuple(w.name for w in WORKLOADS)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float
    #: Workloads that report it; guarded metrics are reported by all.
    on: tuple[str, ...] = ALL

    @property
    def guarded(self) -> bool:
        """In ``BENCHMARK.json``: the pipeline requires every guarded
        metric from every workload, so only all-workload metrics are."""
        return self.on == ALL


#: What each measures is in ``bench/README.md``.
END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("stmts_per_s", "1/s", "higher", 0.25),
    EndToEnd("stmt_latency_p50_ms", "ms", "lower", 0.25),
    EndToEnd("stmt_latency_p95_ms", "ms", "lower", 0.25),
    EndToEnd("first_row_p50_ms", "ms", "lower", 0.25),
    EndToEnd("rows_per_s", "1/s", "higher", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15),
    EndToEnd("derive_p50_ms", "ms", "lower", 0.25, ("derive_fallback",)),
    EndToEnd("interpolate_p50_ms", "ms", "lower", 0.25,
             ("derive_fallback",)),
    EndToEnd("stored_after_derive_p50_ms", "ms", "lower", 0.25,
             ("derive_fallback",)),
    EndToEnd("ingest_rows_per_s", "1/s", "higher", 0.25,
             ("ingest_interleaved",)),
    EndToEnd("commit_p50_ms", "ms", "lower", 0.25, ("ingest_interleaved",)),
    EndToEnd("wal_recover_s", "s", "lower", 0.25, ("ingest_interleaved",)),
)


def end_to_end_for(workload: str) -> tuple[EndToEnd, ...]:
    """The end-to-end metrics *workload* reports."""
    return tuple(m for m in END_TO_END if workload in m.on)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str


def _us(name: str) -> PerLayer:
    return PerLayer(name, "us", "lower")


PER_LAYER: tuple[PerLayer, ...] = (
    _us("query.lexer.tokenize_us"),
    _us("query.parser.parse_us"),
    _us("query.optimizer.compile_miss_us"),
    _us("query.optimizer.compile_hit_us"),
    PerLayer("query.optimizer.plan_cache_hit_ratio", "ratio", "higher"),
    _us("query.binding.bind_us"),
    _us("query.physical.build_us"),
    _us("storage.access.choose_path_us"),
    _us("query.operators.self_us"),
    PerLayer("query.operators.rows_out", "count", "higher"),
    PerLayer("query.operators.rows_scanned_per_row_out", "ratio", "lower"),
    _us("query.client.self_us"),
    *(PerLayer(f"query.client.shape.{shape}.p50_ms", "ms", "lower")
      for shape in ANALYTIC_SHAPES + POINT_KINDS),
    _us("core.classes.scan_self_us"),
    PerLayer("core.classes.scans_per_stmt", "ratio", "lower"),
    _us("core.classes.store_self_us_per_row"),
    _us("storage.engine.read_self_us"),
    _us("storage.engine.insert_self_us_per_row"),
    _us("storage.transactions.snapshot_us"),
    PerLayer("storage.transactions.committed_xids", "count", "lower"),
    _us("storage.transactions.commit_us"),
    _us("storage.btree.probe_us"),
    _us("storage.btree.insert_us_per_row"),
    _us("spatial.grid_index.query_us"),
    _us("temporal.timeline.at_us"),
    _us("storage.wal.append_us_per_record"),
    PerLayer("storage.wal.records_per_row", "ratio", "lower"),
    PerLayer("storage.wal.bytes_per_row", "B/row", "lower"),
    _us("core.planner.fallback_us"),
    _us("core.planner.derive_us"),
    _us("core.planner.interpolate_us"),
    PerLayer("core.planner.derives_per_stmt", "ratio", "lower"),
    _us("core.petri.backward_plan_us"),
    _us("core.manager.execute_process_us"),
    _us("adt.operators.apply_us"),
    _us("server.remote.request_us"),
    PerLayer("server.remote.requests_per_stmt", "ratio", "lower"),
    _us("server.protocol.encode_us_per_row"),
    _us("server.protocol.decode_us_per_row"),
    PerLayer("server.protocol.bytes_per_row", "B/row", "lower"),
    _us("server.server.dispatch_residual_us"),
    PerLayer("trace.overhead_pct", "%", "lower"),
    PerLayer("trace.unattributed_pct", "%", "lower"),
)

#: Per-layer metrics that are counts: they must repeat exactly for a
#: given seed (taken from the first traced round, whose inputs and
#: preceding state are fixed).
EXACT_COUNTS = frozenset(
    m.name for m in PER_LAYER if m.unit in ("count", "ratio", "B/row")
)


def benchmark_json(run_seconds: int) -> dict:
    """The ``BENCHMARK.json`` document these tables imply."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END if m.guarded
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
