"""Cost-based access-path selection for retrievals.

The classic System-R question, scaled to Gaea's substrate: given a
retrieval over one relation with extent predicates (spatial overlap,
temporal equality), attribute equality filters and attribute range
predicates, which physical access path is cheapest?

The candidates are

* ``full-scan`` — walk every heap version, test everything in Python;
* ``index-eq`` — probe the B-tree on an equality-filtered column;
* ``index-range`` — range-scan the B-tree on a comparison-bounded column;
* ``spatial-probe`` — the grid index on the spatial extent;
* ``temporal-probe`` — the timeline on the temporal extent.

Each candidate gets an estimated result cardinality (selectivity × row
count) and a cost in abstract row-work units; the cheapest wins.  Every
predicate the chosen path does not consume is *pushed down* as a residual:
the scan layer re-checks it per streamed row, so any path is correct and
the choice is purely about how many rows are materialized.

This module lives in ``storage`` (not ``query``) deliberately: the
derivation planner (:mod:`repro.core.planner`) and the GaeaQL optimizer
(:mod:`repro.query.optimizer`) must choose identical paths, and ``core``
cannot import ``query``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .btree import HistogramBucket
    from .engine import StorageEngine

__all__ = ["AccessPath", "choose_access_path", "choose_ordered_path",
           "estimate_range_rows", "estimate_eq_rows", "SEQ_ROW_COST",
           "INDEX_PROBE_COST", "INDEX_ROW_COST", "INDEX_ONLY_ROW_COST"]

#: Cost of materializing + testing one row on a full heap scan.
SEQ_ROW_COST = 1.0
#: Fixed cost of descending an index (tree walk / cell math).
INDEX_PROBE_COST = 4.0
#: Cost of fetching one row through an index entry (TID fetch +
#: visibility check) — slightly above sequential to model random access.
INDEX_ROW_COST = 1.4
#: Cost of producing one row straight from an index entry when the key
#: covers every requested attribute: only the version header is touched
#: for the visibility check, never the heap values.
INDEX_ONLY_ROW_COST = 0.4
#: Default selectivity of a range predicate with no usable key bounds.
DEFAULT_RANGE_SELECTIVITY = 0.33


@dataclass(frozen=True)
class AccessPath:
    """One chosen (or considered) physical access path.

    ``kind`` names the strategy; ``column`` the driving column (None for
    full scans); ``argument`` the probe value — the equality key, the
    ``(lo, hi)`` bound pair, the query :class:`~repro.spatial.box.Box`
    or the :class:`~repro.temporal.abstime.AbsTime`.  ``residual``
    describes the predicates re-checked per row, for plan dumps.
    """

    kind: str  # "full-scan" | "index-eq" | "index-range" | "spatial-probe" | "temporal-probe"
    column: str | None = None
    argument: Any = None
    estimated_rows: float = 0.0
    cost: float = 0.0
    residual: tuple[str, ...] = ()
    index_version: int = -1
    #: Covering scan: the index key supplies every requested attribute,
    #: so the heap values are never fetched (only the version header,
    #: for the visibility check).
    index_only: bool = False
    #: The scan streams rows in key order over ``column`` (sort
    #: avoidance: an ORDER BY this column needs no explicit Sort).
    ordered: bool = False
    #: Descending key order (``ORDER BY ... DESC`` rides the B-tree's
    #: reverse leaf walk).
    descending: bool = False
    #: Why the path was priced this way — the driving index's
    #: ``distinct_keys`` and histogram bucket count, for plan dumps.
    stats_note: str = ""

    @property
    def observes_extents(self) -> bool:
        """Whether a scan down this path streams every extent candidate.

        True for full scans and extent-index probes: their row stream is
        a superset of the extent matches, so counting the stream decides
        extent coverage exactly.  False for attribute-index probes,
        which prune by the attribute predicate before extents are seen.
        The single definition both the retrieval planner and the
        physical FallbackSwitch consult — they must not drift.
        """
        return self.kind in ("full-scan", "spatial-probe",
                             "temporal-probe")

    def describe(self) -> str:
        """One-line plan-dump rendering, e.g.
        ``index-eq(code=7) rows~4 cost~9.6 residual=[station='s1']``."""
        if self.kind == "index-eq":
            head = f"index-eq({self.column}={self.argument!r})"
        elif self.kind == "index-range":
            lo, hi = self.argument
            if lo is None and hi is None:
                head = f"index-range({self.column} full)"
            else:
                lo_s = "-inf" if lo is None else repr(lo)
                hi_s = "+inf" if hi is None else repr(hi)
                head = f"index-range({self.column} in [{lo_s}, {hi_s}])"
        elif self.kind == "spatial-probe":
            head = f"spatial-probe({self.column} overlaps {self.argument})"
        elif self.kind == "temporal-probe":
            head = f"temporal-probe({self.column}={self.argument})"
        else:
            head = "full-scan"
        if self.index_only:
            head = f"index-only {head}"
        if self.ordered:
            head += " (ordered desc)" if self.descending else " (ordered)"
        out = f"{head} rows~{self.estimated_rows:.0f} cost~{self.cost:.1f}"
        if self.residual:
            out += f" residual=[{', '.join(self.residual)}]"
        if self.stats_note:
            out += f" [{self.stats_note}]"
        return out


def _histogram_range_rows(histogram: "tuple[HistogramBucket, ...]",
                          lo: Any, hi: Any) -> float | None:
    """Expected entries in ``[lo, hi]`` from an equi-depth histogram.

    Fully covered buckets contribute their exact depth; partially
    covered ones are linearly interpolated within the bucket.  Returns
    None when the query bounds are not numeric.
    """
    try:
        qlo = None if lo is None else float(lo)
        qhi = None if hi is None else float(hi)
    except (TypeError, ValueError):
        return None
    total = 0.0
    for bucket in histogram:
        eff_lo = bucket.lo if qlo is None else max(qlo, bucket.lo)
        eff_hi = bucket.hi if qhi is None else min(qhi, bucket.hi)
        if eff_lo > eff_hi:
            continue
        span = bucket.hi - bucket.lo
        fraction = 1.0 if span <= 0 else (eff_hi - eff_lo) / span
        total += fraction * bucket.entries
    return max(1.0, total)


def estimate_eq_rows(entries: int, distinct: int,
                     histogram: "tuple[HistogramBucket, ...] | None",
                     value: Any) -> float:
    """Expected entries of an equality probe for *value*.

    With a histogram, the containing bucket's local density
    (``entries / distinct``) replaces the global uniform distinct-key
    estimate, so a probe into a dense key cluster is priced higher than
    one into a sparse tail.
    """
    if entries == 0:
        return 0.0
    if histogram is not None:
        try:
            v = float(value)
        except (TypeError, ValueError):
            v = None
        if v is not None:
            for bucket in histogram:
                if bucket.lo <= v <= bucket.hi:
                    return max(1.0, bucket.entries / max(1, bucket.distinct))
            return 1.0  # outside every bucket: probably empty
    return max(1.0, entries / max(1, distinct))


def estimate_range_rows(entries: int, bounds: tuple[Any, Any] | None,
                        lo: Any, hi: Any,
                        histogram: "tuple[HistogramBucket, ...] | None" = None
                        ) -> float:
    """Expected entries of a B-tree range scan over ``[lo, hi]``.

    An equi-depth *histogram* (built from the B-tree's own keys) gives
    skew-aware estimates; without one, numeric key bounds are linearly
    interpolated, and other key types fall back to
    :data:`DEFAULT_RANGE_SELECTIVITY` per bounded side.
    """
    if entries == 0:
        return 0.0
    if histogram is not None:
        estimate = _histogram_range_rows(histogram, lo, hi)
        if estimate is not None:
            return estimate
    if bounds is not None:
        kmin, kmax = bounds
        try:
            span = float(kmax) - float(kmin)
            if span <= 0:
                # Single-key index: either the range covers it or not.
                covered = (lo is None or lo <= kmin) \
                    and (hi is None or hi >= kmax)
                return float(entries) if covered else 1.0
            eff_lo = float(kmin) if lo is None else max(float(lo), float(kmin))
            eff_hi = float(kmax) if hi is None else min(float(hi), float(kmax))
            fraction = max(0.0, eff_hi - eff_lo) / span
            return max(1.0, fraction * entries)
        except (TypeError, ValueError):
            pass
    selectivity = 1.0
    if lo is not None:
        selectivity *= DEFAULT_RANGE_SELECTIVITY
    if hi is not None:
        selectivity *= DEFAULT_RANGE_SELECTIVITY
    return max(1.0, selectivity * entries)


@dataclass
class _Candidate:
    path: AccessPath
    consumed: tuple[str, ...] = ()


def _stats_note(stats: dict[str, Any]) -> str:
    """The pricing inputs of a B-tree path, for plan dumps."""
    histogram = stats.get("histogram")
    return (f"distinct_keys={stats['distinct']} "
            f"hist_buckets={len(histogram) if histogram else 0}")


def _range_key(column: str, op: str, value: Any) -> str:
    """The key a path consumes a comparison predicate under."""
    return f"rng:{column}:{op}:{value!r}"


def _range_windows(ranges: tuple[tuple[str, str, Any], ...]
                   ) -> dict[str, tuple[Any, Any, tuple[str, ...]]]:
    """Per column, its comparison predicates collapsed into one B-tree
    window: ``(lo, hi, consumed)``.  The window is inclusive on both
    bounds, so only the ``<=``/``>=`` predicates are consumed; a strict
    comparison (``>``, ``<``) still needs the per-row residual
    re-check."""
    windows: dict[str, tuple[Any, Any, tuple[str, ...]]] = {}
    for column, op, value in ranges:
        lo, hi, consumed = windows.get(column, (None, None, ()))
        if op in (">", ">="):
            if lo is None or value > lo:
                lo = value
        elif hi is None or value < hi:
            hi = value
        if op in ("<=", ">="):
            consumed += (_range_key(column, op, value),)
        windows[column] = (lo, hi, consumed)
    return windows


def _residual(info: dict[str, Any], consumed: tuple[str, ...],
              equals: tuple[tuple[str, Any], ...],
              ranges: tuple[tuple[str, str, Any], ...],
              spatial: Any = None, temporal: Any = None) -> tuple[str, ...]:
    """The plan-dump text of every predicate a path does not consume:
    extents first, then equalities, then comparisons."""
    labels: dict[str, str] = {}
    if spatial is not None and info["spatial_column"] is not None:
        labels["__spatial__"] = f"{info['spatial_column']} overlaps {spatial}"
    if temporal is not None and info["temporal_column"] is not None:
        labels["__temporal__"] = f"{info['temporal_column']}={temporal}"
    for column, value in equals:
        labels[f"eq:{column}"] = f"{column}={value!r}"
    for column, op, value in ranges:
        labels[_range_key(column, op, value)] = f"{column}{op}{value!r}"
    return tuple(text for key, text in labels.items() if key not in consumed)


def choose_access_path(engine: "StorageEngine", relation: str,
                       spatial: Any = None, temporal: Any = None,
                       equals: tuple[tuple[str, Any], ...] = (),
                       ranges: tuple[tuple[str, str, Any], ...] = (),
                       needed_columns: tuple[str, ...] | None = None
                       ) -> AccessPath:
    """Pick the cheapest access path for one retrieval over *relation*.

    ``equals`` holds ``(column, value)`` equality filters; ``ranges``
    holds ``(column, op, value)`` comparisons (op in ``< <= > >=``).
    The returned path's ``residual`` lists every predicate its scan does
    not already guarantee.

    ``needed_columns`` names the attributes the consumer actually wants
    (None means all of them).  When a B-tree's key covers every needed
    column *and* every predicate, the candidate becomes a covering
    ``index_only`` scan that never fetches heap values.
    """
    predicate_columns = tuple(
        {column for column, _ in equals}
        | {column for column, _, _ in ranges}
    )
    info = engine.access_info(relation, spatial=spatial, temporal=temporal,
                              histogram_columns=predicate_columns)
    rows = max(1, info["rows"])
    version = info["index_version"]

    def covering(column: str) -> bool:
        return (
            needed_columns is not None
            and set(needed_columns) <= {column}
            and spatial is None and temporal is None
            and all(c == column for c, _ in equals)
            and all(c == column for c, _, _ in ranges)
        )

    candidates: list[_Candidate] = [_Candidate(AccessPath(
        kind="full-scan", estimated_rows=float(rows),
        cost=rows * SEQ_ROW_COST, index_version=version,
    ))]

    for column, value in equals:
        stats = info["btrees"].get(column)
        if stats is None:
            continue
        est = estimate_eq_rows(stats["entries"], stats["distinct"],
                               stats.get("histogram"), value)
        index_only = covering(column)
        row_cost = INDEX_ONLY_ROW_COST if index_only else INDEX_ROW_COST
        candidates.append(_Candidate(
            AccessPath(
                kind="index-eq", column=column, argument=value,
                estimated_rows=est,
                cost=INDEX_PROBE_COST + est * row_cost,
                index_version=version,
                index_only=index_only,
                stats_note=_stats_note(stats),
            ),
            consumed=(f"eq:{column}",),
        ))

    for column, (lo, hi, consumed) in _range_windows(ranges).items():
        stats = info["btrees"].get(column)
        if stats is None:
            continue
        est = estimate_range_rows(
            stats["entries"], stats["bounds"], lo, hi,
            histogram=stats.get("histogram"),
        )
        index_only = covering(column)
        row_cost = INDEX_ONLY_ROW_COST if index_only else INDEX_ROW_COST
        candidates.append(_Candidate(
            AccessPath(
                kind="index-range", column=column, argument=(lo, hi),
                estimated_rows=est,
                cost=INDEX_PROBE_COST + est * row_cost,
                index_version=version,
                index_only=index_only,
                stats_note=_stats_note(stats),
            ),
            consumed=consumed,
        ))

    if spatial is not None and info["spatial_column"] is not None \
            and info["spatial_entries"] is not None:
        est = max(1.0, float(info["spatial_estimate"]))
        candidates.append(_Candidate(
            AccessPath(
                kind="spatial-probe", column=info["spatial_column"],
                argument=spatial, estimated_rows=est,
                cost=INDEX_PROBE_COST + est * INDEX_ROW_COST,
                index_version=version,
            ),
            consumed=("__spatial__",),
        ))

    if temporal is not None and info["temporal_column"] is not None \
            and info["temporal_estimate"] is not None:
        est = max(1.0, float(info["temporal_estimate"]))
        candidates.append(_Candidate(
            AccessPath(
                kind="temporal-probe", column=info["temporal_column"],
                argument=temporal, estimated_rows=est,
                cost=INDEX_PROBE_COST + est * INDEX_ROW_COST,
                index_version=version,
            ),
            consumed=("__temporal__",),
        ))

    best = min(candidates, key=lambda c: c.path.cost)
    return AccessPath(
        kind=best.path.kind,
        column=best.path.column,
        argument=best.path.argument,
        estimated_rows=best.path.estimated_rows,
        cost=best.path.cost,
        residual=_residual(info, best.consumed, equals, ranges,
                           spatial, temporal),
        index_version=version,
        index_only=best.path.index_only,
        stats_note=best.path.stats_note,
    )


def choose_ordered_path(engine: "StorageEngine", relation: str,
                        column: str, descending: bool = False,
                        equals: tuple[tuple[str, Any], ...] = (),
                        ranges: tuple[tuple[str, str, Any], ...] = (),
                        limit_hint: int | None = None
                        ) -> AccessPath | None:
    """An index-order scan over *column* satisfying ``ORDER BY column``,
    or None when no B-tree backs the column.

    The scan is an (open or range-bounded) B-tree walk in key order —
    ascending or reversed — so a Sort above it is redundant.  Every
    predicate except the range window on *column* stays residual.  With
    a *limit_hint* the consumer stops after that many rows, so only the
    key-order prefix is priced (scaled up by the residual predicates'
    expected rejection rate) — this is what makes top-K over an indexed
    column beat scan-then-sort.
    """
    info = engine.access_info(relation, histogram_columns=(column,))
    stats = info["btrees"].get(column)
    if stats is None:
        return None
    lo, hi, consumed = _range_windows(ranges).get(column, (None, None, ()))
    est = estimate_range_rows(stats["entries"], stats["bounds"], lo, hi,
                              histogram=stats.get("histogram"))
    touched = est
    if limit_hint is not None:
        # Residual predicates reject rows before the limit counts them;
        # assume each residual halves the stream (the Filter heuristic).
        residual_count = len(equals) + sum(
            1 for c, _, _ in ranges if c != column
        )
        selectivity = max(0.1, 0.5 ** residual_count)
        touched = min(est, max(1.0, limit_hint / selectivity))
    return AccessPath(
        kind="index-range", column=column, argument=(lo, hi),
        estimated_rows=est,
        cost=INDEX_PROBE_COST + touched * INDEX_ROW_COST,
        residual=_residual(info, consumed, equals, ranges),
        index_version=info["index_version"],
        ordered=True,
        descending=descending,
        stats_note=_stats_note(stats),
    )
