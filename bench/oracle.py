"""The independent oracle: expected results from the generated rows.

Everything here is plain Python/NumPy over the generator's rows
(:mod:`bench.datasets`) — never the engine's other execution mode — so a
bug both engine modes share still fails the benchmark.  Each ``check_*``
returns ``None`` when the engine's answer is right, else a one-line
description; the harness counts a described operation as failed.

The paper's retrieval contract is checked here too
(:class:`ContractMonitor`): fallbacks fire only for missing data, a
derivation runs once, every retrieval leg is one stored-data scan.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

import numpy as np

from .datasets import AnalyticData, StationData

__all__ = ["StationOracle", "AnalyticOracle", "ContractMonitor",
           "check_land_cover", "check_interpolated"]


# -- station_obs ------------------------------------------------------------------


class StationOracle:
    """Expected answers of the point statements over ``station_obs``.

    Grows with :meth:`add`, so ``ingest_interleaved`` can check reads of
    rows it has just been acknowledged for.
    """

    def __init__(self, data: StationData | None = None):
        self.reading_by_serial: dict[int, float] = {}
        self._groups: dict[str, dict[int, list[int]]] = {
            "code_eq": {}, "grid_probe": {}, "time_probe": {},
        }
        if data is not None:
            for i in range(len(data.serial)):
                self.add(data.serial[i], data.code[i], data.station[i],
                         data.day[i], data.reading[i])

    def add(self, serial: int, code: int, station: int, day: int,
            reading: float) -> None:
        self.reading_by_serial[serial] = reading
        self._groups["code_eq"].setdefault(code, []).append(serial)
        self._groups["grid_probe"].setdefault(station, []).append(serial)
        self._groups["time_probe"].setdefault(day, []).append(serial)

    def __len__(self) -> int:
        return len(self.reading_by_serial)

    def expected_serials(self, kind: str, key: int) -> list[int]:
        """Serials the statement of *kind* bound to *key* must return
        (``key`` is the serial, code, station or day index)."""
        if kind == "serial_eq":
            return [key] if key in self.reading_by_serial else []
        return self._groups[kind].get(key, [])

    def check(self, kind: str, key: int, rows: list[Any]) -> str | None:
        """Row count, key set and reading checksum of one statement."""
        return self._check(f"{kind}({key})",
                           self.expected_serials(kind, key), rows)

    def check_code_below(self, bound: int, rows: list[Any]) -> str | None:
        """The paging projection ``WHERE code < bound``."""
        expected = [s for code, serials in self._groups["code_eq"].items()
                    if code < bound for s in serials]
        return self._check(f"paging(code<{bound})", expected, rows)

    def _check(self, label: str, expected: list[int], rows: list[Any]
               ) -> str | None:
        got = [row["serial"] for row in rows]
        if len(got) != len(expected):
            return f"{label}: {len(got)} rows, expected {len(expected)}"
        if sorted(got) != sorted(expected):
            return f"{label}: wrong keys"
        want = sum(self.reading_by_serial[s] for s in expected)
        have = sum(row["reading"] for row in rows)
        if have != want:  # multiples of 0.25: exact in float64
            return f"{label}: reading checksum {have} != {want}"
        return None


# -- measurement / site / gauge ------------------------------------------------------


class AnalyticOracle:
    """Expected answers of the nine ``analytic_scan`` shapes."""

    def __init__(self, data: AnalyticData):
        rows = data.measurement
        self.code = np.array([r["code"] for r in rows], dtype=np.int64)
        self.reading = np.array([r["reading"] for r in rows])
        self.station = np.array([r["station"] for r in rows], dtype=np.int64)
        self.tags = [r["tag"] for r in rows]
        self.site = data.site
        self.gauges = data.gauges
        self.checks = {
            "filter_eq": self._filter_eq,
            "filter_range": self._filter_range,
            "aggregate_group": self._aggregate_group,
            "aggregate_scalar": self._aggregate_scalar,
            "top_k": self._top_k,
            "project_all": self._project_all,
            "join_hash": self._join_hash,
            "join_inl": self._join_inl,
            "concept_union": self._concept_union,
        }

    def check(self, shape: str, rows: list[dict[str, Any]]) -> str | None:
        return self.checks[shape](rows)

    def expected_scans(self, shape: str) -> int:
        """Stored-data scans one execution must record: one per
        retrieval leg; an index nested-loop join probes once per left
        row on top of its left leg."""
        if shape == "join_hash":
            return 2
        if shape == "join_inl":
            return 1 + sum(1 for s in self.site if s["region"] == "r3")
        if shape == "concept_union":
            return len(self.gauges)
        return 1

    @staticmethod
    def _same_rows(shape: str, got: list[tuple], want: list[tuple]
                   ) -> str | None:
        """Same multiset of rows.  Without ORDER BY the engine owes no
        order: a heap page with room takes a later, smaller row, so
        even storage order is not insertion order."""
        if len(got) != len(want):
            return f"{shape}: {len(got)} rows, expected {len(want)}"
        if sorted(got) != sorted(want):
            return f"{shape}: rows differ"
        return None

    def _filter_eq(self, rows):
        idx = np.flatnonzero(self.code == 7)
        want = [(7, float(self.reading[i])) for i in idx]
        return self._same_rows(
            "filter_eq", [(r["code"], r["reading"]) for r in rows], want)

    def _filter_range(self, rows):
        idx = np.flatnonzero((self.reading >= 10.0) & (self.reading <= 10.5))
        want = [(int(self.code[i]),) for i in idx]
        return self._same_rows("filter_range",
                               [(r["code"],) for r in rows], want)

    def _aggregate_group(self, rows):
        counts = np.bincount(self.code)
        sums = np.bincount(self.code, weights=self.reading)
        if len(rows) != int((counts > 0).sum()):
            return f"aggregate_group: {len(rows)} groups"
        for r in rows:
            code = r["code"]
            if r["count(*)"] != counts[code] or not math.isclose(
                    r["avg(reading)"], sums[code] / counts[code],
                    rel_tol=1e-12):
                return f"aggregate_group: wrong aggregate for code {code}"
        if len({r["code"] for r in rows}) != len(rows):
            return "aggregate_group: duplicate group"
        return None

    def _aggregate_scalar(self, rows):
        if len(rows) != 1:
            return f"aggregate_scalar: {len(rows)} rows"
        r = rows[0]
        if r["count(*)"] != len(self.code) or not math.isclose(
                r["avg(reading)"], float(self.reading.mean()),
                rel_tol=1e-12):
            return "aggregate_scalar: wrong aggregate"
        return None

    def _top_k(self, rows):
        # ORDER BY reading DESC LIMIT 10: the readings are fixed; which
        # of the rows tied at the cut-off value make it in is not.
        order = np.argsort(-self.reading, kind="stable")
        want = [float(self.reading[i]) for i in order[:10]]
        if [r["reading"] for r in rows] != want:
            return "top_k: wrong readings or order"
        for value in set(want):
            have = Counter(r["code"] for r in rows if r["reading"] == value)
            stored = Counter(
                int(c) for c in self.code[self.reading == value])
            if have - stored or (value > want[-1] and have != stored):
                return f"top_k: wrong codes at reading {value}"
        return None

    def _project_all(self, rows):
        n = len(self.code)
        if len(rows) != n:
            return f"project_all: {len(rows)} rows, expected {n}"
        if sum(r["code"] for r in rows) != int(self.code.sum()) \
                or sum(r["reading"] for r in rows) \
                != float(self.reading.sum()) \
                or Counter(r["tag"] for r in rows) != Counter(self.tags):
            return "project_all: checksum differs"
        return None

    def _join_hash(self, rows):
        region = {s["code"]: s["region"] for s in self.site}
        idx = [i for i in range(len(self.code))
               if int(self.code[i]) in region]
        if len(rows) != len(idx):
            return f"join_hash: {len(rows)} rows, expected {len(idx)}"
        want_regions = Counter(region[int(self.code[i])] for i in idx)
        if Counter(r["site.region"] for r in rows) != want_regions:
            return "join_hash: region multiset differs"
        if sum(r["measurement.reading"] for r in rows) \
                != float(self.reading[idx].sum()):
            return "join_hash: reading checksum differs"
        return None

    def _join_inl(self, rows):
        stations = {s["station"] for s in self.site if s["region"] == "r3"}
        idx = [i for i in range(len(self.station))
               if int(self.station[i]) in stations]
        if len(rows) != len(idx):
            return f"join_inl: {len(rows)} rows, expected {len(idx)}"
        if any(r["site.region"] != "r3" for r in rows):
            return "join_inl: wrong region"
        if sum(r["measurement.reading"] for r in rows) \
                != float(self.reading[idx].sum()):
            return "join_inl: reading checksum differs"
        return None

    def _concept_union(self, rows):
        want = [r for members in self.gauges.values() for r in members
                if 10.0 <= r["reading"] <= 60.0]
        if len(rows) != len(want):
            return f"concept_union: {len(rows)} rows, expected {len(want)}"
        if sum(r["code"] for r in rows) != sum(r["code"] for r in want) \
                or sum(r["reading"] for r in rows) \
                != sum(r["reading"] for r in want):
            return "concept_union: checksum differs"
        return None


# -- derive_fallback ------------------------------------------------------------------


def check_land_cover(obj: Any, stamp: Any, size: int) -> str | None:
    """A derived (or stored-after-derive) ``land_cover_c20`` object:
    P20's mappings fix everything but the label image, whose shape and
    label range they bound."""
    if obj.class_name != "land_cover_c20":
        return f"derive: got class {obj.class_name}"
    if obj["timestamp"] != stamp:
        return f"derive: timestamp {obj['timestamp']} != {stamp}"
    if obj["numclass"] != 12 or obj["area"] != "africa":
        return "derive: wrong mapped attributes"
    data = np.asarray(obj["data"].data)
    if data.shape != (size, size):
        return f"derive: label image shape {data.shape}"
    if data.min() < 0 or data.max() >= 12:
        return "derive: labels outside [0, 12)"
    return None


def check_interpolated(obj: Any, before: Any, after: Any, stamp: Any
                       ) -> str | None:
    """A temporally interpolated object is the linear-in-time blend of
    its bracketing snapshots, recomputed here in NumPy."""
    if obj["timestamp"] != stamp:
        return f"interpolate: timestamp {obj['timestamp']} != {stamp}"
    span = after["timestamp"].days - before["timestamp"].days
    w = (stamp.days - before["timestamp"].days) / span
    want = (np.asarray(before["data"].data, dtype=np.float64) * (1.0 - w)
            + np.asarray(after["data"].data, dtype=np.float64) * w)
    got = np.asarray(obj["data"].data, dtype=np.float64)
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-6,
                                                  atol=1e-6):
        return "interpolate: image is not the linear blend"
    if obj["numclass"] != round(before["numclass"] * (1.0 - w)
                                + after["numclass"] * w):
        return "interpolate: numclass is not the linear blend"
    return None


# -- the retrieval contract --------------------------------------------------------------


class ContractMonitor:
    """Counts stored-data scans and derivation tasks across a round.

    ``ClassStore.scan_counts`` must grow by exactly the scans the
    statements' retrieval legs account for, and
    ``len(kernel.derivations.tasks)`` by exactly the derivations and
    interpolations asked for — so a lookup that binds an absent key, or
    a repeated request for already-derived data, adds no task.
    """

    def __init__(self, kernel: Any):
        self.kernel = kernel
        self.scans = self._scans()
        self.tasks = len(kernel.derivations.tasks)

    def _scans(self) -> int:
        return sum(self.kernel.store.scan_counts.values())

    def scan_delta(self) -> int:
        return self._scans() - self.scans

    def check(self, expected_scans: int, expected_tasks: int) -> list[str]:
        problems = []
        scans = self.scan_delta()
        if scans != expected_scans:
            problems.append(
                f"contract: {scans} stored-data scans, expected "
                f"{expected_scans}")
        tasks = len(self.kernel.derivations.tasks) - self.tasks
        if tasks != expected_tasks:
            problems.append(
                f"contract: {tasks} new derivation tasks, expected "
                f"{expected_tasks}")
        return problems
