"""Per-layer tracing by run-time attribute replacement.

``Tracer.install()`` wraps the public functions of each ``repro`` layer
(nothing under ``src/`` changes); while ``tracer.enabled`` every wrapped
call records a span: name, start, end, parent and the statement id the
harness set.  Generator-returning functions are timed per ``next()`` and
recorded as one span per generator whose *busy* time is the sum of those
slices, so a consumer's time between two rows is never charged to the
producer.  A span's self time is its busy time minus the busy time of
its children; both are aggregated online per span name, and the raw
spans of the first traced round are kept for ``trace-<workload>.jsonl``.

Span names map to layers by prefix (``storage.btree.probe`` belongs to
``storage.btree``); :func:`layer_metrics` turns one round's aggregate
into the per-layer metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Iterator

if __name__ == "__main__":  # run as a script: import `bench`, not siblings
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.metrics import PER_LAYER  # noqa: E402

__all__ = ["Tracer", "layer_metrics", "summarize_spans", "MAX_RAW_SPANS"]

#: Raw spans kept for the JSONL file (aggregates always cover the whole
#: round); ingest_interleaved alone produces ~650k spans per round.
MAX_RAW_SPANS = 200_000

_clock = time.perf_counter_ns


class _ThreadState:
    """One thread's open-span stack and per-name aggregate."""

    def __init__(self, tid: int, is_client: bool):
        self.tid = tid
        self.is_client = is_client
        #: Open spans, innermost last: ``[child_busy_ns, span_id]``.
        self.stack: list[list[int]] = []
        #: name -> [calls, busy_ns, self_ns, units]
        self.agg: dict[str, list[int]] = {}
        #: Busy time of spans with no parent on this thread.
        self.root_busy = 0
        #: > 0 while inside Cursor.fetchall/fetchmany, whose per-row
        #: fetchone() calls are not spans of their own.
        self.fetch_depth = 0


class Tracer:
    """Installs, aggregates and reports spans; see the module docstring."""

    def __init__(self) -> None:
        self.enabled = False
        #: Keep raw spans (the harness sets it for the first traced round).
        self.keep_spans = False
        #: Statement id stamped on spans; the harness sets it per operation.
        self.stmt = 0
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._client_thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            tid = threading.get_ident()
            state = _ThreadState(tid, tid == self._client_thread)
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _record(self, state: _ThreadState, label: str, t0: int, t1: int,
                busy: int, frame: list[int], units: int,
                parent: int) -> None:
        entry = state.agg.get(label)
        if entry is None:
            entry = state.agg[label] = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - frame[0]
        entry[3] += units
        if self.keep_spans and len(self.spans) < MAX_RAW_SPANS:
            self.spans.append((frame[1], parent, label, self.stmt,
                               state.tid, t0, t1, busy))

    # -- wrappers ------------------------------------------------------------

    def call(self, name: str, fn: Callable, *,
             outcome: Callable[[Any], str] | None = None,
             units: Callable[[tuple, Any], int] | None = None,
             fetch: str | None = None) -> Callable:
        """Wrap plain function *fn* as span *name*.

        *outcome* renames the span from its result (plan-cache hit or
        miss); a raising call is recorded as ``name + ".raised"``.
        *units* counts work items from ``(args, result)``.  *fetch* is
        ``"outer"`` for fetchall/fetchmany and ``"inner"`` for fetchone,
        which records no span of its own when called from an outer one.
        """
        tracer = self
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer._state()
            if fetch == "inner" and state.fetch_depth:
                return fn(*args, **kwargs)
            stack = state.stack
            frame = [0, next(ids)]
            stack.append(frame)
            if fetch == "outer":
                state.fetch_depth += 1
            label = name
            count = 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    label = outcome(result)
                if units is not None:
                    count = units(args, result)
                return result
            except BaseException:
                label = name + ".raised"
                raise
            finally:
                t1 = _clock()
                stack.pop()
                if fetch == "outer":
                    state.fetch_depth -= 1
                busy = t1 - t0
                if stack:
                    stack[-1][0] += busy
                    parent = stack[-1][1]
                else:
                    state.root_busy += busy
                    parent = 0
                tracer._record(state, label, t0, t1, busy, frame, count,
                               parent)

        return wrapper

    def generator(self, name: str, fn: Callable, *,
                  units: Callable[[Any], int] | None = None) -> Callable:
        """Wrap generator function *fn*: one span per generator, busy
        time summed over its ``next()`` slices; *units* counts rows per
        yielded item (default 1)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = fn(*args, **kwargs)
            if not tracer.enabled:
                return inner
            return tracer._drive(name, inner, units)

        return wrapper

    def _drive(self, name: str, inner: Iterator[Any],
               units: Callable[[Any], int] | None) -> Iterator[Any]:
        state = self._state()
        stack = state.stack
        frame = [0, next(self._ids)]
        busy = 0
        count = 0
        first = last = 0
        label = name
        parent = -1  # the span that pulled the first item
        try:
            while True:
                if parent < 0:
                    parent = stack[-1][1] if stack else 0
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                except BaseException:
                    label = name + ".raised"
                    raise
                finally:
                    t1 = _clock()
                    stack.pop()
                    slice_ns = t1 - t0
                    busy += slice_ns
                    if stack:
                        stack[-1][0] += slice_ns
                    else:
                        state.root_busy += slice_ns
                    first = first or t0
                    last = t1
                count += 1 if units is None else units(item)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()
            self._record(state, label, first, last, busy, frame, count,
                         max(parent, 0))

    # -- installation --------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, name: str, *,
                gen: bool = False, **options: Any) -> None:
        original = cls.__dict__[attr]
        wrap = self.generator if gen else self.call
        self._set(cls, attr, wrap(name, original, **options))

    def _function(self, module: Any, attr: str, name: str, *,
                  skip_home: bool = False, **options: Any) -> None:
        """Replace *module*.*attr* in every ``repro`` module that
        imported it by name.  With *skip_home* the defining module keeps
        the original, so a recursive function's inner calls stay
        untraced."""
        original = getattr(module, attr)
        wrapped = self.call(name, original, **options)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if skip_home and mod is module:
                continue
            if mod.__dict__.get(attr) is original:
                self._set(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap each layer's public functions (idempotent per tracer)."""
        if self._patches:
            return
        from repro.adt.operators import OperatorRegistry
        from repro.core.classes import ClassStore
        from repro.core.manager import DerivationManager
        from repro.core.petri import DerivationNet
        from repro.core.planner import RetrievalPlanner
        from repro.query import binding, lexer, parser
        from repro.query.client import Cursor
        from repro.query.executor import Executor
        from repro.query.optimizer import Optimizer
        from repro.query.physical import PhysicalPlanner
        from repro.server import protocol
        from repro.server.remote import RemoteConnection, RemoteCursor
        from repro.spatial.grid_index import GridIndex
        from repro.storage.btree import BTree
        from repro.storage.engine import StorageEngine
        from repro.storage.transactions import TransactionManager
        from repro.storage.wal import WriteAheadLog
        from repro.temporal.timeline import Timeline

        # query front end
        self._function(lexer, "tokenize", "query.lexer.tokenize")
        self._function(parser, "parse", "query.parser.parse")
        self._method(
            Optimizer, "compile", "query.optimizer.compile",
            outcome=lambda plan: ("query.optimizer.compile.hit" if plan.cached
                                  else "query.optimizer.compile.miss"),
        )
        self._function(binding, "bind_nodes", "query.binding.bind_nodes")
        self._method(PhysicalPlanner, "build", "query.physical.build")
        for attr in ("choose_path", "validated_path", "ordered_path"):
            self._method(ClassStore, attr, "storage.access.choose_path")

        # execution and the client surface
        self._method(Executor, "iter_group", "query.operators.run", gen=True)
        self._method(Cursor, "execute", "query.client.execute")
        self._method(Cursor, "explain", "query.client.explain")
        self._method(Cursor, "fetchone", "query.client.fetch", fetch="inner")
        self._method(Cursor, "fetchmany", "query.client.fetch", fetch="outer")
        self._method(Cursor, "fetchall", "query.client.fetch", fetch="outer")

        # object store
        batch_rows = lambda batch: batch.length  # noqa: E731
        self._method(ClassStore, "iter_scan", "core.classes.scan", gen=True)
        self._method(ClassStore, "iter_find", "core.classes.scan", gen=True)
        self._method(ClassStore, "iter_index_only", "core.classes.scan",
                     gen=True)
        self._method(ClassStore, "iter_scan_batches", "core.classes.scan",
                     gen=True, units=batch_rows)
        # its rows are counted by the iter_index_only span beneath it
        self._method(ClassStore, "iter_index_only_batches",
                     "core.classes.scan", gen=True, units=lambda batch: 0)
        self._method(ClassStore, "store", "core.classes.store")

        # storage engine
        for attr in ("value_batches", "iter_lookup_tids", "iter_range_tids",
                     "iter_spatial_tids", "iter_temporal_tids", "scan",
                     "iter_lookup", "iter_range", "iter_spatial",
                     "iter_temporal", "iter_index_keys"):
            self._method(StorageEngine, attr, "storage.engine.read", gen=True)
        self._method(StorageEngine, "fetch", "storage.engine.read")
        self._method(StorageEngine, "insert", "storage.engine.insert")
        self._method(TransactionManager, "snapshot",
                     "storage.transactions.snapshot")
        self._method(TransactionManager, "commit",
                     "storage.transactions.commit")
        self._method(BTree, "search", "storage.btree.probe")
        self._method(BTree, "range_scan", "storage.btree.probe", gen=True)
        self._method(BTree, "insert", "storage.btree.insert")
        self._method(GridIndex, "query", "spatial.grid_index.query")
        self._method(Timeline, "at", "temporal.timeline.at")
        self._method(WriteAheadLog, "append", "storage.wal.append")

        # derivation
        self._method(RetrievalPlanner, "run_fallbacks",
                     "core.planner.run_fallbacks")
        self._method(RetrievalPlanner, "derive", "core.planner.derive")
        self._method(RetrievalPlanner, "interpolate",
                     "core.planner.interpolate")
        self._method(DerivationNet, "backward_plan",
                     "core.petri.backward_plan")
        self._method(DerivationManager, "execute_process",
                     "core.manager.execute_process")
        self._method(OperatorRegistry, "apply", "adt.operators.apply")

        # wire: the client side, and the codec on both sides.  The value
        # codec recurses through its module's own name, so only the names
        # remote.py / server.py imported are replaced.
        self._method(RemoteConnection, "request", "server.remote.request")
        for attr in ("execute", "explain", "fetchone", "fetchmany",
                     "fetchall"):
            self._method(RemoteCursor, attr, "server.remote.cursor")
        self._function(protocol, "encode_value",
                       "server.protocol.encode_value", skip_home=True)
        self._function(protocol, "decode_value",
                       "server.protocol.decode_value", skip_home=True)
        self._set(protocol, "json", _TracedJson(self))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- rounds --------------------------------------------------------------

    def start_round(self) -> None:
        """Reset the aggregates and start recording.  A workload calls
        this immediately before a round's first timed operation and
        :meth:`stop` right after the last, so set-up and verification
        leave no spans."""
        with self._states_lock:
            for state in self._states:
                state.agg = {}
                state.root_busy = 0
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def end_round(self) -> dict[str, Any]:
        """The stopped round's aggregate: ``{"spans": name -> [calls,
        busy_ns, self_ns, units], "client_root_ns", "server_root_ns"}``."""
        self.enabled = False
        self.keep_spans = False
        merged: dict[str, list[int]] = {}
        client_root = server_root = 0
        with self._states_lock:
            for state in self._states:
                for label, entry in state.agg.items():
                    into = merged.setdefault(label, [0, 0, 0, 0])
                    for i in range(4):
                        into[i] += entry[i]
                if state.is_client:
                    client_root += state.root_busy
                else:
                    server_root += state.root_busy
        return {"spans": merged, "client_root_ns": client_root,
                "server_root_ns": server_root}

    def write_spans(self, path: str) -> int:
        """Write the kept raw spans as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, label, stmt, tid, t0, t1, busy in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": label, "stmt": stmt,
                    "thread": tid, "start_ns": t0, "end_ns": t1,
                    "busy_ns": busy,
                }, separators=(",", ":")) + "\n")
        return len(self.spans)


class _TracedJson:
    """Stands in for the ``json`` module inside ``repro.server.protocol``
    so frame serialization is a span and frame bytes are counted."""

    def __init__(self, tracer: Tracer):
        self.dumps = tracer.call(
            "server.protocol.json_dumps", json.dumps,
            units=lambda args, result: len(result) + 4,  # + length prefix
        )
        self.loads = tracer.call("server.protocol.json_loads", json.loads)
        self.JSONDecodeError = json.JSONDecodeError


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(round_trace: dict[str, Any],
                  info: dict[str, Any]) -> dict[str, float]:
    """One traced round's per-layer metrics (see ``bench/README.md``).

    *info* carries what the harness counted outside the spans:
    ``ops`` (operations in the round), ``rows`` (rows delivered),
    ``op_ns`` (time inside operations), ``scans`` (``scan_counts``
    delta), ``committed_xids``, ``wal_records`` and ``wal_bytes``
    (deltas).  Layers a workload never enters report 0.
    """
    spans = round_trace["spans"]

    def entry(*labels: str) -> list[int]:
        total = [0, 0, 0, 0]
        for label in labels:
            for i, value in enumerate(spans.get(label, (0, 0, 0, 0))):
                total[i] += value
        return total

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_us(*labels: str) -> float:
        calls, _, self_ns, _ = entry(*labels)
        return ratio(self_ns, calls) / 1e3

    ops = info["ops"]
    rows = info["rows"]
    hit = entry("query.optimizer.compile.hit")
    miss = entry("query.optimizer.compile.miss")
    client = entry("query.client.execute", "query.client.explain",
                   "query.client.fetch")
    scan = entry("core.classes.scan")
    store = entry("core.classes.store")
    insert = entry("storage.engine.insert")
    derive = entry("core.planner.derive")
    interpolate = entry("core.planner.interpolate")
    fallbacks = entry("core.planner.run_fallbacks")
    fallback_all = entry(
        "core.planner.derive", "core.planner.derive.raised",
        "core.planner.interpolate", "core.planner.interpolate.raised",
        "core.planner.run_fallbacks", "core.planner.run_fallbacks.raised",
    )
    request = entry("server.remote.request")
    encode = entry("server.protocol.encode_value",
                   "server.protocol.json_dumps")
    decode = entry("server.protocol.decode_value",
                   "server.protocol.json_loads")
    dumps = entry("server.protocol.json_dumps")

    out = {
        "query.lexer.tokenize_us": self_us("query.lexer.tokenize"),
        "query.parser.parse_us": self_us("query.parser.parse"),
        "query.optimizer.compile_miss_us":
            self_us("query.optimizer.compile.miss"),
        "query.optimizer.compile_hit_us":
            self_us("query.optimizer.compile.hit"),
        "query.optimizer.plan_cache_hit_ratio":
            ratio(hit[0], hit[0] + miss[0]),
        "query.binding.bind_us": self_us("query.binding.bind_nodes"),
        "query.physical.build_us": self_us("query.physical.build"),
        "storage.access.choose_path_us":
            self_us("storage.access.choose_path"),
        "query.operators.self_us": self_us("query.operators.run"),
        "query.operators.rows_out": float(rows),
        "query.operators.rows_scanned_per_row_out": ratio(scan[3], rows),
        "query.client.self_us":
            ratio(client[2], entry("query.client.execute")[0]) / 1e3,
        "core.classes.scan_self_us": self_us("core.classes.scan"),
        "core.classes.scans_per_stmt": ratio(info["scans"], ops),
        "core.classes.store_self_us_per_row": ratio(store[2], store[0]) / 1e3,
        "storage.engine.read_self_us": self_us("storage.engine.read"),
        "storage.engine.insert_self_us_per_row":
            ratio(insert[2], insert[0]) / 1e3,
        "storage.transactions.snapshot_us":
            self_us("storage.transactions.snapshot"),
        "storage.transactions.committed_xids": float(info["committed_xids"]),
        "storage.transactions.commit_us":
            self_us("storage.transactions.commit"),
        "storage.btree.probe_us": self_us("storage.btree.probe"),
        "storage.btree.insert_us_per_row":
            ratio(entry("storage.btree.insert")[2], insert[0]) / 1e3,
        "spatial.grid_index.query_us": self_us("spatial.grid_index.query"),
        "temporal.timeline.at_us": self_us("temporal.timeline.at"),
        "storage.wal.append_us_per_record": self_us("storage.wal.append"),
        "storage.wal.records_per_row": ratio(info["wal_records"], insert[0]),
        "storage.wal.bytes_per_row": ratio(info["wal_bytes"], insert[0]),
        "core.planner.fallback_us":
            ratio(fallback_all[1],
                  derive[0] + interpolate[0] + fallbacks[0]) / 1e3,
        "core.planner.derive_us": self_us("core.planner.derive"),
        "core.planner.interpolate_us": self_us("core.planner.interpolate"),
        "core.planner.derives_per_stmt": ratio(derive[0], ops),
        "core.petri.backward_plan_us": self_us("core.petri.backward_plan"),
        "core.manager.execute_process_us":
            self_us("core.manager.execute_process"),
        "adt.operators.apply_us":
            ratio(entry("adt.operators.apply")[2], derive[0]) / 1e3,
        "server.remote.request_us": ratio(request[1], request[0]) / 1e3,
        "server.remote.requests_per_stmt": ratio(request[0], ops),
        "server.protocol.encode_us_per_row": ratio(encode[2], rows) / 1e3,
        "server.protocol.decode_us_per_row": ratio(decode[2], rows) / 1e3,
        "server.protocol.bytes_per_row": ratio(dumps[3], rows),
        "server.server.dispatch_residual_us":
            ratio(request[2] - round_trace["server_root_ns"],
                  request[0]) / 1e3,
        "trace.unattributed_pct":
            100.0 * ratio(info["op_ns"] - round_trace["client_root_ns"],
                          info["op_ns"]),
    }
    unknown = set(out) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics not in bench.metrics.PER_LAYER: {unknown}")
    return out


# -- reading a trace file ----------------------------------------------------------


def summarize_spans(path: str) -> tuple[dict[str, list[int]], int]:
    """Per span name ``[calls, busy_ns, self_ns]`` from a
    ``trace-<workload>.jsonl`` file, and the traced operation time: the
    busy time of the client thread's parentless spans."""
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            spans.append(json.loads(line))
    child_busy: dict[int, int] = {}
    for span in spans:
        if span["parent"]:
            child_busy[span["parent"]] = \
                child_busy.get(span["parent"], 0) + span["busy_ns"]
    # spans are written when they close: the first one to open is the
    # client's (the server thread only ever answers it)
    client = min(spans, key=lambda s: s["start_ns"])["thread"]
    names: dict[str, list[int]] = {}
    operation_ns = 0
    for span in spans:
        entry = names.setdefault(span["name"], [0, 0, 0])
        entry[0] += 1
        entry[1] += span["busy_ns"]
        entry[2] += span["busy_ns"] - child_busy.get(span["id"], 0)
        if not span["parent"] and span["thread"] == client:
            operation_ns += span["busy_ns"]
    return names, operation_ns


def main(argv: list[str] | None = None) -> int:
    """``python3 bench/trace.py trace-<workload>.jsonl``: where the
    traced round's time went, by span name."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.stderr.write("usage: python3 bench/trace.py TRACE.jsonl\n")
        return 2
    names, operation_ns = summarize_spans(argv[0])
    print(f"{'span':<36} {'calls':>8} {'busy ms':>10} {'self ms':>10} "
          f"{'self us/call':>13} {'% of op time':>13}")
    for name, (calls, busy, self_ns) in sorted(
            names.items(), key=lambda item: -item[1][2]):
        print(f"{name:<36} {calls:>8} {busy / 1e6:>10.2f} "
              f"{self_ns / 1e6:>10.2f} {self_ns / calls / 1e3:>13.2f} "
              f"{100 * self_ns / operation_ns:>12.1f}%")
    print(f"traced operation time {operation_ns / 1e6:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
