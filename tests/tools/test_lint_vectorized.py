"""The operator lint catches per-row dict building in batch loops, a
second ``run`` implementation growing back, a ``src/`` consumer of
the engine's ``Row`` streams growing back, a second home for the
§2.1.5 fallback ladder growing back, a fetch call regressing to a
loop over ``fetchone()``, a second write path or a deleter stamp
growing back beside ``StorageEngine.insert``, a second piece of
context state or a kernel-wide open transaction growing back beside the
connection's view, a per-row value-codec call growing back in the
wire modules, and a per-object find or predicate re-check growing back
into the query tree."""

import pathlib
import subprocess
import sys
import textwrap

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import lint_vectorized  # noqa: E402

OPERATORS = REPO / "src" / "repro" / "query" / "operators.py"


def test_current_operators_are_clean():
    assert lint_vectorized.check_paths([str(OPERATORS)]) == []


def test_flags_per_row_dict_literal_in_batch_loop():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                for batch in self.child.run_batches():
                    rows = []
                    for i in range(batch.length):
                        rows.append({"x": batch.column("x")[i]})
                    yield rows
    """)
    violations = lint_vectorized.check_source(bad)
    assert violations
    assert any("dict literal" in message for _, message in violations)


def test_flags_per_row_dict_comprehension():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                for batch in self.child.run_batches():
                    yield [{k: row[k] for k in row} for row in batch.to_rows()]
    """)
    violations = lint_vectorized.check_source(bad)
    assert any("comprehension" in message for _, message in violations)


def test_flags_dict_call_with_arguments_in_loop():
    bad = textwrap.dedent("""
        class Op:
            def run_batches(self):
                while True:
                    yield dict(x=1)
    """)
    assert lint_vectorized.check_source(bad)


def test_allows_batch_level_dicts_and_empty_accumulators():
    good = textwrap.dedent("""
        class Op:
            def run_batches(self):
                plan = {alias: fn for alias, fn in self.items}
                for batch in self.child.run_batches():
                    columns = {}
                    masks = dict()
                    for alias, fn in plan.items():
                        columns[alias] = fn(batch)
                    yield Batch(batch.length, columns, masks)
    """)
    assert lint_vectorized.check_source(good) == []


def test_ignores_dicts_in_methods_other_than_run_batches():
    helper = textwrap.dedent("""
        class Op:
            def _fallback_matches(self, key):
                for obj in self.objects:
                    yield {"x": obj["x"]}
    """)
    assert lint_vectorized.check_source(helper) == []


def test_flags_run_defined_outside_the_base_class():
    bad = textwrap.dedent("""
        class PhysicalOperator:
            def run(self):
                for batch in self.run_batches():
                    yield from batch.to_rows()

        class Sort(PhysicalOperator):
            def run_batches(self):
                yield from self.child.run_batches()

            def run(self):
                yield from sorted(self.child.run())
    """)
    violations = lint_vectorized.check_source(bad)
    assert [line for line, _ in violations] == [11]
    assert "class Sort defines run()" in violations[0][1]


def test_base_class_run_is_the_only_one_allowed():
    good = textwrap.dedent("""
        class PhysicalOperator:
            def run(self):
                for batch in self.run_batches():
                    yield from batch.to_rows()

        class Run(PhysicalOperator):
            def run_batches(self):
                yield self.batch
    """)
    assert lint_vectorized.check_source(good) == []


def test_flags_row_stream_consumers():
    bad = textwrap.dedent("""
        class Store:
            def rows(self, relation, path, snapshot):
                if path.kind == "index-eq":
                    return self.engine.iter_lookup(relation, path.column,
                                                   path.argument, snapshot)
                return self.engine.scan(relation, snapshot)

        def probe(engine, box):
            yield from engine.iter_spatial("r", box)
    """)
    violations = lint_vectorized.check_row_streams(bad)
    assert [line for line, _ in violations] == [5, 7, 10]
    assert "iter_lookup()" in violations[0][1]
    assert "scan()" in violations[1][1]


def test_row_stream_check_allows_tid_streams_and_other_scans():
    good = textwrap.dedent("""
        def read(self, relation, path, snapshot):
            tids = self.engine.iter_lookup_tids(relation, path.column,
                                                path.argument)
            for tid, version in state.heap.scan():
                pass
            return self.engine.value_batches(relation, snapshot, tids=tids)
    """)
    assert lint_vectorized.check_row_streams(good) == []


def test_flags_a_second_fallback_ladder():
    bad = textwrap.dedent("""
        def probe_fallback(self, planner):
            for step in planner.fallback_order:
                try:
                    return planner.derive(self.right_class)
                except (UnderivableError, InterpolationError):
                    continue

        def blend(self):
            try:
                return self.interpolate()
            except interpolation.InterpolationError as exc:
                raise ExecutionError(str(exc))
    """)
    violations = lint_vectorized.check_fallback_ladder(bad)
    assert [line for line, _ in violations] == [3, 6, 12]
    assert ".fallback_order" in violations[0][1]
    assert "InterpolationError" in violations[1][1]


def test_fallback_ladder_check_allows_callers_of_the_ladder():
    good = textwrap.dedent("""
        def probe_fallback(self, planner):
            planner.fallback_order = ("derive", "interpolate")
            try:
                return planner.run_fallbacks(self.right_class, None, None)
            except UnderivableError:
                raise InterpolationError("raising it is fine")
    """)
    assert lint_vectorized.check_fallback_ladder(good) == []


def test_flags_fetchone_in_loop_context():
    bad = textwrap.dedent("""
        class Cursor:
            def fetchmany(self, size):
                out = []
                while len(out) < size:
                    obj = self.fetchone()
                    if obj is None:
                        break
                    out.append(obj)
                return out

            def __iter__(self):
                for _ in range(self.limit):
                    yield self.fetchone()

        def fetch_op(cursor, count):
            return [cursor.fetchone() for _ in range(count)]
    """)
    violations = lint_vectorized.check_fetch_loops(bad)
    assert [line for line, _ in violations] == [6, 14, 17]
    assert "fetchone() called per iteration" in violations[0][1]


def test_fetch_loop_check_allows_single_calls_and_sliced_fetches():
    good = textwrap.dedent("""
        class Cursor:
            def fetchone(self):
                rows = self._rows.take(1)
                return rows[0] if rows else None

        def first_rows(cursors):
            def first(cursor):
                return cursor.fetchone()
            for cursor in cursors:
                yield first(cursor), cursor.fetchmany(8)
    """)
    assert lint_vectorized.check_fetch_loops(good) == []


def test_flags_a_second_write_path_and_a_deleter_stamp():
    bad = textwrap.dedent("""
        def bulk_load(engine, relation, rows, tx):
            state = engine._state(relation)
            for values in rows:
                tid = state.heap.insert(TupleVersion(values=values, xmin=1))
                engine.wal.append(LogKind.INSERT, xid=tx.xid,
                                  payload={"tid": tid})

        def delete(version, tx):
            version.xmax = tx.xid  # stamp the deleter
    """)
    violations = lint_vectorized.check_write_path(
        bad, "src/repro/core/loader.py")
    assert [line for line, _ in violations] == [5, 6, 10]
    assert "heap insert()" in violations[0][1]
    assert "LogKind.INSERT" in violations[1][1]
    assert "xmax" in violations[2][1]


def test_flags_a_visibility_stamp_outside_the_engine():
    stamps = textwrap.dedent("""
        def revive(version, tx):
            version.xmin = tx.xid
            heap.get(tid).xmin += 1
            xmin = version.xmin          # reading the stamp is free
            return TupleVersion(values=(), xmin=xmin), box.xmin
    """)
    violations = lint_vectorized.check_write_path(
        stamps, "src/repro/core/classes.py")
    assert [line for line, _ in violations] == [3, 4]
    assert all("assigns .xmin" in message for _, message in violations)
    assert lint_vectorized.check_write_path(
        stamps, "src/repro/storage/engine.py") == []


def test_write_path_check_knows_its_homes():
    write = textwrap.dedent("""
        def insert(self, state, version, tx):
            tid = state.heap.insert(version)
            self.wal.append(LogKind.INSERT, xid=tx.xid)
            tree.insert(key, tid)       # an index, not a heap
            return wal.LogKind.COMMIT   # other record kinds are free
    """)
    assert lint_vectorized.check_write_path(
        write, "src/repro/storage/engine.py") == []
    assert [line for line, _ in lint_vectorized.check_write_path(
        write, "src/repro/storage/wal.py")] == [3, 4]
    box = "width = box.xmax - box.xmin\n"
    for home in ("src/repro/spatial/box.py", "src/repro/gis/mosaic.py",
                 "src/repro/server/protocol.py"):
        assert lint_vectorized.check_write_path(box, home) == []
    assert lint_vectorized.check_write_path(
        box, "src/repro/storage/engine.py")
    assert lint_vectorized.check_write_path(
        '"""Deletes used to stamp xmax."""\n', "src/repro/core/classes.py")


def test_engine_is_the_write_paths_only_home(monkeypatch):
    monkeypatch.chdir(REPO)
    sources = sorted(str(path) for path
                     in pathlib.Path("src/repro").rglob("*.py"))
    assert lint_vectorized.check_paths(
        sources, lint_vectorized.check_write_path) == []
    engine = pathlib.Path("src/repro/storage/engine.py").read_text()
    assert lint_vectorized.check_write_path(
        engine, "src/repro/storage/elsewhere.py")


def test_flags_a_second_context_var_and_a_kernel_wide_transaction():
    bad = textwrap.dedent("""
        import contextvars
        from contextvars import ContextVar

        _PIN = ContextVar("pin", default=None)
        _TX = contextvars.ContextVar("tx")

        class Store:
            def store(self, values):
                tx = self.current_tx
    """)
    violations = lint_vectorized.check_views(bad, "src/repro/query/client.py")
    assert [line for line, _ in violations] == [5, 6, 10]
    assert "constructs a ContextVar" in violations[0][1]
    assert "names current_tx" in violations[2][1]


def test_view_check_knows_its_home():
    home = textwrap.dedent("""
        from contextvars import ContextVar

        _VIEW = ContextVar("repro_view", default=None)
        view = _VIEW.get()          # reading the one ContextVar is free
    """)
    assert lint_vectorized.check_views(home, "src/repro/core/classes.py") \
        == []
    assert lint_vectorized.check_views(home, "src/repro/core/planner.py")
    # no module, the home included, may keep a kernel-wide slot
    assert lint_vectorized.check_views(
        "current_tx = None\n", "src/repro/core/classes.py")


def test_classes_holds_the_only_context_var(monkeypatch):
    monkeypatch.chdir(REPO)
    sources = sorted(str(path) for path
                     in pathlib.Path("src/repro").rglob("*.py"))
    assert lint_vectorized.check_paths(
        sources, lint_vectorized.check_views) == []
    classes = pathlib.Path("src/repro/core/classes.py").read_text()
    assert classes.count("ContextVar(") == 1
    assert lint_vectorized.check_views(classes, "src/repro/core/view.py")


def test_flags_the_value_codec_per_row_on_the_wire():
    bad = textwrap.dedent("""
        def _op_fetch(self, cursor, count):
            rows = cursor.fetchmany(count)
            return {"rows": [encode_value(row) for row in rows]}

        def _fetch_page(self, ok):
            out = []
            for row in ok["rows"]:
                out.append(protocol.decode_value(row))
            return out
    """)
    for home in ("src/repro/server/server.py", "src/repro/server/remote.py"):
        violations = lint_vectorized.check_wire_codec(bad, home)
        assert [line for line, _ in violations] == [4, 9]
        assert "value codec called per iteration" in violations[0][1]
    # the codec's own module recurses element-wise, by design
    assert lint_vectorized.check_wire_codec(
        bad, "src/repro/server/protocol.py") == []


def test_wire_codec_check_allows_pages_and_single_values():
    good = textwrap.dedent("""
        def _op_execute(self, cursor, request):
            cursor.execute(request["source"],
                           decode_value(request.get("params")))
            rows, error = cursor.fetch_page(request["count"])
            return {"rows": encode_page(rows)}

        def pages(replies):
            for ok in replies:
                yield decode_page(ok["rows"])
    """)
    assert lint_vectorized.check_wire_codec(
        good, "src/repro/server/server.py") == []


def test_wire_modules_ship_rows_as_pages(monkeypatch):
    monkeypatch.chdir(REPO)
    wire = [f"src/repro/{module}"
            for module in lint_vectorized.WIRE_MODULES]
    assert all(pathlib.Path(path).exists() for path in wire)
    assert lint_vectorized.check_paths(
        wire, lint_vectorized.check_wire_codec) == []


def test_flags_per_object_rechecks_in_the_query_tree():
    bad = textwrap.dedent("""
        from ..core.classes import matches_extents, matches_predicates

        def probe(store, cls, key):
            for obj in store.iter_find(cls, filters=(("k", key),)):
                if matches_extents(obj, cls, None, None) \\
                        and matches_predicates(obj, (), ()):
                    yield obj
            return store.find(cls)
    """)
    violations = lint_vectorized.check_compiled_rechecks(
        bad, "src/repro/query/operators.py")
    assert [line for line, _ in violations] == [5, 6, 7, 9]
    assert "compiled masks" in violations[0][1]
    # outside the query tree the Python retrieval function still rides them
    assert lint_vectorized.check_compiled_rechecks(
        bad, "src/repro/core/planner.py") == []


def test_the_query_tree_rechecks_with_compiled_masks(monkeypatch):
    monkeypatch.chdir(REPO)
    query = sorted(str(path) for path
                   in pathlib.Path("src/repro/query").rglob("*.py"))
    assert query and lint_vectorized.check_paths(
        query, lint_vectorized.check_compiled_rechecks) == []


def test_planner_is_the_ladders_only_home(monkeypatch):
    monkeypatch.chdir(REPO)
    planner = "src/repro/core/planner.py"
    assert lint_vectorized.check_paths(
        [planner], lint_vectorized.check_fallback_ladder)
    assert lint_vectorized.main([]) == 0
    assert lint_vectorized.main([planner]) == 0


def test_no_source_module_reads_row_streams(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert lint_vectorized.main([]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("def run_batches(self):\n    yield {}\n")
    ok = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(clean)],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0, ok.stderr

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        "def run_batches(self):\n"
        "    for i in range(3):\n"
        "        yield {'i': i}\n"
    )
    bad = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(dirty)],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1
    assert "per-row dict building" in bad.stderr

    consumer = tmp_path / "consumer.py"
    consumer.write_text("rows = store.engine.iter_range('r', 'k', 1, 2)\n")
    leak = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(consumer)],
        capture_output=True, text=True,
    )
    assert leak.returncode == 1
    assert "consumer.py:1: iter_range() streams Row dicts" in leak.stderr

    ladder = tmp_path / "ladder.py"
    ladder.write_text("steps = kernel.planner.fallback_order\n")
    second_home = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(ladder)],
        capture_output=True, text=True,
    )
    assert second_home.returncode == 1
    assert "ladder.py:1: reads .fallback_order" in second_home.stderr

    fetcher = tmp_path / "fetcher.py"
    fetcher.write_text("rows = [cur.fetchone() for _ in range(9)]\n")
    per_row = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(fetcher)],
        capture_output=True, text=True,
    )
    assert per_row.returncode == 1
    assert "fetcher.py:1: fetchone() called per iteration" in per_row.stderr

    slot = tmp_path / "slot.py"
    slot.write_text("tx = kernel.store.current_tx\n")
    global_tx = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(slot)],
        capture_output=True, text=True,
    )
    assert global_tx.returncode == 1
    assert "slot.py:1: names current_tx" in global_tx.stderr

    stamp = tmp_path / "stamp.py"
    stamp.write_text("version.xmin = ABORTED\n")
    second_stamp = subprocess.run(
        [sys.executable, str(REPO / "tools" / "lint_vectorized.py"),
         str(stamp)],
        capture_output=True, text=True,
    )
    assert second_stamp.returncode == 1
    assert "stamp.py:1: assigns .xmin" in second_stamp.stderr
