"""Tests for the v2 client API: connect/Connection/Cursor, prepared
statements with parameter binding, the plan cache, streaming fetches,
and transactions."""

import gc
import threading
import weakref

import pytest

from repro import connect
from repro.core.classes import View
from repro.errors import (
    BindError,
    GaeaError,
    InterfaceError,
    ParseError,
    PlanningError,
    UnderivableError,
)
from repro.figures import AFRICA
from repro.gis import SceneGenerator
from repro.spatial import Box
from repro.temporal import AbsTime


DDL = """
DEFINE CLASS landsat_tm (
  ATTRIBUTES: area = char16; band = char16; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
DEFINE CLASS land_cover (
  ATTRIBUTES: area = char16; numclass = int4; data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P20
)
DEFINE PROCESS P20
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
"""


@pytest.fixture()
def conn():
    connection = connect(universe=AFRICA)
    connection.cursor().run(DDL)
    generator = SceneGenerator(seed=4, nrow=16, ncol=16)
    stamp = AbsTime.from_ymd(1986, 1, 15)
    for band, image in zip(("red", "nir", "green"),
                           generator.scene("africa", 1986, 1)):
        connection.kernel.store.store("landsat_tm", {
            "area": "africa", "band": band, "data": image,
            "spatialextent": AFRICA, "timestamp": stamp,
        })
    return connection


class TestCursorBasics:
    def test_execute_ddl_collects_messages(self, conn):
        cur = conn.cursor()
        cur.execute("DEFINE CONCEPT cover MEMBERS land_cover")
        assert any("cover" in r.message for r in cur.results)

    def test_fetchone_streams_objects(self, conn):
        cur = conn.cursor().execute("SELECT FROM landsat_tm")
        first = cur.fetchone()
        assert first.class_name == "landsat_tm"
        assert cur.rowcount == -1  # stream still open
        rest = cur.fetchall()
        assert len(rest) == 2
        assert cur.rowcount == 3
        assert cur.fetchone() is None

    def test_fetchmany_and_iteration(self, conn):
        cur = conn.cursor().execute("SELECT FROM landsat_tm")
        assert len(cur.fetchmany(2)) == 2
        assert len(list(cur)) == 1

    def test_description_from_class_schema(self, conn):
        cur = conn.cursor().execute("SELECT FROM landsat_tm")
        names = [column[0] for column in cur.description]
        assert "band" in names and "spatialextent" in names

    def test_statements_after_retrieval_run_on_drain(self, conn):
        cur = conn.cursor().execute("SELECT FROM landsat_tm; SHOW CLASSES")
        assert cur.results == []  # SHOW not reached yet
        cur.fetchall()
        assert any("CLASS landsat_tm" in r.message for r in cur.results)

    def test_closed_cursor_and_connection_reject_use(self, conn):
        cur = conn.cursor()
        cur.close()
        with pytest.raises(InterfaceError):
            cur.execute("SHOW CLASSES")
        conn.close()
        with pytest.raises(InterfaceError):
            conn.cursor()

    def test_run_preserves_statement_order(self, conn):
        results = conn.cursor().run("SHOW CLASSES; SELECT FROM landsat_tm")
        assert [r.kind for r in results] == ["message", "objects"]


class TestParameterBinding:
    def test_positional_rebinding_cached_plan(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = ?")
        cur = conn.cursor()
        for band in ("red", "nir", "green"):
            cur.execute(query, [band])
            [obj] = cur.fetchall()
            assert obj["band"] == band
        assert conn.cache_hits >= 3

    def test_named_parameters(self, conn):
        cur = conn.cursor()
        cur.execute(
            "SELECT FROM landsat_tm WHERE band = :band AND area = :area",
            {"band": "nir", "area": "africa"},
        )
        assert len(cur.fetchall()) == 1

    def test_timestamp_parameter_accepts_string_and_abstime(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE timestamp = ?")
        cur = conn.cursor()
        cur.execute(query, ["1986-01-15"])
        assert len(cur.fetchall()) == 3
        cur.execute(query, [AbsTime.from_ymd(1986, 1, 15)])
        assert len(cur.fetchall()) == 3

    def test_box_coordinate_and_whole_box_parameters(self, conn):
        cur = conn.cursor()
        cur.execute(
            "SELECT FROM landsat_tm WHERE spatialextent OVERLAPS "
            "(?, ?, 52, 38)", [-20.0, -35.0],
        )
        assert len(cur.fetchall()) == 3
        cur.execute(
            "SELECT FROM landsat_tm WHERE spatialextent OVERLAPS ?",
            [Box(-20.0, -35.0, 52.0, 38.0)],
        )
        assert len(cur.fetchall()) == 3

    def test_derive_with_parameters(self, conn):
        result = conn.execute("DERIVE land_cover AT ?", ["1986-01-15"])
        assert result[0].path == "derive"

    def test_missing_bind_values(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = ?")
        with pytest.raises(BindError):
            conn.cursor().execute(query)
        with pytest.raises(BindError):
            conn.cursor().execute(query, [])

    def test_extra_bind_values(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = ?")
        with pytest.raises(BindError):
            conn.cursor().execute(query, ["red", "nir"])

    def test_named_missing_and_extra_keys(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = :band")
        with pytest.raises(BindError):
            conn.cursor().execute(query, {})
        with pytest.raises(BindError):
            conn.cursor().execute(query, {"band": "red", "ghost": 1})

    def test_positional_values_for_named_statement(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = :band")
        with pytest.raises(BindError):
            conn.cursor().execute(query, ["red"])

    def test_mixing_styles_is_a_parse_error(self, conn):
        with pytest.raises(ParseError):
            conn.prepare(
                "SELECT FROM landsat_tm WHERE band = ? AND area = :area"
            )
        # Mixing across statements of one source is just as unbindable.
        with pytest.raises(ParseError):
            conn.prepare(
                "SELECT FROM landsat_tm WHERE band = ?; "
                "SELECT FROM landsat_tm WHERE area = :area"
            )

    def test_positional_params_span_statements(self, conn):
        results = conn.execute(
            "SELECT FROM landsat_tm WHERE band = ?; "
            "SELECT FROM landsat_tm WHERE band = ?",
            ["red", "nir"],
        )
        assert [obj["band"] for r in results for obj in r.objects] == \
            ["red", "nir"]

    def test_wrongly_typed_box_parameter(self, conn):
        query = conn.prepare(
            "SELECT FROM landsat_tm WHERE spatialextent OVERLAPS ?"
        )
        with pytest.raises(BindError):
            conn.cursor().execute(query, ["not a box"])

    def test_unbound_execution_rejected(self, conn):
        plan = conn.optimizer.compile("SELECT FROM landsat_tm WHERE band = ?")
        with pytest.raises(BindError):
            conn.executor.execute(plan.nodes[0])

    def test_explain_resolves_deferred_path(self, conn):
        [before] = conn.execute(
            "EXPLAIN SELECT FROM land_cover WHERE timestamp = ?",
            ["1986-01-15"],
        )
        assert before.details["paths"]["land_cover"] == "derive"
        conn.execute("SELECT FROM land_cover WHERE timestamp = ?",
                     ["1986-01-15"])
        [after] = conn.execute(
            "EXPLAIN SELECT FROM land_cover WHERE timestamp = ?",
            ["1986-01-15"],
        )
        assert after.details["paths"]["land_cover"] == "retrieve"


class TestPlanCache:
    def test_repeated_source_text_hits_cache(self, conn):
        cur = conn.cursor()
        misses_before = conn.cache_misses
        for _ in range(5):
            cur.execute("SELECT FROM landsat_tm")
            cur.fetchall()
        assert conn.cache_misses == misses_before + 1
        assert conn.cache_hits >= 4

    def test_ddl_invalidates_cached_plans(self, conn):
        query = conn.prepare("SELECT FROM landsat_tm WHERE band = ?")
        cur = conn.cursor()
        cur.execute(query, ["red"])
        cur.fetchall()
        conn.execute("DEFINE CONCEPT probe MEMBERS landsat_tm")
        invalidations_before = conn.plan_cache.invalidations
        cur.execute(query, ["red"])
        assert len(cur.fetchall()) == 1
        assert conn.plan_cache.invalidations == invalidations_before + 1

    def test_concept_membership_change_replans(self, conn):
        conn.execute("DEFINE CONCEPT scenes MEMBERS landsat_tm")
        query = conn.prepare("SELECT FROM scenes WHERE timestamp = ?")
        [result] = conn.execute(query, ["1986-01-15"])
        assert {o.class_name for o in result.objects} == {"landsat_tm"}
        # Attaching a member directly on the kernel bumps the concept
        # revision, so the cached plan must not be served stale.
        conn.kernel.concepts.attach_class("scenes", "land_cover")
        [result] = conn.execute(query, ["1986-01-15"])
        assert {o.class_name for o in result.objects} == \
            {"land_cover", "landsat_tm"}

    def test_a_cached_literal_plan_prices_its_path_when_built(
            self, conn, monkeypatch):
        """Regression: a literal statement's access path was priced once,
        at plan time, so its cached plan kept the full scan chosen over
        one row after the relation grew to 2,000 — and EXPLAIN's summary
        line named the index probe above a tree that scanned the heap."""
        cur = conn.cursor()
        cur.execute("DEFINE CLASS station_obs ( ATTRIBUTES: serial = int4; "
                    "reading = float8; )")
        cur.execute("CREATE INDEX ON station_obs (serial)")
        store = conn.kernel.store
        store.store("station_obs", {"serial": 0, "reading": 0.0})
        source = "SELECT FROM station_obs WHERE serial = 7"
        assert cur.execute(source).fetchall() == []
        assert "HeapScan(cls_station_obs) full-scan" in cur.explain(source)
        for serial in range(1, 2000):
            store.store("station_obs", {"serial": serial, "reading": 0.5})

        probes = []
        lookup = store.engine.iter_lookup_tids
        monkeypatch.setattr(store.engine, "iter_lookup_tids",
                            lambda *args: probes.append(args) or lookup(*args))
        hits = conn.cache_hits
        rows = cur.execute(source).fetchall()
        assert conn.cache_hits == hits + 1
        assert [(row["serial"], row["reading"]) for row in rows] == [(7, 0.5)]
        assert probes == [("cls_station_obs", "serial", 7)]

        summary, tree = cur.explain(source).split("\n", 1)
        assert "access=index-eq(serial=7)" in summary
        assert "IndexScan(cls_station_obs.serial) index-eq(serial=7)" in tree
        assert "HeapScan" not in tree

    def test_lru_eviction_is_bounded(self, conn):
        small = connect(kernel=conn.kernel, plan_cache_size=2)
        cur = small.cursor()
        for band in ("red", "nir", "green"):
            cur.execute(f"SELECT FROM landsat_tm WHERE band = '{band}'")
            cur.fetchall()
        assert len(small.plan_cache) == 2


class TestTransactions:
    def _store_scene(self, conn, band="extra"):
        generator = SceneGenerator(seed=9, nrow=16, ncol=16)
        image = generator.scene("africa", 1987, 1)[0]
        return conn.kernel.store.store("landsat_tm", {
            "area": "africa", "band": band, "data": image,
            "spatialextent": AFRICA,
            "timestamp": AbsTime.from_ymd(1987, 1, 15),
        })

    def test_commit_makes_objects_durable(self, conn):
        conn.begin()
        self._store_scene(conn)
        conn.commit()
        cur = conn.cursor()
        cur.execute("SELECT FROM landsat_tm WHERE band = ?", ["extra"])
        assert len(cur.fetchall()) == 1

    def test_rollback_discards_objects(self, conn):
        conn.begin()
        self._store_scene(conn)
        cur = conn.cursor()
        cur.execute("SELECT FROM landsat_tm WHERE band = ?", ["extra"])
        assert len(cur.fetchall()) == 1  # the writer sees its own work
        conn.rollback()
        cur.execute("SELECT FROM landsat_tm WHERE band = ?", ["extra"])
        assert cur.fetchall() == []

    def test_double_begin_rejected(self, conn):
        conn.begin()
        with pytest.raises(InterfaceError):
            conn.begin()
        conn.rollback()

    def test_a_commit_from_another_thread_ends_the_ambient_view(self, conn):
        """A shared connection may be begun in one thread and committed
        in another; the thread that began it then reads live data, not
        the ended transaction's snapshot."""
        conn.begin()
        for work in (conn.commit, lambda: self._store_scene(conn)):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert conn.kernel.store.count("landsat_tm") == 4
        mine = self._store_scene(conn, band="mine")
        assert conn.kernel.store.get(mine.oid) == mine
        assert not conn.in_transaction

    def test_an_ended_transaction_pins_nothing(self):
        """Once committed, the transaction's view no longer keeps the
        kernel it read alive in the context that began it."""
        conn = connect(universe=AFRICA)
        conn.begin()
        conn.commit()
        store = weakref.ref(conn.kernel.store)
        del conn
        gc.collect()
        assert store() is None

    def test_concurrent_writers_are_independent(
            self, conn):
        """Transactions belong to their connections: two are open at
        once, each sees only its own uncommitted work, and one's
        rollback leaves the other's commit whole."""
        other = connect(kernel=conn.kernel)

        def oids(connection, band):
            [result] = connection.execute(
                "SELECT FROM landsat_tm WHERE band = ?", [band])
            return [obj.oid for obj in result.objects]

        conn.begin()
        kept = self._store_scene(conn, band="kept")      # joins conn's
        other.begin()            # now the ambient view: stores join it
        doomed = self._store_scene(other, band="doomed")
        assert oids(conn, "kept") == [kept.oid] and oids(other, "kept") == []
        assert oids(other, "doomed") == [doomed.oid]
        assert oids(conn, "doomed") == []
        other.rollback()
        conn.commit()
        assert oids(other, "kept") == [kept.oid]
        assert oids(conn, "doomed") == []

    def test_rollback_of_a_derivation_does_not_poison_reuse(self, conn):
        """A derivation executed (and task-logged) inside a rolled-back
        transaction must not leave the class unretrievable: the memoized
        task's output is gone, so the next query recomputes."""
        conn.begin()
        first = conn.execute("SELECT FROM land_cover WHERE timestamp = ?",
                             ["1986-01-15"])
        assert first[0].path == "derive"
        rolled_back_oid = first[0].objects[0].oid
        conn.rollback()
        again = conn.execute("SELECT FROM land_cover WHERE timestamp = ?",
                             ["1986-01-15"])
        assert again[0].path == "derive"
        assert again[0].objects[0].oid != rolled_back_oid
        from repro.errors import UnknownClassError
        with pytest.raises(UnknownClassError):
            conn.kernel.store.get(rolled_back_oid)

    QUERY = "SELECT FROM land_cover WHERE timestamp = ?"

    def test_rollback_discards_the_tasks_of_the_objects_it_discards(
            self, conn):
        """Provenance is as transactional as the objects it describes:
        no task record, memo entry or lineage outlives a rollback."""
        from repro.errors import UnknownClassError
        tasks = conn.kernel.derivations.tasks
        before = len(tasks)
        conn.begin()
        [derived] = conn.execute(self.QUERY, ["1986-01-15"])
        assert derived.path == "derive" and len(tasks) == before + 1
        oid = derived.objects[0].oid
        assert conn.execute(f"LINEAGE {oid}")[0].details["steps"]
        conn.rollback()
        assert len(tasks) == before
        assert tasks.producer_of(oid) is None
        with pytest.raises(UnknownClassError):
            conn.execute(f"LINEAGE {oid}")
        [again] = conn.execute(self.QUERY, ["1986-01-15"])
        assert again.path == "derive" and len(tasks) == before + 1
        [third] = conn.execute(self.QUERY, ["1986-01-15"])
        assert third.path == "retrieve" and len(tasks) == before + 1
        assert third.objects[0].oid == again.objects[0].oid

    def test_commit_keeps_the_tasks_of_the_objects_it_keeps(self, conn):
        tasks = conn.kernel.derivations.tasks
        conn.begin()
        [derived] = conn.execute(self.QUERY, ["1986-01-15"])
        conn.commit()
        [task] = tasks
        oid = derived.objects[0].oid
        assert tasks.producer_of(oid) is task and tasks.get(task.task_id) is task
        assert conn.execute(f"LINEAGE {oid}")[0].details["steps"] \
            == [task.task_id]
        [again] = conn.execute(self.QUERY, ["1986-01-15"])
        assert again.path == "retrieve" and len(tasks) == 1

    def test_rollback_keeps_failure_records_and_earlier_tasks(self, conn):
        """Only the tasks whose outputs the rollback discards go."""
        tasks = conn.kernel.derivations.tasks
        [kept] = conn.execute(self.QUERY, ["1986-01-15"])
        bands = conn.kernel.store.find("landsat_tm")
        conn.begin()
        with pytest.raises(Exception):
            conn.kernel.derivations.execute_process(
                "P20", {"bands": bands[:2]})
        conn.rollback()
        assert [t.succeeded for t in tasks] == [True, False]
        assert tasks.producer_of(kept.objects[0].oid) is not None

    def _store_1987_scenes(self, conn):
        generator = SceneGenerator(seed=9, nrow=16, ncol=16)
        return [conn.kernel.store.store("landsat_tm", {
            "area": "africa", "band": band, "data": image,
            "spatialextent": AFRICA,
            "timestamp": AbsTime.from_ymd(1987, 1, 15),
        }) for band, image in zip(("red", "nir", "green"),
                                  generator.scene("africa", 1987, 1))]

    def test_no_derivation_from_another_connections_uncommitted_data(
            self, conn):
        """A derivation reads its own statement's view: another
        connection's uncommitted scenes are as invisible to it as to a
        count(*) — no dirty read."""
        other = connect(kernel=conn.kernel)
        tasks = conn.kernel.derivations.tasks
        other.begin()
        pending = {obj.oid for obj in self._store_1987_scenes(other)}
        [counted] = conn.execute("SELECT count(*) FROM landsat_tm")
        assert counted.objects[0]["count(*)"] == 3
        with pytest.raises(UnderivableError):
            conn.execute(self.QUERY, ["1987-01-15"])
        assert not any(task.all_input_oids() & pending for task in tasks)
        other.commit()
        [derived] = conn.execute(self.QUERY, ["1987-01-15"])
        assert derived.path == "derive"
        [task] = [t for t in tasks if t.all_input_oids() & pending]
        assert task.output_oids == (derived.objects[0].oid,)

    def test_another_connections_rollback_keeps_an_auto_commit_derivation(
            self, conn):
        """A derivation made in auto-commit is written in its own
        transaction: rolling back another connection's (empty) one
        leaves the object, its task and its reuse alone."""
        other = connect(kernel=conn.kernel)
        tasks = conn.kernel.derivations.tasks
        other.begin()
        [derived] = conn.execute(self.QUERY, ["1986-01-15"])
        assert derived.path == "derive"
        obj = derived.objects[0]
        other.rollback()
        assert conn.kernel.store.get(obj.oid) == obj
        assert tasks.producer_of(obj.oid) is not None
        [again] = conn.execute(self.QUERY, ["1986-01-15"])
        assert again.path == "retrieve" and len(tasks) == 1
        assert [o.oid for o in again.objects] == [obj.oid]

    def test_memo_reuse_needs_a_visible_output(self, conn):
        """A task another connection has not committed is not reused:
        its output is invisible here, so this view derives its own."""
        other = connect(kernel=conn.kernel)
        tasks = conn.kernel.derivations.tasks
        other.begin()
        [pending] = other.execute(self.QUERY, ["1986-01-15"])
        [mine] = conn.execute(self.QUERY, ["1986-01-15"])
        assert mine.path == "derive" and len(tasks) == 2
        assert mine.objects[0].oid != pending.objects[0].oid
        other.rollback()
        assert [t.output_oids for t in tasks] == [(mine.objects[0].oid,)]

    def test_a_rolled_back_rederivation_leaves_the_committed_task_memoized(
            self, conn):
        """A writer that began before another view's derivation committed
        derives its own.  Its task does not hide the committed one: other
        views keep reusing that, and the rollback leaves it memoized."""
        writer = connect(kernel=conn.kernel)
        derivations = conn.kernel.derivations
        bands = {"bands": conn.kernel.store.find("landsat_tm")}
        writer.begin()
        [committed] = conn.execute(self.QUERY, ["1986-01-15"])
        [pending] = writer.execute(self.QUERY, ["1986-01-15"])
        assert pending.path == "derive"
        assert pending.objects[0].oid != committed.objects[0].oid
        first = derivations.tasks.producer_of(committed.objects[0].oid)
        # a fresh view: this context's ambient one is the writer's
        with View(conn.kernel.store).entered():
            reused = derivations.execute_process("P20", bands)
        assert reused.reused and reused.task is first
        writer.rollback()
        assert derivations.tasks.memoized("P20", bands) == [first]
        assert len(derivations.tasks) == 1

    def test_a_read_only_transaction_derives_once(self, conn):
        """Derived data written under a read-only transaction's view is
        its own write: later statements of the same transaction reuse
        it, though the frozen snapshot predates it."""
        tasks = conn.kernel.derivations.tasks
        conn.begin(read_only=True)
        [first] = conn.execute(self.QUERY, ["1986-01-15"])
        [second] = conn.execute(self.QUERY, ["1986-01-15"])
        conn.commit()
        assert (first.path, second.path) == ("derive", "retrieve")
        assert second.objects == first.objects and len(tasks) == 1

    def test_explain_reads_the_pinned_snapshot(self):
        """Inside a read-only transaction EXPLAIN resolves the §2.1.5
        path against the frozen view the SELECT reads, not live data."""
        reader = connect(universe=AFRICA)
        reader.execute("DEFINE CLASS probe ( ATTRIBUTES: k = int4; )")
        reader.begin(read_only=True)
        connect(kernel=reader.kernel).kernel.store.store("probe", {"k": 2})
        query = "SELECT FROM probe WHERE k = 2"
        with pytest.raises(UnderivableError):
            reader.cursor().execute(query).fetchall()
        assert "path=unsatisfiable" in reader.cursor().explain(query)
        [plan] = reader.execute("EXPLAIN " + query)
        assert plan.details["paths"] == {"probe": "unsatisfiable"}
        reader.commit()
        assert "path=retrieve" in reader.cursor().explain(query)
        assert len(reader.cursor().execute(query).fetchall()) == 1

    def test_context_manager_commits_on_success(self):
        with connect(universe=AFRICA) as conn:
            conn.cursor().run(DDL)
            conn.begin()
            generator = SceneGenerator(seed=9, nrow=16, ncol=16)
            conn.kernel.store.store("landsat_tm", {
                "area": "africa", "band": "red",
                "data": generator.scene("africa", 1987, 1)[0],
                "spatialextent": AFRICA,
                "timestamp": AbsTime.from_ymd(1987, 1, 15),
            })
            kernel = conn.kernel
        assert conn.closed
        fresh = connect(kernel=kernel)
        cur = fresh.cursor().execute("SELECT FROM landsat_tm")
        assert len(cur.fetchall()) == 1


class TestSharedKernel:
    def test_two_connections_share_data_not_caches(self, conn):
        other = connect(kernel=conn.kernel)
        cur = other.cursor().execute("SELECT FROM landsat_tm")
        assert len(cur.fetchall()) == 3
        assert other.cache_misses == 1
        assert other.cache_hits == 0
        assert conn.kernel is other.kernel


def _one(conn, source, params=None):
    """The single result of a one-statement source."""
    [result] = conn.execute(source, params)
    return result


class TestStatementResults:
    """``run()``/``Connection.execute``: one result per statement."""

    def test_definitions_land_in_kernel(self, conn):
        assert "land_cover" in conn.kernel.classes
        assert "P20" in conn.kernel.derivations.processes

    def test_show_classes(self, conn):
        message = _one(conn, "SHOW CLASSES").message
        assert "CLASS landsat_tm" in message
        assert "DERIVED BY: P20" in message

    def test_show_processes(self, conn):
        assert "DEFINE PROCESS P20" in _one(conn, "SHOW PROCESSES").message

    def test_derive_then_retrieve(self, conn):
        query = "SELECT FROM land_cover WHERE timestamp = '1986-01-15'"
        first = _one(conn, query)
        assert first.path == "derive"
        assert first.details["plan_steps"] == ["P20"]
        assert _one(conn, query).path == "retrieve"

    def test_derive_statement_forces_recomputation(self, conn):
        _one(conn, "SELECT FROM land_cover")
        assert _one(conn, "DERIVE land_cover").path == "derive"

    def test_unknown_source(self, conn):
        with pytest.raises(PlanningError):
            conn.execute("SELECT FROM ghost")

    def test_underivable_query(self):
        empty = connect(universe=AFRICA)
        empty.execute(DDL)  # classes defined but no scenes loaded
        with pytest.raises(UnderivableError):
            empty.execute("SELECT FROM land_cover")

    def test_spatial_predicate_filters(self, conn):
        result = _one(conn, "SELECT FROM landsat_tm WHERE spatialextent "
                            "OVERLAPS (-20, -35, 52, 38)")
        assert len(result.objects) == 3

    def test_select_from_concept(self, conn):
        conn.execute("DEFINE CONCEPT cover_concept MEMBERS land_cover")
        result = _one(conn, "SELECT FROM cover_concept")
        assert result.details["class"] == "land_cover"
        assert result.details["concept"] == "cover_concept"

    def test_show_concepts(self, conn):
        conn.execute("DEFINE CONCEPT cover_concept MEMBERS land_cover")
        message = _one(conn, "SHOW CONCEPTS").message
        assert "cover_concept" in message and "land_cover" in message

    def test_concept_without_members_rejected(self, conn):
        conn.execute("DEFINE CONCEPT empty_concept")
        with pytest.raises(PlanningError):
            conn.execute("SELECT FROM empty_concept")

    def test_run_process_by_oids(self, conn):
        run = _one(conn, "RUN P20 WITH bands = (1, 2, 3)")
        assert run.path == "run"
        assert run.objects[0].class_name == "land_cover"

    def test_lineage_query(self, conn):
        run = _one(conn, "RUN P20 WITH bands = (1, 2, 3)")
        lineage = _one(conn, f"LINEAGE {run.objects[0].oid}")
        assert lineage.details["base_oids"] == [1, 2, 3]
        assert lineage.details["depth"] == 1

    def test_show_tasks(self, conn):
        _one(conn, "RUN P20 WITH bands = (1, 2, 3)")
        assert "P20" in _one(conn, "SHOW TASKS").message

    def test_run_unbound_argument(self, conn):
        with pytest.raises(UnderivableError):
            conn.execute("RUN P20")

    def test_run_memoizes(self, conn):
        first = _one(conn, "RUN P20 WITH bands = (1, 2, 3)")
        second = _one(conn, "RUN P20 WITH bands = (1, 2, 3)")
        assert not first.details["reused"]
        assert second.details["reused"]
        assert first.objects[0].oid == second.objects[0].oid


SITE_DDL = """
DEFINE CLASS site (
  ATTRIBUTES: code = int4; reading = float8; name = char16;
  SPATIAL EXTENT: cell = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
"""


@pytest.fixture()
def site_conn():
    connection = connect(universe=Box(0, 0, 100, 100))
    connection.cursor().run(SITE_DDL)
    stamp = AbsTime.from_ymd(1990, 6, 1)
    for i in range(60):
        connection.kernel.store.store("site", {
            "code": i % 6, "reading": float(i), "name": f"s{i}",
            "cell": Box(i % 10, i % 10, i % 10 + 1, i % 10 + 1),
            "timestamp": stamp,
        })
    return connection


class TestIndexedRetrieval:
    def test_create_index_switches_plan_to_index_probe(self, site_conn):
        cur = site_conn.cursor()
        query = "SELECT FROM site WHERE code = 3"
        assert "full-scan" in cur.explain(query)
        before = cur.execute(query).fetchall()

        cur.execute("CREATE INDEX ON site (code)")
        assert "index-eq(code=3)" in cur.explain(query)
        after = cur.execute(query).fetchall()
        assert sorted(o["name"] for o in after) \
            == sorted(o["name"] for o in before)
        assert len(after) == 10

    def test_index_ddl_invalidates_cached_plan(self, site_conn):
        cur = site_conn.cursor()
        query = "SELECT FROM site WHERE code = 3"
        cur.execute(query).fetchall()
        cur.execute(query).fetchall()  # served from the plan cache
        invalidations = site_conn.plan_cache.invalidations
        cur.execute("CREATE INDEX ON site (code)")
        cur.execute(query).fetchall()  # must re-plan, not reuse full-scan
        assert site_conn.plan_cache.invalidations == invalidations + 1
        assert "index-eq" in cur.explain(query)

    def test_range_predicate_with_binds_uses_index(self, site_conn):
        cur = site_conn.cursor()
        cur.execute("CREATE INDEX ON site (reading)")
        query = "SELECT FROM site WHERE reading >= ? AND reading <= ?"
        rows = cur.execute(query, [40.0, 44.0]).fetchall()
        assert sorted(o["reading"] for o in rows) \
            == [40.0, 41.0, 42.0, 43.0, 44.0]
        assert "index-range(reading" in cur.explain(query, [40.0, 44.0])

    def test_drop_index_reverts_to_full_scan(self, site_conn):
        cur = site_conn.cursor()
        cur.execute("CREATE INDEX ON site (code)")
        cur.execute("DROP INDEX ON site (code)")
        assert "full-scan" in cur.explain("SELECT FROM site WHERE code = 3")
        assert len(cur.execute("SELECT FROM site WHERE code = 3")
                   .fetchall()) == 10

    def test_show_indexes_lists_catalog_entries(self, site_conn):
        cur = site_conn.cursor()
        cur.execute("CREATE INDEX ON site (code)")
        [result] = cur.execute("SHOW INDEXES").results
        assert "(code) [btree]" in result.message
        assert "[spatial]" in result.message  # extent index from DDL

    def test_streaming_fetchone_from_index_scan(self, site_conn):
        cur = site_conn.cursor()
        cur.execute("CREATE INDEX ON site (code)")
        cur.execute("SELECT FROM site WHERE code = 2")
        first = cur.fetchone()
        assert first["code"] == 2
        assert cur.rowcount == -1  # stream still open
        assert len(cur.fetchall()) == 9


class TestExecutemanyPlanReuse:
    def test_one_cache_access_for_many_parameter_sets(self, site_conn):
        cur = site_conn.cursor()
        query = "SELECT FROM site WHERE code = ?"
        hits0, misses0 = site_conn.cache_hits, site_conn.cache_misses
        cur.executemany(query, [[i] for i in range(6)])
        # One compile (a miss) for the whole batch — parameter sets bind
        # against the same plan template without re-keying the cache.
        assert site_conn.cache_misses == misses0 + 1
        assert site_conn.cache_hits == hits0

    def test_prepared_statement_batch_is_one_hit(self, site_conn):
        cur = site_conn.cursor()
        prepared = site_conn.prepare("SELECT FROM site WHERE code = ?")
        hits0, misses0 = site_conn.cache_hits, site_conn.cache_misses
        cur.executemany(prepared, [[i] for i in range(6)])
        assert site_conn.cache_hits == hits0 + 1
        assert site_conn.cache_misses == misses0

    def test_executemany_results_match_execute(self, site_conn):
        cur = site_conn.cursor()
        per_set = [
            len(cur.execute("SELECT FROM site WHERE code = ?", [i])
                .fetchall())
            for i in range(6)
        ]
        assert per_set == [10] * 6
        cur.executemany("SELECT FROM site WHERE code = ?",
                        [[i] for i in range(6)])
        assert cur.rowcount == 10  # last batch's drained count


class TestPredicateCoercionAndErrors:
    def test_run_and_execute_agree_on_timestamp_range(self, site_conn):
        # String date literals coerce to AbsTime on every path: the
        # streaming cursor and the materializing run() must agree.
        q = "SELECT FROM site WHERE timestamp >= '1990-01-01'"
        streamed = site_conn.cursor().execute(q).fetchall()
        [result] = site_conn.cursor().run(q)
        assert len(result.objects) == len(streamed) == 60
        q_empty = "SELECT FROM site WHERE timestamp > '1999-01-01'"
        assert site_conn.cursor().execute(q_empty).fetchall() == []
        [empty] = site_conn.cursor().run(q_empty)
        assert empty.objects == ()

    def test_incomparable_range_literal_raises_typed_error(self, site_conn):
        cur = site_conn.cursor()
        with pytest.raises(GaeaError):
            cur.execute("SELECT FROM site WHERE name > 5").fetchall()
