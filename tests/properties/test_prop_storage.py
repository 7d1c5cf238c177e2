"""Property-based tests: storage-engine visibility and recovery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adt import make_standard_registries
from repro.storage import StorageEngine


def _fresh_engine():
    types, _ = make_standard_registries()
    engine = StorageEngine(types=types)
    engine.create_relation("t", [("k", "int4"), ("v", "char16")])
    return engine, types

# Operation stream: (action, key) — begin/insert/commit/abort cycles.
_SCRIPTS = st.lists(
    st.tuples(st.sampled_from(["committed", "aborted"]),
              st.lists(st.integers(0, 50), min_size=0, max_size=5)),
    max_size=20,
)


class TestVisibilityProperties:
    @given(script=_SCRIPTS)
    @settings(max_examples=60, deadline=None)
    def test_only_committed_rows_visible(self, script):
        engine, _ = _fresh_engine()
        expected = []
        for outcome, keys in script:
            tx = engine.begin()
            for key in keys:
                engine.insert("t", (key, f"v{key}"), tx)
            if outcome == "committed":
                engine.commit(tx)
                expected.extend(keys)
            else:
                engine.abort(tx)
        got = sorted(row["k"] for row in engine.scan("t"))
        assert got == sorted(expected)

    @given(script=_SCRIPTS)
    @settings(max_examples=40, deadline=None)
    def test_recovery_equals_live_state(self, script):
        engine, types = _fresh_engine()
        for outcome, keys in script:
            tx = engine.begin()
            for key in keys:
                engine.insert("t", (key, f"v{key}"), tx)
            if outcome == "committed":
                engine.commit(tx)
            else:
                engine.abort(tx)
        live = sorted(row["k"] for row in engine.scan("t"))
        recovered = StorageEngine.recover(engine.wal, types)
        replayed = sorted(row["k"] for row in recovered.scan("t"))
        assert replayed == live

    @given(ops=st.lists(
        st.tuples(st.sampled_from(["begin", "insert", "commit", "abort"]),
                  st.integers(0, 7)),
        max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_log_recovers_committed_rows(self, ops):
        """Any interleaving of transactions — some committed, some
        aborted, some still unfinished when the log ends — recovers to
        exactly the committed rows, in log order; the dead versions the
        live heap keeps are not replayed, and an index built over either
        heap holds the committed rows only (the live one once its
        in-flight transactions have aborted)."""
        engine, types = _fresh_engine()
        active, inserted, committed = [], {}, set()
        for op, arg in ops:
            if op == "begin":
                tx = engine.begin()
                active.append(tx)
                inserted[tx.xid] = []
            elif active:
                tx = active[arg % len(active)]
                if op == "insert":
                    key = sum(map(len, inserted.values()))
                    engine.insert("t", (key, f"v{key}"), tx)
                    inserted[tx.xid].append(key)
                else:
                    active.remove(tx)
                    if op == "commit":
                        engine.commit(tx)
                        committed.add(tx.xid)
                    else:
                        engine.abort(tx)
        expected = sorted(key for xid in committed for key in inserted[xid])
        recovered = StorageEngine.recover(engine.wal, types)
        assert [row["k"] for row in recovered.scan("t")] == expected
        assert recovered.stats("t")["versions"] == len(expected)
        assert engine.stats("t")["versions"] \
            == sum(map(len, inserted.values()))
        for tx in active:
            engine.abort(tx)
        for eng in (engine, recovered):
            eng.create_index("t", "k")
            assert eng.index_stats("t", "k")["entries"] == len(expected)
            assert [key for key, _ in eng.iter_index_keys("t", "k")] \
                == expected
