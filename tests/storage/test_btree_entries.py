"""The B-tree's leaf representation: a key's one entry is held bare and
becomes a set when a second arrives (and bare again when deletes leave
one); NULL keys live apart.  Callers see sets either way."""

import pickle

import pytest

from repro.errors import IndexError_
from repro.storage import BTree
from repro.storage.tuples import TID


def _bucket(tree: BTree, key):
    """The raw leaf bucket stored under *key*."""
    node = tree._find_leaf(key)
    return node.values[node.keys.index(key)]


def _old_form(tree: BTree) -> None:
    """Rewrite every leaf bucket as a set, as trees were pickled before
    single entries were stored bare."""
    node = tree._leftmost_leaf()
    while node is not None:
        node.values = [v if isinstance(v, set) else {v} for v in node.values]
        node = node.next_leaf


def _observations(tree: BTree) -> tuple:
    return (list(tree.range_scan()), list(tree.items_reversed()),
            list(tree.range_scan(10, 30, include_lo=False)),
            tree.histogram(), tree.distinct_keys(), len(tree), tree.keys())


class TestBareAndSet:
    def test_transitions_under_insert_and_delete(self):
        tree = BTree(order=4)
        tid_a, tid_b = TID(0, 1), TID(0, 2)
        tree.insert(5, tid_a)
        assert _bucket(tree, 5) == tid_a  # bare: no set for one entry
        tree.insert(5, tid_a)  # duplicate pair: still bare, still one
        assert _bucket(tree, 5) == tid_a and len(tree) == 1
        tree.insert(5, tid_b)
        assert _bucket(tree, 5) == {tid_a, tid_b}
        tree.delete(5, tid_a)
        assert _bucket(tree, 5) == tid_b  # one left: bare again
        assert tree.search(5) == {tid_b}
        tree.delete(5, tid_b)
        assert _bucket(tree, 5) == set() and tree.search(5) == set()
        assert tree.distinct_keys() == 0 and len(tree) == 0
        tree.insert(5, tid_a)  # a revived key is bare again
        assert _bucket(tree, 5) == tid_a and tree.distinct_keys() == 1

    def test_search_and_scans_hand_out_fresh_sets(self):
        tree = BTree(order=4)
        tree.insert(1, "a")
        found = tree.search(1)
        found.add("intruder")
        [(_, scanned)] = tree.range_scan()
        scanned.add("intruder")
        assert tree.search(1) == {"a"} and _bucket(tree, 1) == "a"

    def test_delete_of_an_absent_entry_raises_in_either_form(self):
        tree = BTree(order=4)
        tree.insert(1, "a")
        with pytest.raises(IndexError_):
            tree.delete(1, "b")
        tree.insert(1, "b")
        tree.delete(1, "b")
        with pytest.raises(IndexError_):
            tree.delete(1, "b")
        assert tree.search(1) == {"a"}

    def test_scans_and_statistics_match_the_set_form(self):
        bare = BTree(order=4)
        for i in range(300):
            bare.insert(i % 40, i)  # keys 0..39, 7-8 entries each
            bare.insert(100 + i, i)  # unique keys
        old = pickle.loads(pickle.dumps(bare))
        _old_form(old)
        assert _observations(bare) == _observations(old)

    def test_tree_pickled_with_one_element_sets_still_loads(self):
        tree = BTree(order=4)
        for i in range(200):
            tree.insert(i, TID(i // 10, i % 10))
        tree.insert(7, TID(99, 0))
        _old_form(tree)
        state = tree.__getstate__()
        del state["_nulls"]  # not there before NULL keys either
        old = BTree.__new__(BTree)
        old.__setstate__(state)
        loaded = pickle.loads(pickle.dumps(old))
        assert loaded.search(3) == {TID(0, 3)}
        assert loaded.search(7) == {TID(0, 7), TID(99, 0)}
        loaded.insert(3, TID(50, 0))  # grows the old one-element set
        loaded.delete(4, TID(0, 4))  # empties one
        loaded.delete(7, TID(99, 0))
        assert loaded.search(3) == {TID(0, 3), TID(50, 0)}
        assert loaded.search(4) == set() and loaded.search(7) == {TID(0, 7)}
        assert len(loaded) == 200 and loaded.distinct_keys() == 199
        assert [k for k, _ in loaded.range_scan(2, 5)] == [2, 3, 4, 5]


class TestNullKeys:
    def test_null_entries_sit_outside_the_key_order(self):
        tree = BTree(order=4)
        for i in range(20):
            tree.insert(float(i), i)
        tree.insert(None, "n1")
        tree.insert(None, "n2")
        tree.insert(None, "n2")
        assert len(tree) == 22 and tree.distinct_keys() == 20
        assert tree.search(None) == {"n1", "n2"}
        assert tree.key_bounds() == (0.0, 19.0)
        # only an unbounded scan reaches them, last in either direction
        assert list(tree.range_scan())[-1] == (None, {"n1", "n2"})
        assert list(tree.items_reversed())[-1] == (None, {"n1", "n2"})
        assert all(k is not None for k, _ in tree.range_scan(lo=0.0))
        assert all(k is not None for k, _ in tree.range_scan(hi=50.0))
        assert sum(b.entries for b in tree.histogram()) == 20

    def test_null_entries_are_deleted_like_any_other(self):
        tree = BTree(order=4)
        tree.insert(None, "n")
        tree.delete(None, "n")
        assert tree.search(None) == set() and len(tree) == 0
        assert list(tree.range_scan()) == []
        with pytest.raises(IndexError_):
            tree.delete(None, "n")


class TestPurgeOnAbort:
    @pytest.fixture()
    def engine(self, types):
        from repro.storage import StorageEngine

        eng = StorageEngine(types=types)
        eng.create_relation("r", [("k", "float8")])
        eng.create_index("r", "k", order=4)
        return eng

    def test_abort_restores_the_bare_form(self, engine):
        tree = engine._state("r").btrees["k"]
        kept = engine.insert_row("r", (5.0,))
        tx = engine.begin()
        engine.insert("r", (5.0,), tx)  # joins kept's key: a set
        engine.insert("r", (6.0,), tx)  # a key of its own: bare
        engine.insert("r", (float("nan"),), tx)  # NULL key
        assert isinstance(_bucket(tree, 5.0), set)
        assert tree.search(None) != set()
        engine.abort(tx)
        assert _bucket(tree, 5.0) == kept
        assert _bucket(tree, 6.0) == set() and tree.search(None) == set()
        assert len(tree) == 1 and tree.distinct_keys() == 1
        assert [row["k"] for row in engine.scan("r")] == [5.0]
