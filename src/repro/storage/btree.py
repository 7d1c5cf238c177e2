"""An order-configurable B-tree index.

Keys are any totally ordered Python values (ints, floats, strings,
``AbsTime`` — anything the relevant column type yields).  Duplicate keys
are supported: each leaf entry holds the set of TIDs for that key.

This is a textbook in-memory B-tree: split-on-insert, borrow/merge on
delete.  It exists so the storage engine has a real index substrate to
benchmark (EXP-F) and so equality/range retrievals in the executor do not
degenerate to heap scans.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from ..errors import IndexError_

__all__ = ["BTree", "HistogramBucket"]

_MIN_ORDER = 4

#: Keys collected per lock acquisition during a range scan.  Scans hold
#: the tree lock only while gathering a chunk and yield with it
#: released, so a long scan never starves the writer.
_SCAN_CHUNK = 256

#: Rebuild the cached histogram when the entry count drifts by more
#: than this fraction since it was built (keeps `histogram()` amortized
#: O(1) per insert while staying honest under churn).
_HIST_STALE_FRACTION = 0.2
_HIST_STALE_FLOOR = 64


@dataclass(frozen=True)
class HistogramBucket:
    """One equi-depth bucket over a numeric key range.

    ``lo``/``hi`` are inclusive key bounds; ``entries`` counts (key,
    entry) pairs and ``distinct`` counts distinct keys in the bucket.
    """

    lo: float
    hi: float
    entries: int
    distinct: int


@dataclass
class _Node:
    leaf: bool
    keys: list[Any] = field(default_factory=list)
    # leaf: values[i] is the set of entries for keys[i]; internal: children.
    values: list[Any] = field(default_factory=list)
    children: list["_Node"] = field(default_factory=list)
    next_leaf: "_Node | None" = None


class BTree:
    """B-tree mapping keys to sets of entry ids (e.g. TIDs).

    Parameters
    ----------
    order:
        Maximum number of keys per node; nodes split beyond this.
    """

    def __init__(self, order: int = 32):
        if order < _MIN_ORDER:
            raise IndexError_(f"order must be >= {_MIN_ORDER}")
        self._order = order
        self._root: _Node = _Node(leaf=True)
        self._count = 0  # number of (key, entry) pairs
        self._distinct = 0  # keys with a non-empty bucket
        # Widened on insert, left stale by deletes: good enough for the
        # cost model's range-selectivity interpolation.
        self._min_key: Any = None
        self._max_key: Any = None
        # (entry count at build time, buckets) — see `histogram`.
        self._hist_cache: tuple[int, tuple[HistogramBucket, ...] | None] \
            | None = None
        # Guards structural mutation and traversal.  Reentrant because
        # `histogram()` builds via `range_scan()` while already holding
        # it.  Scans release it between chunks (see `range_scan`), so
        # readers and writers interleave at chunk granularity.
        self._lock = threading.RLock()

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return self._count

    # -- search ----------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def search(self, key: Any) -> set[Hashable]:
        """All entries stored under *key* (empty set when absent)."""
        with self._lock:
            leaf = self._find_leaf(key)
            idx = bisect.bisect_left(leaf.keys, key)
            if idx < len(leaf.keys) and leaf.keys[idx] == key:
                return set(leaf.values[idx])
            return set()

    def range_scan(self, lo: Any = None, hi: Any = None,
                   include_lo: bool = True, include_hi: bool = True,
                   reverse: bool = False
                   ) -> Iterator[tuple[Any, set[Hashable]]]:
        """Yield ``(key, entries)`` for keys in the given range, ascending
        (or descending with *reverse*).

        ``None`` bounds are open-ended.  Direction-aware iteration is
        what lets an ``ORDER BY ... DESC`` ride the index instead of an
        explicit sort.

        The scan collects up to :data:`_SCAN_CHUNK` keys per lock
        acquisition and yields them with the lock released, re-seeking
        from the last key (exclusive).  Keys are never physically
        removed (deletes leave empty buckets), so the re-seek cannot
        skip pre-existing keys; keys inserted behind the cursor belong
        to transactions the caller's snapshot filters out anyway.
        """
        if reverse:
            cursor, cursor_inclusive = hi, include_hi
            while True:
                with self._lock:
                    chunk = self._collect_reversed(
                        lo, cursor, include_lo, cursor_inclusive,
                        _SCAN_CHUNK)
                yield from chunk
                if len(chunk) < _SCAN_CHUNK:
                    return
                cursor, cursor_inclusive = chunk[-1][0], False
        else:
            cursor, cursor_inclusive = lo, include_lo
            while True:
                with self._lock:
                    chunk = self._collect_forward(
                        cursor, hi, cursor_inclusive, include_hi,
                        _SCAN_CHUNK)
                yield from chunk
                if len(chunk) < _SCAN_CHUNK:
                    return
                cursor, cursor_inclusive = chunk[-1][0], False

    def _collect_forward(self, lo: Any, hi: Any, include_lo: bool,
                         include_hi: bool, limit: int
                         ) -> list[tuple[Any, set[Hashable]]]:
        """Up to *limit* ``(key, copied bucket)`` pairs, ascending.
        Caller holds the lock."""
        out: list[tuple[Any, set[Hashable]]] = []
        if lo is not None:
            leaf = self._find_leaf(lo)
            start = bisect.bisect_left(leaf.keys, lo)
        else:
            leaf = self._leftmost_leaf()
            start = 0
        node: _Node | None = leaf
        idx = start
        while node is not None:
            while idx < len(node.keys):
                key = node.keys[idx]
                if lo is not None:
                    if key < lo or (key == lo and not include_lo):
                        idx += 1
                        continue
                if hi is not None:
                    if key > hi or (key == hi and not include_hi):
                        return out
                out.append((key, set(node.values[idx])))
                if len(out) >= limit:
                    return out
                idx += 1
            node = node.next_leaf
            idx = 0
        return out

    def _collect_reversed(self, lo: Any, hi: Any,
                          include_lo: bool, include_hi: bool, limit: int
                          ) -> list[tuple[Any, set[Hashable]]]:
        """Up to *limit* pairs, descending.  Leaves only link forward,
        so the walk descends the tree right-to-left with an explicit
        stack instead of following ``next_leaf`` pointers.

        Subtrees entirely outside ``[lo, hi]`` are pruned during the
        descent (child ``i`` holds keys in ``[keys[i-1], keys[i])``),
        so a bounded walk seeks its start leaf instead of skipping
        every key above ``hi`` one by one.  Caller holds the lock.
        """
        out: list[tuple[Any, set[Hashable]]] = []
        stack: list[_Node] = [self._root]
        while stack:
            node = stack.pop()
            if not node.leaf:
                # Children pushed left-to-right pop right-to-left.
                for idx, child in enumerate(node.children):
                    if hi is not None and idx > 0 \
                            and node.keys[idx - 1] > hi:
                        continue  # subtree minimum already above hi
                    if lo is not None and idx < len(node.keys) \
                            and node.keys[idx] < lo:
                        continue  # subtree maximum already below lo
                    stack.append(child)
                continue
            for idx in range(len(node.keys) - 1, -1, -1):
                key = node.keys[idx]
                if hi is not None:
                    if key > hi or (key == hi and not include_hi):
                        continue
                if lo is not None:
                    if key < lo or (key == lo and not include_lo):
                        return out
                out.append((key, set(node.values[idx])))
                if len(out) >= limit:
                    return out
        return out

    def items_reversed(self) -> Iterator[tuple[Any, set[Hashable]]]:
        """All ``(key, entries)`` pairs in descending key order."""
        yield from self.range_scan(reverse=True)

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.leaf:
            node = node.children[0]
        return node

    def keys(self) -> list[Any]:
        """All keys in ascending order."""
        return [key for key, _ in self.range_scan()]

    # -- insert ------------------------------------------------------------------

    def insert(self, key: Any, entry: Hashable) -> None:
        """Add *entry* under *key* (duplicates of the pair are idempotent)."""
        with self._lock:
            root = self._root
            if len(root.keys) > self._order:
                raise IndexError_(
                    "internal invariant violated: oversized root")
            inserted = self._insert_into(root, key, entry)
            if inserted:
                self._count += 1
            if len(root.keys) > self._order:
                new_root = _Node(leaf=False, children=[root])
                self._split_child(new_root, 0)
                self._root = new_root

    def _note_key(self, key: Any) -> None:
        """Track the key range and distinct-key count on insert."""
        self._distinct += 1
        if self._min_key is None or key < self._min_key:
            self._min_key = key
        if self._max_key is None or key > self._max_key:
            self._max_key = key

    def _insert_into(self, node: _Node, key: Any, entry: Hashable) -> bool:
        if node.leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                bucket: set[Hashable] = node.values[idx]
                if entry in bucket:
                    return False
                if not bucket:
                    self._note_key(key)  # revived an emptied key
                bucket.add(entry)
                return True
            node.keys.insert(idx, key)
            node.values.insert(idx, {entry})
            self._note_key(key)
            return True
        idx = bisect.bisect_right(node.keys, key)
        child = node.children[idx]
        inserted = self._insert_into(child, key, entry)
        if len(child.keys) > self._order:
            self._split_child(node, idx)
        return inserted

    def _split_child(self, parent: _Node, idx: int) -> None:
        child = parent.children[idx]
        mid = len(child.keys) // 2
        if child.leaf:
            right = _Node(
                leaf=True,
                keys=child.keys[mid:],
                values=child.values[mid:],
                next_leaf=child.next_leaf,
            )
            child.keys = child.keys[:mid]
            child.values = child.values[:mid]
            child.next_leaf = right
            parent.keys.insert(idx, right.keys[0])
            parent.children.insert(idx + 1, right)
        else:
            right = _Node(
                leaf=False,
                keys=child.keys[mid + 1:],
                children=child.children[mid + 1:],
            )
            sep = child.keys[mid]
            child.keys = child.keys[:mid]
            child.children = child.children[: mid + 1]
            parent.keys.insert(idx, sep)
            parent.children.insert(idx + 1, right)

    # -- delete -------------------------------------------------------------------

    def delete(self, key: Any, entry: Hashable) -> None:
        """Remove *entry* from *key*'s bucket.

        The append-only engine removes entries only when an insert
        aborts; when a bucket empties we leave the key with an empty set
        and filter on read — physical compaction is a vacuum concern,
        not a correctness one.  Raises when the pair is absent.
        """
        with self._lock:
            leaf = self._find_leaf(key)
            idx = bisect.bisect_left(leaf.keys, key)
            if idx >= len(leaf.keys) or leaf.keys[idx] != key:
                raise IndexError_(f"key {key!r} not in index")
            bucket: set[Hashable] = leaf.values[idx]
            if entry not in bucket:
                raise IndexError_(f"entry {entry!r} not under key {key!r}")
            bucket.discard(entry)
            self._count -= 1
            if not bucket:
                self._distinct -= 1

    # -- introspection ---------------------------------------------------------------

    def distinct_keys(self) -> int:
        """Number of keys with at least one live entry (O(1)).

        The selectivity denominator of the cost model: an equality probe
        on this index is expected to return ``len(self) / distinct_keys``
        entries.
        """
        return self._distinct

    def key_bounds(self) -> tuple[Any, Any] | None:
        """``(min_key, max_key)`` ever inserted, or None when empty.

        Maintained incrementally (O(1)); deletes may leave the bounds
        slightly wide, which only pads the cost model's range estimates.
        """
        with self._lock:
            if self._min_key is None:
                return None
            return (self._min_key, self._max_key)

    def histogram(self, max_buckets: int = 32
                  ) -> tuple[HistogramBucket, ...] | None:
        """Equi-depth histogram over the live keys, or None.

        Buckets hold roughly equal numbers of (key, entry) pairs, so a
        heavily skewed key distribution gets narrow buckets where the
        data is dense and wide ones where it is sparse — the standard
        fix for the uniform-distribution assumption in range
        selectivity.  Only numeric key domains are summarized (other key
        types return None and fall back to the uniform estimate).

        The result is cached and rebuilt lazily once the entry count has
        drifted enough to matter, keeping the amortized cost of a call
        O(1) for the cost model's purposes.  Check and rebuild happen
        under the tree lock so concurrent callers cannot interleave a
        stale-count check with another thread's rebuild.
        """
        with self._lock:
            if self._count == 0:
                return None
            if self._hist_cache is not None:
                built, cached = self._hist_cache
                drift = abs(self._count - built)
                if drift <= max(_HIST_STALE_FLOOR,
                                int(built * _HIST_STALE_FRACTION)):
                    return cached
            buckets = self._build_histogram(max_buckets)
            self._hist_cache = (self._count, buckets)
            return buckets

    def _build_histogram(self, max_buckets: int
                         ) -> tuple[HistogramBucket, ...] | None:
        """One leaf walk: pack ordered keys into equi-depth buckets."""
        target = max(1, self._count // max(1, max_buckets))
        buckets: list[HistogramBucket] = []
        lo: float | None = None
        hi = 0.0
        entries = 0
        distinct = 0
        for key, bucket in self.range_scan():
            if not bucket:
                continue
            if not isinstance(key, (int, float)) or isinstance(key, bool):
                return None
            value = float(key)
            if lo is None:
                lo = value
            hi = value
            entries += len(bucket)
            distinct += 1
            if entries >= target and len(buckets) < max_buckets - 1:
                buckets.append(HistogramBucket(lo=lo, hi=hi, entries=entries,
                                               distinct=distinct))
                lo = None
                entries = 0
                distinct = 0
        if entries and lo is not None:
            buckets.append(HistogramBucket(lo=lo, hi=hi, entries=entries,
                                           distinct=distinct))
        return tuple(buckets) if buckets else None

    def depth(self) -> int:
        """Tree height (1 for a lone leaf)."""
        depth = 1
        node = self._root
        while not node.leaf:
            node = node.children[0]
            depth += 1
        return depth
