"""Property test: a transaction belongs to its connection.

Hypothesis interleaves ``begin`` / ``begin(read_only=True)`` / ``store``
/ a deriving SELECT / ``count(*)`` / ``commit`` / ``rollback`` across
three connections over one kernel — two local, each driven in its own
context (so each has its own ambient view for direct stores), and one
over the wire — and checks every answer against a model:

* a view sees what was committed before its snapshot plus its own
  writes (a transaction's snapshot is taken at ``begin``, an auto-commit
  statement's when it starts);
* a deriving SELECT answers from the masks its view sees; when there
  are none it derives exactly one, from the lowest-oid field it sees
  (derive-once within a statement), and when it sees no field either it
  is unsatisfiable;
* what a writer derives or stores is its own until it commits and is
  gone after it rolls back; what a read-only or auto-commit view derives
  commits at once and counts among that view's own writes, so a
  read-only transaction derives once;
* a direct store under a read-only transaction auto-commits outside
  its view: the frozen snapshot never sees it;
* a rollback never removes another connection's object or task: after
  every step each committed object resolves and each committed mask has
  its one producing task.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.adt import Image
from repro.client import remote_connect
from repro.errors import UnderivableError, UnknownClassError
from repro.server import GaeaServer
from repro.spatial import Box
from repro.temporal import AbsTime

UNIVERSE = Box(0.0, 0.0, 100.0, 100.0)
DDL = """
DEFINE CLASS field (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
);
DEFINE CLASS mask (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: maskify
);
DEFINE PROCESS maskify
OUTPUT mask
ARGUMENT ( field src )
TEMPLATE {
  MAPPINGS:
    mask.data = img_threshold(src.data, 0.5);
    mask.spatialextent = src.spatialextent;
    mask.timestamp = src.timestamp;
}
"""
DAY = AbsTime(days=3)
SELECT = "SELECT FROM mask WHERE timestamp = ?"
COUNT = "SELECT count(*) FROM field"
FIELD = {"data": Image.from_array(np.eye(2), "float4"),
         "spatialextent": Box(0.0, 0.0, 10.0, 10.0), "timestamp": DAY}

NAMES = ("a", "b", "remote")
OPS = st.lists(st.tuples(
    st.sampled_from(["begin", "begin_ro", "store", "select", "count",
                     "commit", "rollback"]),
    st.sampled_from(NAMES),
), min_size=1, max_size=16)


class Local:
    """A local connection driven inside its own context."""

    def __init__(self, kernel):
        self.conn = repro.connect(kernel=kernel)
        self.context = contextvars.copy_context()

    def _run(self, fn, *args):
        return self.context.run(fn, *args)

    def begin(self, read_only):
        self._run(self.conn.begin, read_only)

    def commit(self):
        self._run(self.conn.commit)

    def rollback(self):
        self._run(self.conn.rollback)

    def store(self):
        return self._run(self.conn.kernel.store.store, "field", FIELD).oid

    def select(self):
        [result] = self._run(self.conn.execute, SELECT, [DAY])
        return [obj.oid for obj in result.objects]

    def count(self):
        [result] = self._run(self.conn.execute, COUNT)
        return result.objects[0]["count(*)"]

    def close(self):
        self._run(self.conn.close)


class Remote:
    """The same surface over the wire."""

    def __init__(self, server):
        self.conn = remote_connect(server.host, server.port)

    def begin(self, read_only):
        self.conn.begin(read_only=read_only)

    def commit(self):
        self.conn.commit()

    def rollback(self):
        self.conn.rollback()

    def store(self):
        return self.conn.store("field", FIELD)

    def select(self):
        return [obj.oid for obj in
                self.conn.cursor().execute(SELECT, [DAY]).fetchall()]

    def count(self):
        return self.conn.cursor().execute(COUNT).fetchall()[0]["count(*)"]

    def close(self):
        self.conn.close()


@dataclass
class Session:
    """The model of one connection: its transaction and view."""

    mode: str | None = None          # None (auto-commit), "writer", "ro"
    fields: set[int] = field(default_factory=set)   # seen at begin
    masks: set[int] = field(default_factory=set)
    own_fields: set[int] = field(default_factory=set)
    own_masks: set[int] = field(default_factory=set)


class Model:
    def __init__(self):
        self.fields: set[int] = set()        # committed
        self.masks: set[int] = set()
        self.gone: set[int] = set()          # rolled back
        self.producer: dict[int, int] = {}   # committed mask -> field
        self.pending: dict[int, int] = {}    # uncommitted mask -> field
        self.sessions = {name: Session() for name in NAMES}

    def visible(self, name) -> tuple[set[int], set[int]]:
        s = self.sessions[name]
        if s.mode is None:
            return set(self.fields), set(self.masks)
        return s.fields | s.own_fields, s.masks | s.own_masks

    def begin(self, name, read_only):
        self.sessions[name] = Session(
            mode="ro" if read_only else "writer",
            fields=set(self.fields), masks=set(self.masks))

    def wrote(self, name, oid, kind, source=None):
        s = self.sessions[name]
        if s.mode == "writer":
            (s.own_fields if kind == "field" else s.own_masks).add(oid)
            if source is not None:
                self.pending[oid] = source
            return
        (self.fields if kind == "field" else self.masks).add(oid)
        if source is not None:
            self.producer[oid] = source
        if s.mode == "ro" and kind == "mask":   # derived by its statement
            s.own_masks.add(oid)

    def end(self, name, commit):
        s = self.sessions[name]
        if s.mode == "writer":
            own = s.own_fields | s.own_masks
            if commit:
                self.fields |= s.own_fields
                self.masks |= s.own_masks
                for oid in s.own_masks:
                    self.producer[oid] = self.pending.pop(oid)
            else:
                self.gone |= own
                for oid in s.own_masks:
                    del self.pending[oid]
        self.sessions[name] = Session()


def _check_kernel(kernel, model):
    """Every committed object resolves and every committed mask keeps
    its one producing task; rolled-back objects and tasks are gone."""
    tasks = kernel.derivations.tasks
    assert len(tasks) == len(model.producer) + len(model.pending)
    for oid in model.fields | model.masks:
        assert kernel.store.get(oid).oid == oid
    for mask, source in model.producer.items():
        assert tasks.producer_of(mask).input_oids == {"src": (source,)}
    for oid in model.gone:
        with pytest.raises(UnknownClassError):
            kernel.store.get(oid)
        assert tasks.producer_of(oid) is None


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
# a read-only transaction derives once and never sees direct stores
@example(ops=[("store", "a"), ("begin_ro", "b"), ("store", "a"),
              ("store", "b"), ("count", "b"), ("select", "b"),
              ("select", "b"), ("commit", "b"), ("count", "b")])
# no dirty read; another writer's rollback keeps an auto-commit derivation
@example(ops=[("begin", "a"), ("store", "a"), ("select", "remote"),
              ("store", "b"), ("select", "a"), ("begin", "remote"),
              ("select", "b"), ("store", "remote"), ("rollback", "a"),
              ("select", "remote"), ("commit", "remote"), ("select", "a")])
def test_each_view_sees_its_snapshot_plus_its_own_writes(ops):
    kernel = repro.connect(universe=UNIVERSE).kernel
    repro.connect(kernel=kernel).execute(DDL)
    model = Model()
    with GaeaServer(kernel=kernel) as server:
        surfaces = {"a": Local(kernel), "b": Local(kernel),
                    "remote": Remote(server)}
        try:
            for op, name in ops:
                surface, session = surfaces[name], model.sessions[name]
                if op in ("begin", "begin_ro"):
                    if session.mode is not None:
                        continue   # one transaction per connection
                    surface.begin(op == "begin_ro")
                    model.begin(name, op == "begin_ro")
                elif op in ("commit", "rollback"):
                    getattr(surface, op)()
                    model.end(name, op == "commit")
                elif op == "store":
                    model.wrote(name, surface.store(), "field")
                elif op == "count":
                    fields = model.visible(name)[0]
                    if fields:
                        assert surface.count() == len(fields)
                    else:   # nothing stored for this view at all
                        with pytest.raises(UnderivableError):
                            surface.count()
                else:
                    fields, masks = model.visible(name)
                    if masks:
                        assert sorted(surface.select()) == sorted(masks)
                    elif fields:
                        [mask] = surface.select()
                        assert mask not in model.fields | model.masks \
                            | model.gone | set(model.pending)
                        model.wrote(name, mask, "mask", min(fields))
                    else:
                        with pytest.raises(UnderivableError):
                            surface.select()
                _check_kernel(kernel, model)
        finally:
            for surface in surfaces.values():
                surface.close()
