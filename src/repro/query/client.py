"""The Gaea client API: connections, cursors, prepared statements.

A DB-API-2.0-shaped layer over the GaeaQL interpreter, built for the
paper's interactive scientists who issue many near-identical retrievals
over the same classes::

    import repro

    with repro.connect() as conn:
        cur = conn.cursor()
        cur.execute(DDL)
        query = conn.prepare(
            "SELECT FROM land_cover WHERE timestamp = ?"
        )
        for stamp in epochs:
            cur.execute(query, [stamp])
            for obj in cur:          # objects stream lazily
                ...

What the layer provides:

* statements are lexed/parsed/planned once — re-executions hit the
  connection's LRU plan cache (``conn.cache_hits``), which DDL
  invalidates via the kernel's schema version;
* ``?`` positional and ``:name`` named placeholders separate the plan
  from its bind values;
* every SELECT/DERIVE is one plan node and one operator tree, whichever
  call submits it: the tree's batches reach the cursor, whose fetch
  calls and iteration slice rows off the current one, ``run()`` drains
  the same tree into one result, ``explain()`` renders it — each under
  one :class:`~repro.core.classes.View`: the connection's transaction,
  or a fresh snapshot per statement in auto-commit;
* ``begin``/``commit``/``rollback`` scope object stores in storage-level
  transactions that belong to the connection: several connections can
  share one kernel (``connect(kernel=...)``), each with its own open
  transaction, and uncommitted work is visible only to its own
  connection.

Rows are :class:`~repro.core.classes.SciObject` instances, not tuples —
the scientific object is the natural row of this data model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator

from ..core.classes import View
from ..core.metadata_manager import MetadataManager, WORLD, open_kernel
from ..errors import InterfaceError
from ..gis import register_gis_operators
from ..spatial.box import Box
from ..storage.transactions import Transaction
from .binding import ParamSignature, bind_nodes, collect_signature
from .executor import Executor, QueryResult
from .optimizer import Optimizer, PlanCache, PlanNode, QueryNode

__all__ = ["connect", "Connection", "Cursor", "PreparedStatement",
           "apilevel", "paramstyle", "threadsafety"]

#: PEP-249 module globals (informational).
apilevel = "2.0"
#: Connections may be shared across threads: statements read immutable
#: snapshots (never blocking on a writer) and all shared state — plan
#: cache, indexes, transaction manager, task log — is internally locked.
threadsafety = 2
paramstyle = "qmark"  # ':name' named parameters are also accepted


@dataclass(frozen=True)
class PreparedStatement:
    """A compiled statement: plan once, bind and execute many times.

    Obtained from :meth:`Connection.prepare`; pass it (with bind values)
    to :meth:`Cursor.execute`.  The plan template is immutable — binding
    produces fresh concrete plan nodes per execution.
    """

    source: str
    fingerprint: str
    nodes: tuple[PlanNode, ...]
    signature: ParamSignature

    def bind(self, params: Any = None) -> list[PlanNode]:
        """Concrete plan nodes for one execution."""
        return bind_nodes(self.nodes, self.signature, params)


class Connection:
    """A client connection over one Gaea kernel.

    Holds the interpreter pair (optimizer with plan cache, executor) and
    the view of its open transaction.  Several connections may share a
    kernel; each keeps its own plan cache, history and transaction, and
    any number of them may write at once.
    """

    def __init__(self, kernel: MetadataManager,
                 plan_cache_size: int = 128):
        self.kernel = kernel
        self.optimizer = Optimizer(
            kernel=kernel, cache=PlanCache(maxsize=plan_cache_size)
        )
        self.executor = Executor(kernel=kernel)
        #: The open transaction's view (None: auto-commit).
        self._view: View | None = None
        self._closed = False

    # -- plan-cache statistics -------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """The connection's LRU plan cache (hit/miss/invalidation stats)."""
        return self.optimizer.cache

    @property
    def cache_hits(self) -> int:
        return self.optimizer.cache.hits

    @property
    def cache_misses(self) -> int:
        return self.optimizer.cache.misses

    # -- statement preparation -------------------------------------------------

    def prepare(self, source: str) -> PreparedStatement:
        """Compile *source* once (through the plan cache).

        Re-preparing the same text, or executing it as a plain string,
        skips re-lexing/re-parsing/re-planning entirely.
        """
        self._check_open()
        plan = self.optimizer.compile(source)
        return PreparedStatement(
            source=source,
            fingerprint=plan.fingerprint,
            nodes=plan.nodes,
            signature=collect_signature(plan.nodes),
        )

    def cursor(self) -> Cursor:
        """A new cursor over this connection."""
        self._check_open()
        return Cursor(self)

    def execute(self, source: str | PreparedStatement,
                params: Any = None) -> list[QueryResult]:
        """Eager convenience: run every statement, return all results.

        Drives a throwaway cursor; use :meth:`cursor` directly to stream
        large retrievals instead of materializing them.
        """
        return self.cursor().run(source, params)

    # -- transactions -----------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._view is not None

    def begin(self, read_only: bool = False) -> Transaction | None:
        """Open a transaction: every statement until :meth:`commit` or
        :meth:`rollback` reads the snapshot taken now plus this
        transaction's own writes, whatever other connections commit
        meanwhile.

        Objects stored until :meth:`commit` are visible to this
        connection only, and :meth:`rollback` discards them for good —
        the storage layer is append-only MVCC, so rolled-back versions
        simply never commit.  Other connections may write at the same
        time.  The transaction is also the calling context's ambient
        view until it ends, so direct ``kernel.store.store(...)`` calls
        in between join it.

        With *read_only* no storage transaction opens and None is
        returned: the connection reads its frozen snapshot, and what its
        statements derive meanwhile auto-commits (and is visible to its
        later statements).  Direct stores are not part of the view:
        they auto-commit after the snapshot, so it does not see them.
        """
        self._check_open()
        if self._view is not None:
            label = ("a read-only transaction" if self._view.tx is None
                     else f"transaction {self._view.tx.xid}")
            raise InterfaceError(
                f"{label} is already open on this connection"
            )
        store = self.kernel.store
        self._view = View(store,
                          None if read_only else store.begin_transaction())
        if not read_only:
            self._view.hold()
        return self._view.tx

    def commit(self) -> None:
        """Commit the open transaction (no-op outside one: auto-commit)."""
        self._check_open()
        self._end(self.kernel.store.commit_transaction)

    def rollback(self) -> None:
        """Abort the open transaction (no-op outside one)."""
        self._check_open()
        self._end(self.kernel.store.rollback_transaction)

    def _end(self, finish: Callable[[Transaction], None]) -> None:
        view = self._view
        if view is None:
            return
        if view.tx is not None:
            finish(view.tx)
        view.release()
        self._view = None

    def _statement_view(self) -> View:
        """The view one statement runs under: the open transaction's,
        else a fresh snapshot (statement-level consistency under
        auto-commit)."""
        return self._view or View(self.kernel.store)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the connection, rolling back any open transaction."""
        if self._closed:
            return
        self.rollback()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> Connection:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        self.close()


#: The empty page a cursor's stream turns between a retrieval and the
#: statement after it.  A fetch reads straight past it; a wire page
#: (:meth:`_RowBuffer.page`) stops there, so that statement runs only
#: in the client's fetch that finds the end of the retrieval.
_BOUNDARY: Iterator[Any] = iter(())


class _RowBuffer:
    """The one fetch implementation, behind local and remote cursors.

    Slices the current *page* of rows: one batch's lazy ``to_rows()``
    for a local cursor (a row is built when it is fetched), one wire
    page for a remote one, starting with the page *first* that came with
    ``execute``.  ``refill(want)`` returns the next page as an iterator,
    None at the end of the stream; *want* is how many rows the fetch
    still lacks (None: draining).  Without a *refill* — no ``execute()``
    yet, or closed — every fetch raises.
    """

    def __init__(self, refill: Callable[[int | None], Any] | None = None,
                 first: Iterable[Any] = ()):
        self._refill = refill
        self._error = "no execute() has been issued"
        self._page: Iterator[Any] = iter(first)
        self.fetched = 0
        #: True once a fetch has found the end of the stream.
        self.exhausted = refill is None

    def close(self) -> None:
        self._refill, self._error = None, "cursor is closed"
        self._page = iter(())
        self.exhausted = True

    def _turn_page(self, want: int | None) -> bool:
        """Replace the spent page with the next one, if there is one."""
        # with no stream the page is empty, so every fetch lands here
        if self._refill is None:
            raise InterfaceError(self._error)
        page = None if self.exhausted else self._refill(want)
        if page is not None:
            self._page = page
        self.exhausted = page is None
        return not self.exhausted

    def take(self, count: int | None) -> list[Any]:
        """Up to *count* rows; every remaining row for None."""
        out: list[Any] = []
        while count is None or len(out) < count:
            want = None if count is None else count - len(out)
            out.extend(islice(self._page, want))
            if len(out) != count and not self._turn_page(want):
                break
        self.fetched += len(out)
        return out

    def page(self, count: int) -> tuple[list[Any], Exception | None]:
        """One wire page: up to *count* rows, and the error that cut it
        short (None).  Unlike :meth:`take` it returns the rows pulled
        before an error along with it, and it stops at a statement
        boundary; the next page starts past it."""
        out: list[Any] = []
        error = None
        try:
            while len(out) < count:
                out.extend(islice(self._page, count - len(out)))
                if len(out) == count or not self._turn_page(count - len(out)) \
                        or self._page is _BOUNDARY:
                    break
        except Exception as exc:  # shipped with the rows, raised remotely
            error = exc
        self.fetched += len(out)
        return out, error

    def __iter__(self) -> Iterator[Any]:
        while True:
            # Always the current page: a fetch (or close) interleaved
            # with this iteration may have replaced it.
            row = next(self._page, self)
            if row is not self:
                self.fetched += 1
                yield row
            elif not self._turn_page(None):
                return

    @property
    def rowcount(self) -> int:
        return self.fetched if self.exhausted else -1


class Cursor:
    """A streaming result handle (PEP-249 shaped).

    ``execute`` runs DDL/RUN/SHOW statements up to the first retrieval
    immediately; retrieval rows then stream through ``fetchone`` /
    ``fetchmany`` / iteration, batch by batch out of the statement's
    operator tree.  A fallback derivation runs in full when the stream
    first needs it, but later concept members and later statements wait
    until the stream gets there: statements *after* a retrieval execute
    only as the row stream is drained (``fetchall`` drains everything).
    """

    arraysize = 1

    def __init__(self, connection: Connection):
        self.connection = connection
        #: Non-object results (DDL messages, SHOW output, EXPLAIN) in
        #: execution order.
        self.results: list[QueryResult] = []
        self.description: list[tuple] | None = None
        self._rows = _RowBuffer()
        self._closed = False

    # -- execution -------------------------------------------------------------

    def execute(self, operation: str | PreparedStatement,
                params: Any = None) -> Cursor:
        """Execute *operation* (source text or a prepared statement)."""
        return self._execute_nodes(self._bound_nodes(operation, params))

    def _execute_nodes(self, nodes: list[PlanNode]) -> Cursor:
        self.results = []
        self._describe(nodes)
        boundary = 0
        while boundary < len(nodes) \
                and not isinstance(nodes[boundary], QueryNode):
            self.results.append(self._run_node(nodes[boundary]))
            boundary += 1
        pages = self._stream(nodes[boundary:])
        self._rows = _RowBuffer(lambda want: next(pages, None))
        self._rows.exhausted = boundary >= len(nodes)
        return self

    def executemany(self, operation: str | PreparedStatement,
                    seq_of_params: Any) -> Cursor:
        """Execute once per parameter set, draining each run.

        The statement is compiled (or cache-validated) exactly once, up
        front; each parameter set then binds against that one plan
        template instead of touching the plan cache again per set.
        """
        prepared = self.connection.prepare(
            operation.source if isinstance(operation, PreparedStatement)
            else operation
        )
        for params in seq_of_params:
            self._execute_nodes(prepared.bind(params))
            self.fetchall()
        return self

    def explain(self, operation: str | PreparedStatement,
                params: Any = None) -> str:
        """A plan dump for *operation* without returning any rows.

        Pricing probes the store's statistics (and reads each
        retrieval's stored scan up to its first match to resolve the
        §2.1.5 logical path, under the same view a SELECT issued now
        would read) but has no side effects — no derivations run
        and nothing is materialized for the caller.

        Each retrieval gets a summary line with the logical path and
        the cost-based physical access path (e.g.
        ``index-eq(band=4) rows~100 cost~144.0``), followed by the full
        physical operator tree with per-operator estimates — scans,
        filters, fallback switches, concept unions — so a user can
        verify an index is actually being used before paying for the
        query::

            >>> cur.explain("SELECT FROM landsat_tm WHERE band = 4")
            'retrieve landsat_tm: path=retrieve access=index-eq(...) ...'

        ``EXPLAIN DERIVE ...`` and ``EXPLAIN RUN ...`` render the
        derivation and process-execution operators the same way.
        """
        nodes = self._bound_nodes(operation, params)
        with self.connection._statement_view().entered():
            return "\n".join(self.connection.executor.render_plan(nodes))

    def run(self, operation: str | PreparedStatement,
            params: Any = None) -> list[QueryResult]:
        """Execute every statement to completion: one result each.

        The materializing counterpart of :meth:`execute`, in strict
        statement order.  A SELECT/DERIVE comes back as one
        ``kind="objects"`` result holding the rows ``execute().fetchall()``
        returns, in that order — the same tree, drained — with the
        §2.1.5 path taken; this is what the CLI renders.
        """
        nodes = self._bound_nodes(operation, params)
        self.results = []
        self._rows = _RowBuffer()
        self._describe(nodes)
        out = [self._run_node(node) for node in nodes]
        self.results = [r for r in out if r.kind != "objects"]
        self._rows.fetched = sum(
            len(r.objects) for r in out if r.kind == "objects"
        )
        return out

    # -- fetching ---------------------------------------------------------------

    def fetchone(self) -> Any | None:
        """The next object, or None when the stream is exhausted."""
        rows = self._rows.take(1)
        return rows[0] if rows else None

    def fetchmany(self, size: int | None = None) -> list[Any]:
        """Up to *size* objects (default ``arraysize``)."""
        return self._rows.take(self.arraysize if size is None else size)

    def fetchall(self) -> list[Any]:
        """Every remaining object (drains the stream)."""
        return self._rows.take(None)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._rows)

    @property
    def rowcount(self) -> int:
        """Objects produced so far; -1 while the stream is still open."""
        return self._rows.rowcount

    def fetch_page(self, count: int) -> tuple[list[Any], Exception | None]:
        """The wire server's fetch: up to *count* objects, and the error
        that cut them short instead of raising it.  It never runs a
        statement that follows a retrieval unless the page starts there
        (see ``_BOUNDARY``)."""
        return self._rows.page(count)

    def close(self) -> None:
        self._rows.close()
        self._closed = True

    # -- internals ---------------------------------------------------------------

    def _bound_nodes(self, operation: str | PreparedStatement,
                     params: Any) -> list[PlanNode]:
        self._check_open()
        self.connection._check_open()
        if isinstance(operation, PreparedStatement):
            # Go through the plan cache rather than the statement's own
            # template: repeated executions count as cache hits, and a
            # statement prepared before DDL transparently re-plans
            # (the cache invalidates on schema-version mismatch).
            plan = self.connection.optimizer.compile(operation.source)
            return bind_nodes(plan.nodes, operation.signature, params)
        prepared = self.connection.prepare(operation)
        return prepared.bind(params)

    def _describe(self, nodes: list[PlanNode]) -> None:
        """PEP-249 ``description`` from the first retrieval's class.

        Whole objects describe the class's attributes; a select list its
        items.  An item of a plain attribute projection (the leg's
        covering columns) has the class's type for it, every other item
        None — its type is whatever the expression produces.
        """
        self.description = None
        for node in nodes:
            if not isinstance(node, QueryNode):
                continue
            leg = node.inputs[0]
            attributes = self.connection.kernel.classes.get(
                leg.class_name).attributes
            if node.items:
                types = dict(attributes)
                columns = leg.projection or (None,) * len(node.items)
                attributes = tuple(
                    (item.alias, types.get(attr))
                    for item, attr in zip(node.items, columns)
                )
            self.description = [
                (attr, type_name, None, None, None, None, None)
                for attr, type_name in attributes
            ]
            return

    def _stream(self, nodes: list[PlanNode]) -> Iterator[Iterator[Any]]:
        """Drive the plan lazily, one statement's operator tree at a
        time, each under its own statement view: one page of rows per
        batch.  The view is entered around each batch pull and left
        before the ``yield`` — held across it, it would leak into
        whatever code consumes the cursor (PEP 567, see
        ``classes._VIEW``).  A retrieval with statements after it ends
        with the ``_BOUNDARY`` page."""
        for position, node in enumerate(nodes, start=1):
            if not isinstance(node, QueryNode):
                self.results.append(self._run_node(node))
                continue
            view = self.connection._statement_view()
            batches = self.connection.executor.iter_group(node)
            while True:
                with view.entered():
                    batch = next(batches, None)
                if batch is None:
                    break
                yield batch.to_rows()
            if position < len(nodes):
                yield _BOUNDARY

    def _run_node(self, node: PlanNode) -> QueryResult:
        """Run one plan node to completion under one statement view (no
        generator escapes it)."""
        with self.connection._statement_view().entered():
            return self.connection.executor.execute(node)

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")

    def __enter__(self) -> Cursor:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def connect(universe: Box = WORLD,
            with_gis_operators: bool = True,
            kernel: MetadataManager | None = None,
            plan_cache_size: int = 128) -> Connection:
    """Open a connection to a Gaea kernel.

    With no *kernel*, a fresh one is created over *universe* (GIS
    operators registered by default, as the paper's processes need
    them).  Pass an existing kernel to open additional concurrent
    connections over the same data::

        conn_a = repro.connect()
        conn_b = repro.connect(kernel=conn_a.kernel)
    """
    if kernel is None:
        kernel = open_kernel(universe=universe)
        if with_gis_operators:
            register_gis_operators(kernel.operators)
    return Connection(kernel=kernel, plan_cache_size=plan_cache_size)
