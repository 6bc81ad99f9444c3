"""High-level engine facade.

:class:`Database` ties the layers together: a document store on a
simulated disk, a buffer manager, the XPath compiler and the physical
algebra.  Typical use::

    from repro import Database

    db = Database(buffer_pages=256)
    db.load_xml(open("doc.xml").read(), name="doc")
    result = db.execute("count(/site/regions//item)", doc="doc", plan="xschedule")
    print(result.value, result.total_time, result.stats.pages_read)

Every ``execute`` runs cold by default — fresh clock, empty buffer, disk
head at page 0 — matching the paper's measurement discipline (O_DIRECT,
cold caches, Sec. 6.1).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.algebra.context import DegradationReport, EvalContext, EvalOptions
from repro.errors import ReproError
from repro.exec.environment import ExecutionEnvironment
from repro.obs import TraceSummary, Tracer
from repro.sim.faults import FaultProfile
from repro.model.builder import TreeBuilder
from repro.model.tree import LogicalTree
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.disk import DiskGeometry, SchedulingPolicy
from repro.sim.stats import Stats
from repro.storage.importer import ImportOptions
from repro.storage.nodeid import NodeID, page_of, slot_of
from repro.storage.record import CoreRecord
from repro.storage.store import DocumentStore, StoredDocument
from repro.xml.parser import parse_into
from repro.xpath.compile import CompiledQuery, PlanKind, compile_query


@dataclass
class Result:
    """Outcome of one query execution with full physical accounting."""

    query: str
    doc: str
    plan_kinds: list[PlanKind]
    value: float | None  #: numeric result (count/arithmetic queries)
    nodes: list[NodeID] | None  #: result nodes in document order (path queries)
    total_time: float  #: simulated wall-clock seconds
    cpu_time: float  #: simulated CPU seconds (the paper's Table 3 "CPU")
    io_wait: float  #: simulated seconds blocked on the disk
    stats: Stats
    #: how many queries shared the physical I/O behind ``stats``; 1 for a
    #: standalone execution.  Batched results all reference the batch's
    #: shared counter bundle, so ``stats.io_requests / shared_io_queries``
    #: is the amortized per-query attribution.
    shared_io_queries: int = 1
    #: why (and how) this execution degraded — fallback trips, sidelined
    #: clusters, budget cuts.  ``None`` for a full-fidelity run.
    degradation: DegradationReport | None = None
    #: trace-derived rollups for this run (``None`` unless the database
    #: was built with a :class:`~repro.obs.tracer.Tracer`); its
    #: ``counters`` are ``stats.as_dict()``
    trace_summary: TraceSummary | None = None

    @property
    def degraded(self) -> bool:
        """True when execution deviated from the full-fidelity plan."""
        return bool(self.degradation)

    @property
    def partial(self) -> bool:
        """True when an execution budget truncated the result set."""
        return self.degradation is not None and self.degradation.partial

    @classmethod
    def from_context(
        cls,
        ctx: EvalContext,
        mark: tuple[float, float, float],
        query: str,
        doc: str,
        plan_kinds: list[PlanKind],
        value: float | None = None,
        nodes: list[NodeID] | None = None,
        stats: Stats | None = None,
        shared_io_queries: int = 1,
        degradation: DegradationReport | None = None,
    ) -> "Result":
        """Bundle the timing since ``mark`` and ``ctx``'s counters.

        ``stats`` overrides the context's bundle (runs on a reused
        runtime pass their per-run delta).  A traced context's summary
        is built over the same bundle.
        """
        total, cpu, io_wait = ctx.clock.since(mark)
        if stats is None:
            stats = ctx.stats
        return cls(
            query=query,
            doc=doc,
            plan_kinds=plan_kinds,
            value=value,
            nodes=nodes,
            total_time=total,
            cpu_time=cpu,
            io_wait=io_wait,
            stats=stats,
            shared_io_queries=shared_io_queries,
            degradation=degradation,
            trace_summary=(
                ctx.tracer.summary(stats) if ctx.tracer is not None else None
            ),
        )

    @property
    def cpu_fraction(self) -> float:
        return self.cpu_time / self.total_time if self.total_time else 0.0

    @property
    def node_count(self) -> int:
        if self.nodes is not None:
            return len(self.nodes)
        raise ReproError("node_count on a numeric result")

    def __repr__(self) -> str:
        what = f"value={self.value}" if self.value is not None else f"nodes={len(self.nodes or [])}"
        plans = "+".join(k.value for k in self.plan_kinds)
        return (
            f"Result({self.query!r} [{plans}] {what}, total={self.total_time:.4f}s, "
            f"cpu={self.cpu_time:.4f}s)"
        )


class Database:
    """A single-segment XML database over a simulated disk."""

    def __init__(
        self,
        page_size: int = 8192,
        buffer_pages: int = 256,
        geometry: DiskGeometry | None = None,
        disk_policy: SchedulingPolicy = SchedulingPolicy.SSTF,
        costs: CostModel | None = None,
        eval_options: EvalOptions | None = None,
        store: DocumentStore | None = None,
        faults: FaultProfile | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if store is not None and store.segment.page_size != page_size:
            raise ReproError("store page size must match the database page size")
        self.store = store or DocumentStore(page_size)
        self.buffer_pages = buffer_pages
        self.disk_policy = disk_policy
        self.costs = costs or DEFAULT_COST_MODEL
        self.eval_options = eval_options or EvalOptions()
        self.env = ExecutionEnvironment(
            self.store.segment,
            self.store.tags,
            geometry=geometry,
            disk_policy=self.disk_policy,
            costs=self.costs,
            buffer_pages=buffer_pages,
            options=self.eval_options,
            faults=faults,
            tracer=tracer,
        )
        self.geometry = self.env.geometry
        #: durability manager (:class:`repro.storage.wal.WriteAheadLog`);
        #: None = updates are in-memory only (the default).  Attach with
        #: :meth:`attach_wal`.  The query datapath never consults this —
        #: the WAL is provably free when off.
        self.wal = None

    # ------------------------------------------------------------- loading

    @property
    def tags(self):
        return self.store.tags

    def builder(self) -> TreeBuilder:
        """A tree builder bound to this database's tag dictionary."""
        return TreeBuilder(self.store.tags)

    def load_xml(
        self,
        text: str,
        name: str = "default",
        import_options: ImportOptions | None = None,
    ) -> StoredDocument:
        """Parse and import an XML document."""
        builder = self.builder()
        parse_into(text, builder)
        return self.add_tree(builder.finish(), name, import_options)

    def add_tree(
        self,
        tree: LogicalTree,
        name: str = "default",
        import_options: ImportOptions | None = None,
    ) -> StoredDocument:
        """Import an already-built logical tree."""
        opts = import_options or ImportOptions(page_size=self.store.segment.page_size)
        return self.store.import_document(tree, name, opts)

    def document(self, name: str = "default") -> StoredDocument:
        return self.store.document(name)

    # ------------------------------------------------------------ execution

    def prepare(
        self,
        query: str,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
        options: EvalOptions | None = None,
        advisor: object | None = None,
    ) -> CompiledQuery:
        """Compile a query without executing it.

        ``advisor`` (a :class:`~repro.exec.calibration.CalibrationStore`)
        lets AUTO resolution consult measured plan outcomes; sessions
        pass their own store, a bare database compiles estimator-only.
        """
        return compile_query(
            query,
            self.store.document(doc),
            self.store.tags,
            plan=plan,
            options=options or self.eval_options,
            geometry=self.geometry,
            advisor=advisor,
            tracer=self.env.tracer,
        )

    def make_context(self, options: EvalOptions | None = None) -> EvalContext:
        """A fresh cold execution context (new clock, empty buffer)."""
        return self.env.fresh_context(options)

    def execute(
        self,
        query: str,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
        options: EvalOptions | None = None,
        context: EvalContext | None = None,
    ) -> Result:
        """Compile and run ``query``; returns a :class:`Result`.

        Pass an explicit ``context`` to run warm (reusing its buffer and
        clock); by default every call is a cold run.  For repeated or
        batched execution, prefer a :meth:`session` — it caches compiled
        plans and can keep the buffer warm across runs.
        """
        compiled = self.prepare(query, doc, plan, options)
        ctx = context or self.env.fresh_context(options)
        events_mark = len(ctx.degradation_events)
        mark = ctx.clock.checkpoint()
        # a cold context's totals are the run's totals; a reused one is
        # reported as the delta since here
        before = ctx.stats.snapshot() if context is not None else None
        tracer = ctx.tracer
        events_start = tracer.events_recorded if tracer is not None else 0
        value, nodes = compiled.execute(ctx)
        if context is None and os.environ.get("REPRO_SAN"):
            from repro.analysis import sanitize

            if "determinism" in sanitize.modes():
                from repro.analysis.sanitize.determinism import recheck

                recheck(
                    self.env,
                    compiled,
                    options,
                    value,
                    nodes,
                    ctx.stats,
                    (ctx.clock.now, ctx.clock.cpu_time, ctx.clock.io_wait),
                    tracer,
                    events_start,
                )
        return Result.from_context(
            ctx,
            mark,
            query=query,
            doc=doc,
            plan_kinds=compiled.plan_kinds,
            value=value,
            nodes=nodes,
            stats=None if before is None else ctx.stats.diff(before),
            degradation=ctx.report_since(events_mark),
        )

    def session(
        self,
        warm: bool = False,
        cache_size: int = 64,
        options: EvalOptions | None = None,
    ) -> "QuerySession":
        """A :class:`~repro.exec.session.QuerySession` over this database.

        Sessions cache compiled plans (repeated executes skip
        lex/parse/compile) and, with ``warm=True``, keep one runtime —
        clock, buffer, disk head — alive across executes.
        """
        from repro.exec.session import QuerySession

        return QuerySession(self, warm=warm, cache_size=cache_size, options=options)

    def run_batch(
        self,
        requests,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
        options: EvalOptions | None = None,
    ):
        """Execute a batch of queries over one shared runtime.

        See :func:`repro.exec.batch.run_batch`; scan-shareable location
        paths ride a single sequential scan, the rest interleave over the
        shared disk queue.
        """
        from repro.exec.batch import run_batch

        return run_batch(self.session(options=options), requests, doc=doc, plan=plan)

    # --------------------------------------------------------- persistence

    def save(self, path: str) -> None:
        """Persist the store (all documents) to a binary file.

        The write is atomic (temp file, fsync, rename): a crash mid-save
        leaves the previous file intact.
        """
        from repro.storage.persist import save_store

        save_store(self.store, path)

    # ---------------------------------------------------------- durability

    def attach_wal(
        self,
        path: str,
        checkpoint_every: int | None = None,
        wal_path: str | None = None,
        crash=None,
    ):
        """Put this database's store under write-ahead logging.

        Checkpoints the store to ``path`` immediately (atomically) and
        opens ``wal_path`` (default ``path + ".wal"``); from here on,
        route updates through ``db.wal`` (or a session's update methods)
        so they are durable.  ``checkpoint_every=N`` folds the log into
        a fresh image every N logged operations.  ``crash`` is a
        :class:`~repro.sim.faults.CrashInjector` for kill-and-recover
        tests.  Returns the manager, also available as ``self.wal``.
        """
        from repro.storage.wal import WriteAheadLog

        if self.wal is not None:
            raise ReproError("a write-ahead log is already attached")
        self.wal = WriteAheadLog.create(
            self.store,
            path,
            wal_path=wal_path,
            checkpoint_every=checkpoint_every,
            crash=crash,
        )
        return self.wal

    @classmethod
    def recover(
        cls,
        path: str,
        buffer_pages: int = 256,
        geometry: DiskGeometry | None = None,
        disk_policy: SchedulingPolicy = SchedulingPolicy.SSTF,
        costs: CostModel | None = None,
        eval_options: EvalOptions | None = None,
        collect_statistics: bool = False,
        faults: FaultProfile | None = None,
        tracer: Tracer | None = None,
        wal_path: str | None = None,
    ) -> tuple["Database", "object"]:
        """Open a database from a checkpoint + WAL pair after a crash.

        Loads the last good checkpoint at ``path``, replays the valid
        prefix of ``wal_path`` (default ``path + ".wal"``) and returns
        ``(db, report)`` (a
        :class:`~repro.storage.wal.RecoveryReport`).  Statistics are
        *not* recollected by default: a store that lived through updates
        has none either, so the recovered database plans exactly like
        the uncrashed one would — pass ``collect_statistics=True`` to
        rebuild them.  Call :meth:`attach_wal` afterwards to resume
        durable operation (it checkpoints, collapsing the replayed log).
        """
        from repro.storage.store import recollect_statistics
        from repro.storage.wal import recover_store

        store, report = recover_store(path, wal_path=wal_path)
        db = cls(
            page_size=store.segment.page_size,
            buffer_pages=buffer_pages,
            geometry=geometry,
            disk_policy=disk_policy,
            costs=costs,
            eval_options=eval_options,
            store=store,
            faults=faults,
            tracer=tracer,
        )
        if collect_statistics:
            for doc in store.documents.values():
                recollect_statistics(store, doc)
        return db, report

    @classmethod
    def load(
        cls,
        path: str,
        buffer_pages: int = 256,
        geometry: DiskGeometry | None = None,
        disk_policy: SchedulingPolicy = SchedulingPolicy.SSTF,
        costs: CostModel | None = None,
        eval_options: EvalOptions | None = None,
        collect_statistics: bool = True,
        faults: FaultProfile | None = None,
        tracer: Tracer | None = None,
    ) -> "Database":
        """Open a database from a file written by :meth:`save`.

        Statistics (for the AUTO plan chooser) are recollected from the
        stored records unless ``collect_statistics`` is False.
        """
        from repro.storage.persist import load_store
        from repro.storage.store import (
            recollect_pathsummary,
            recollect_statistics,
            recollect_synopsis,
        )

        store = load_store(path)
        db = cls(
            page_size=store.segment.page_size,
            buffer_pages=buffer_pages,
            geometry=geometry,
            disk_policy=disk_policy,
            costs=costs,
            eval_options=eval_options,
            store=store,
            faults=faults,
            tracer=tracer,
        )
        if collect_statistics:
            for doc in store.documents.values():
                recollect_statistics(store, doc)
                if doc.synopsis is None:  # version-1 file without a synopsis
                    recollect_synopsis(store, doc)
                if doc.pathsummary is None:  # pre-v4 file without a summary
                    recollect_pathsummary(store, doc)
        return db

    # -------------------------------------------------------------- export

    def export_xml(
        self,
        doc: str = "default",
        method: str = "scan",
        options: EvalOptions | None = None,
    ) -> tuple[str, Result]:
        """Export a document to XML text with full cost accounting.

        ``method="scan"`` reads every page once in physical order and
        stitches per-cluster text fragments (the paper's outlook applied
        to export); ``method="navigate"`` traverses in document order
        with eager border crossing (the Simple method's pattern).
        Returns ``(xml_text, result)`` where the result carries the
        simulated timing and counters of the export.
        """
        from repro.storage.export import export_navigate, export_scan

        document = self.store.document(doc)
        ctx = self.env.fresh_context(options)
        mark = ctx.clock.checkpoint()
        if method == "scan":
            text = export_scan(ctx, document)
        elif method == "navigate":
            text = export_navigate(ctx, document)
        else:
            raise ReproError(f"unknown export method {method!r}")
        result = Result.from_context(
            ctx,
            mark,
            query=f"export[{method}]",
            doc=doc,
            plan_kinds=[],
        )
        return text, result

    # ----------------------------------------------------------- inspection

    def node_info(self, nid: NodeID) -> tuple[str, str, str | None]:
        """(kind-name, tag-name, value) of a result node — no cost charged."""
        record = self.store.segment.page(page_of(nid)).record(slot_of(nid))
        if not isinstance(record, CoreRecord):
            raise ReproError(f"NodeID {nid} does not reference a core record")
        return (record.kind.name, self.store.tags.name_of(record.tag), record.value)
