"""Query sessions: cached compilation and (optionally) warm runtimes.

A :class:`QuerySession` is the layer between the :class:`~repro.engine.Database`
facade and the execution environment.  It adds two things a bare
``Database.execute`` lacks:

* an **LRU compiled-plan cache** keyed on ``(query, doc, plan, options)``
  — re-executing a query skips lex/parse/compile entirely (asserted via
  the :attr:`QuerySession.compiles` counter);
* **per-session aggregate accounting** — every run's timing and physical
  counters are merged into the session's :attr:`stats` / time totals, so
  a workload's cost is one read away.

Sessions run **cold** by default (a fresh runtime per execute, the
paper's measurement discipline).  With ``warm=True`` one runtime — clock,
buffer pool, disk head — survives across executes, so repeated queries
hit the buffer; per-run counters are attributed by snapshot/diff on the
shared :class:`~repro.sim.stats.Stats` bundle.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.algebra.context import EvalContext, EvalOptions
from repro.engine import Database, Result
from repro.exec.calibration import CalibrationStore
from repro.model.tree import Kind
from repro.sim.stats import Stats
from repro.storage.nodeid import NodeID
from repro.xpath.compile import CompiledQuery, PlanKind, resolve_auto
from repro.xpath.estimate import predict_io_costs


class QuerySession:
    """A stream of query executions over one database."""

    def __init__(
        self,
        db: Database,
        warm: bool = False,
        cache_size: int = 64,
        options: EvalOptions | None = None,
    ) -> None:
        self.db = db
        self.env = db.env
        self.warm = warm
        self.cache_size = cache_size
        self.options = options or db.eval_options
        self._plans: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._warm_ctx: EvalContext | None = None
        #: measured-outcome feedback for the AUTO chooser
        #: (:class:`~repro.exec.calibration.CalibrationStore`)
        self.calibration = CalibrationStore()
        #: plan-cache counters
        self.cache_hits = 0
        self.cache_misses = 0
        self.compiles = 0
        #: cached AUTO plans recompiled because the feedback store would
        #: now resolve them differently (measured override or exploration)
        self.replans = 0
        #: aggregate accounting across every run of this session
        self.runs = 0
        self.degraded_runs = 0
        #: update operations routed through this session
        self.updates = 0
        self.stats = Stats()
        self.total_time = 0.0
        self.io_wait = 0.0

    # -------------------------------------------------------- plan cache

    def prepare(
        self,
        query: str,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
        options: EvalOptions | None = None,
    ) -> CompiledQuery:
        """Compile ``query`` through the LRU plan cache.

        Compiled plans are stateless (operator trees are instantiated per
        execution), so one cache entry serves any number of runs.

        A cached AUTO plan is revalidated against the feedback store: if
        the store would resolve any of its paths to a different family
        today (a measured outcome arrived, or a low-confidence choice is
        due an exploration run), the entry is dropped and the query
        recompiles — compilation is off the
        simulated clock, so the replan is free in simulated time.
        """
        kind = PlanKind.coerce(plan)
        opts = options or self.options
        key = (query, doc, kind.value, opts)
        tracer = self.env.tracer
        cached = self._plans.get(key)
        if (
            cached is not None
            and cached.auto_choices
            and self._advice_stale(cached, doc, opts, self.calibration)
        ):
            del self._plans[key]
            self.replans += 1
            cached = None
        if cached is not None:
            self._plans.move_to_end(key)
            self.cache_hits += 1
            if tracer is not None:
                tracer.plan_cache_event(True, query, doc, kind.value)
            return cached
        self.cache_misses += 1
        self.compiles += 1
        if tracer is not None:
            tracer.plan_cache_event(False, query, doc, kind.value)
        compiled = self.db.prepare(query, doc, kind, opts, advisor=self.calibration)
        self._plans[key] = compiled
        while len(self._plans) > self.cache_size:
            self._plans.popitem(last=False)
        return compiled

    def _advice_stale(
        self,
        compiled: CompiledQuery,
        doc: str,
        opts: EvalOptions,
        advisor: CalibrationStore,
    ) -> bool:
        """True if the store would resolve any AUTO path differently now."""
        document = self.db.store.document(doc)
        geometry = self.db.geometry
        for record in compiled.auto_choices:
            choice, _, _ = resolve_auto(
                document, list(record.steps), geometry, opts, advisor
            )
            if choice != record.choice:
                return True
        return False

    def clear_cache(self) -> None:
        """Drop every cached plan (counters are kept)."""
        self._plans.clear()

    @property
    def cached_plans(self) -> int:
        return len(self._plans)

    # ----------------------------------------------------------- runtime

    def context(self, options: EvalOptions | None = None) -> EvalContext:
        """The runtime the next run executes on.

        Cold sessions build a fresh one per call; warm sessions build one
        on first use, from the session's options, and keep it (buffer
        contents, clock and disk-head position all persist).  A call that
        brings its own ``options`` runs on a private view of the warm
        runtime, so its budget, memory limit and pruning gates are its
        own and end with it.
        """
        if not self.warm:
            return self.env.fresh_context(options or self.options)
        if self._warm_ctx is None:
            self._warm_ctx = self.env.fresh_context(self.options)
        if options is not None:
            return self.env.view(self._warm_ctx, options)
        return self._warm_ctx

    def cool(self) -> None:
        """Discard the warm runtime; the next run starts cold again."""
        self._warm_ctx = None

    # --------------------------------------------------------- execution

    def execute(
        self,
        query: str,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
        options: EvalOptions | None = None,
    ) -> Result:
        """Run ``query``; compiles at most once per distinct cache key."""
        compiled = self.prepare(query, doc, plan, options)
        ctx = self.context(options)
        # warm contexts accumulate degradation events across runs; slice
        # from here so this result only reports its own
        events_mark = len(ctx.degradation_events)
        mark = ctx.clock.checkpoint()
        before = ctx.stats.snapshot()
        value, nodes = compiled.execute(ctx)
        result = Result.from_context(
            ctx,
            mark,
            query=query,
            doc=doc,
            plan_kinds=compiled.plan_kinds,
            value=value,
            nodes=nodes,
            stats=ctx.stats.diff(before),
            degradation=ctx.report_since(events_mark),
        )
        self._account(result)
        self.observe_run(compiled, doc, result.total_time, options)
        return result

    def observe_run(
        self,
        compiled: CompiledQuery,
        doc: str,
        total_time: float,
        options: EvalOptions | None = None,
    ) -> bool:
        """Feed one run's simulated total into the calibration store.

        Only clean measurements are deposited: the session must be cold
        (a warm buffer would make the first-observed family look slower
        than the second) and the query must be a single location path
        whose plan is one of the chooser's two families — multi-path and
        shared-I/O timings cannot be attributed to one (shape, plan)
        pair.  Returns True when an observation was recorded.
        """
        store = self.calibration
        opts = options or self.options
        if self.warm:
            return False
        plans = compiled.path_plans()
        if len(plans) != 1:
            return False
        path = plans[0]
        if path.kind not in (PlanKind.XSCAN, PlanKind.XSCHEDULE):
            return False
        document = self.db.store.document(doc)
        prediction = predict_io_costs(
            document,
            path.steps,
            self.db.geometry,
            *opts.snapshots(document),
            queue_depth=opts.k_min_queue,
        )
        store.observe(
            document.name, path.steps, path.kind.value, total_time, prediction
        )
        return True

    def run_batch(
        self,
        requests,
        doc: str = "default",
        plan: PlanKind | str = PlanKind.AUTO,
    ):
        """Execute a batch over one shared runtime; see :mod:`repro.exec.batch`."""
        from repro.exec.batch import run_batch

        return run_batch(self, requests, doc=doc, plan=plan)

    # ----------------------------------------------------------- updates

    def insert(
        self,
        doc: str,
        parent: NodeID,
        position: int,
        tag_name: str,
        kind: Kind = Kind.ELEMENT,
        value: str | None = None,
    ) -> NodeID:
        """Insert a node, durably when the database has a WAL attached.

        With ``db.wal`` set the operation is applied, synopsis-repaired
        and logged (fsynced per operation unless inside a group-commit
        window); without one it applies in memory only.  Structural
        updates drop the compiled-plan cache: cached AUTO choices were
        costed against pre-update statistics.
        """
        wal = self.db.wal
        if wal is not None:
            nid = wal.insert(doc, parent, position, tag_name, kind, value)
        else:
            from repro.storage.update import insert_node

            store = self.db.store
            nid = insert_node(
                store, store.document(doc), parent, position, tag_name, kind, value
            )
        self.updates += 1
        self.clear_cache()
        return nid

    def delete(self, doc: str, nid: NodeID) -> int:
        """Delete a subtree (durably with a WAL attached); returns the
        number of core nodes removed."""
        wal = self.db.wal
        if wal is not None:
            removed = wal.delete(doc, nid)
        else:
            from repro.storage.update import delete_subtree

            store = self.db.store
            removed = delete_subtree(store, store.document(doc), nid)
        self.updates += 1
        self.clear_cache()
        return removed

    def set_value(self, doc: str, nid: NodeID, value: str) -> None:
        """Replace a text/attribute value (durably with a WAL attached).

        Value updates change no structure, so cached plans stay valid.
        """
        wal = self.db.wal
        if wal is not None:
            wal.set_value(doc, nid, value)
        else:
            from repro.storage.update import update_value

            update_value(self.db.store, nid, value)
        self.updates += 1

    # -------------------------------------------------------- accounting

    def _account(self, result: Result) -> None:
        self.runs += 1
        if result.degraded:
            self.degraded_runs += 1
        self.stats.merge(result.stats)
        self.total_time += result.total_time
        self.io_wait += result.io_wait

    def _account_batch(self, outcome) -> None:
        """Merge a batch's shared accounting once (not once per query).

        Update requests are counted by the per-op session methods (via
        :attr:`updates`), so only the query requests add to :attr:`runs`.
        """
        self.runs += len(outcome.results) - outcome.updates
        self.degraded_runs += sum(1 for r in outcome.results if r.degraded)
        self.stats.merge(outcome.stats)
        self.total_time += outcome.total_time
        self.io_wait += outcome.io_wait

    @property
    def cpu_time(self) -> float:
        """Simulated CPU seconds across every run: what was not I/O wait."""
        return self.total_time - self.io_wait

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "warm" if self.warm else "cold"
        return (
            f"QuerySession({mode}, runs={self.runs}, plans={len(self._plans)}, "
            f"hits={self.cache_hits}, compiles={self.compiles}, "
            f"total={self.total_time:.4f}s)"
        )
