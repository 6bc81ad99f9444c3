"""The execution environment: one place that wires the simulated runtime.

Every query execution needs the same four physical components — a
simulated clock, a disk device, the asynchronous I/O subsystem and a
buffer manager — assembled in the same order and sharing one
:class:`~repro.sim.stats.Stats` bundle.  Before this module existed that
wiring was hand-rolled in four places (the engine, the concurrent
executor, the benchmark harness and the CLI); now they all go through an
:class:`ExecutionEnvironment`.

Two context policies:

* :meth:`ExecutionEnvironment.fresh_context` — a **cold** runtime: new
  clock at zero, disk head parked at page 0, empty buffer.  This is the
  paper's measurement discipline (O_DIRECT, cold caches, Sec. 6.1).
* :meth:`ExecutionEnvironment.view` — a **private view** of an existing
  runtime: its own current-cluster pin and fallback flag, but the same
  clock, disk queue, buffer and stats.  Concurrent and batched execution
  give each query a view of one shared runtime, which is how their disk
  requests land in a single controller queue.

Warm execution (a session keeping one context alive across queries) is
layered on top by :class:`repro.exec.session.QuerySession`.
"""

from __future__ import annotations

import os

from repro.algebra.context import EvalContext, EvalOptions
from repro.errors import ReproError
from repro.model.tags import TagDictionary
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.disk import DiskDevice, DiskGeometry, SchedulingPolicy
from repro.sim.faults import FaultPlan, FaultProfile
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.buffer import BufferManager
from repro.storage.page import Segment


class ExecutionEnvironment:
    """Factory for execution contexts over one stored segment.

    Owns the *configuration* of the simulated runtime (disk geometry,
    scheduling policy, cost model, buffer capacity, default evaluation
    options); every :meth:`fresh_context` call instantiates the wiring
    from it.
    """

    def __init__(
        self,
        segment: Segment,
        tags: TagDictionary | None,
        geometry: DiskGeometry | None = None,
        disk_policy: SchedulingPolicy = SchedulingPolicy.SSTF,
        costs: CostModel | None = None,
        buffer_pages: int = 256,
        options: EvalOptions | None = None,
        faults: FaultProfile | None = None,
        tracer=None,
    ) -> None:
        self.segment = segment
        self.tags = tags
        self.geometry = geometry or DiskGeometry(page_size=segment.page_size)
        if self.geometry.page_size != segment.page_size:
            raise ReproError("geometry.page_size must match the database page size")
        self.disk_policy = disk_policy
        self.costs = costs or DEFAULT_COST_MODEL
        self.buffer_pages = buffer_pages
        self.options = options or EvalOptions()
        #: fault workload injected into every cold runtime's disk; each
        #: :meth:`fresh_context` gets a *fresh* FaultPlan over it, so two
        #: cold runs with the same profile replay identical faults
        self.faults = faults if faults is not None and faults.active else None
        #: optional :class:`~repro.obs.tracer.Tracer` shared by every
        #: context this environment builds; ``None`` keeps every
        #: instrumentation site on its single-``is None``-test fast path
        self.tracer = tracer
        #: number of cold runtimes built (one per cold run / shared batch)
        self.contexts_built = 0

    @classmethod
    def for_store(cls, store, **config) -> "ExecutionEnvironment":
        """An environment over a :class:`~repro.storage.store.DocumentStore`."""
        return cls(store.segment, store.tags, **config)

    # ------------------------------------------------------------- contexts

    def fresh_context(self, options: EvalOptions | None = None) -> EvalContext:
        """A cold runtime: new clock, parked disk head, empty buffer.

        When ``REPRO_SAN`` requests runtime sanitizers
        (:mod:`repro.analysis.sanitize`), they are installed here.  The
        variable is consulted only when set, keeping the ordinary path
        free of sanitizer work.
        """
        ctx = self._build_context(options or self.options, self.tracer)
        self.contexts_built += 1
        if os.environ.get("REPRO_SAN"):
            from repro.analysis import sanitize

            sanitize.install(ctx)
        return ctx

    def shadow_context(
        self, options: EvalOptions | None = None, tracer=None
    ) -> EvalContext:
        """Sanitizer-internal: the same cold wiring as ``fresh_context``,
        but uncounted (``contexts_built`` is unperturbed), sanitizer-free
        (no recursion), and traced by the caller's private ``tracer``
        instead of the environment's.  Used by the determinism sanitizer
        for its re-execution."""
        return self._build_context(options or self.options, tracer)

    def _build_context(self, opts: EvalOptions, tracer) -> EvalContext:
        stats = Stats()
        clock = SimClock()
        plan = FaultPlan(self.faults) if self.faults is not None else None
        disk = DiskDevice(
            self.geometry, self.disk_policy, stats, faults=plan, tracer=tracer
        )
        iosys = AsyncIOSystem(
            disk, clock, self.costs, stats, retry=opts.retry, tracer=tracer
        )
        buffer = BufferManager(
            self.segment,
            iosys,
            clock,
            self.costs,
            self.buffer_pages,
            stats,
            tracer=tracer,
        )
        return EvalContext(
            self.segment,
            buffer,
            iosys,
            clock,
            self.costs,
            stats,
            opts,
            tags=self.tags,
            tracer=tracer,
        )

    def view(
        self, shared: EvalContext, options: EvalOptions | None = None
    ) -> EvalContext:
        """A private context view over ``shared``'s physical components.

        The view has its own current-cluster pin and fallback flag but
        shares the clock, disk queue, buffer pool and stats — one query's
        reads can satisfy another's, and the controller queue sees every
        query's pending requests at once.
        """
        ctx = EvalContext(
            shared.segment,
            shared.buffer,
            shared.iosys,
            shared.clock,
            shared.costs,
            shared.stats,
            options or shared.options,
            tags=shared.tags,
            tracer=shared.tracer,
        )
        # the charge sanitizer audits the *shared* clock
        ctx.san = shared.san
        return ctx
