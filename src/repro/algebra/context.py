"""Shared evaluation state and cost charging for one query execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import BudgetExceededError, PlanError
from repro.sim.faults import RetryPolicy
from repro.storage.buffer import BufferManager, Frame
from repro.storage.page import Segment
from repro.storage.synopsis import ClusterSynopsis

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.storage.pathsummary import PathSummary
    from repro.storage.store import StoredDocument


@dataclass(frozen=True, slots=True)
class ExecutionBudget:
    """Hard limits on what one query execution may consume.

    Enforced at every operator ``next()`` crossing (via
    :meth:`EvalContext.charge_call`, which the path kernel also goes
    through for the crossings it replays), so a runaway query is
    stopped between result tuples, never mid-I/O.

    Attributes
    ----------
    max_seconds:
        Maximum simulated wall-clock seconds for the run.
    max_pages:
        Maximum *logical* page reads by the run (``Stats.pages_requested``).
        Fault-recovery retries of the same read are the fault injector's
        doing, not the query's, so they never double-charge this limit;
        cap recovery effort with ``max_retries`` instead.
    max_retries:
        Maximum fault-recovery retries the run may consume.
    on_exceeded:
        ``"raise"`` surfaces :class:`~repro.errors.BudgetExceededError`;
        ``"partial"`` stops the drain and returns the results produced so
        far, flagged in the result's :class:`DegradationReport`.
    """

    max_seconds: float | None = None
    max_pages: int | None = None
    max_retries: int | None = None
    on_exceeded: str = "raise"

    def __post_init__(self) -> None:
        for name in ("max_seconds", "max_pages", "max_retries"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise PlanError(f"budget {name} must be positive, got {value}")
        if self.on_exceeded not in ("raise", "partial"):
            raise PlanError(
                f"budget on_exceeded must be 'raise' or 'partial', "
                f"got {self.on_exceeded!r}"
            )

    @property
    def active(self) -> bool:
        return (
            self.max_seconds is not None
            or self.max_pages is not None
            or self.max_retries is not None
        )


@dataclass(frozen=True, slots=True)
class DegradationEvent:
    """One recorded degradation decision (why, where, when)."""

    reason: str  #: e.g. "memory-limit", "dead-page", "latency-slo", "budget"
    sim_time: float  #: simulated time of the event
    page: int | None = None  #: cluster involved, if any
    detail: str = ""  #: human-readable specifics


@dataclass(slots=True)
class DegradationReport:
    """Structured account of every degradation during one execution.

    Carried on :class:`repro.engine.Result` (``result.degradation``) and
    aggregated by :class:`repro.exec.session.QuerySession`.  An execution
    with an empty report ran at full fidelity.
    """

    events: list[DegradationEvent] = field(default_factory=list)
    partial: bool = False  #: True when a budget truncated the result

    @property
    def reasons(self) -> list[str]:
        """Distinct degradation reasons, in first-occurrence order."""
        seen: list[str] = []
        for event in self.events:
            if event.reason not in seen:
                seen.append(event.reason)
        return seen

    def __bool__(self) -> bool:
        return bool(self.events) or self.partial

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", partial" if self.partial else ""
        return f"DegradationReport({self.reasons}{flag}, {len(self.events)} events)"


@dataclass(frozen=True, slots=True)
class EvalOptions:
    """Tuning knobs of the cost-sensitive operators.

    None of them selects how a step is navigated: every plan runs one
    datapath, the path kernel and the full-tree walker over columnar
    cluster views (docs/algebra.md), whose books the golden draws pin.
    The logical ``//`` rewrite (Sec. 2) and the ``//``-prefix R-check
    (Sec. 5.4.5.4) are not options either: the compiler always applies
    both where they hold.

    Attributes
    ----------
    k_min_queue:
        Desired minimum fill of XSchedule's queue Q before asking the
        producer for more context nodes (paper default: 100).
    speculative:
        Whether XSchedule generates left-incomplete instances on first
        visit of a cluster to avoid re-visits (Sec. 5.4.4).  XScan always
        speculates.
    memory_limit:
        Maximum number of instances XAssembly may hold in S before the
        plan reverts to fallback mode (Sec. 5.4.6).  ``None`` = unlimited.
    scan_readahead:
        Number of pages XScan keeps requested ahead of the one it is
        processing.  The default of 0 reads synchronously, faithful to
        the paper's O_DIRECT setup (OS readahead bypassed); positive
        values model asynchronous prefetch, which overlaps the scan's
        I/O with its CPU work (see the readahead ablation benchmark).
    synopsis:
        Consult the per-cluster synopsis
        (:class:`~repro.storage.synopsis.ClusterSynopsis`) to prune
        provably irrelevant clusters: XScan skips them, XSchedule drops
        queue requests for them.  Pruning is conservative — results are
        bit-identical either way.  Disable (CLI ``--no-synopsis``) to
        reproduce the paper's unpruned I/O behaviour: the operators then
        consult a synopsis without rows, which refuses nothing
        (:meth:`snapshots`).
    pathsummary:
        Consult the document's path summary
        (:class:`~repro.storage.pathsummary.PathSummary`) in the logical
        rewrite pass that runs before physical plan choice: refute whole
        location paths the summary proves impossible (empty result, zero
        I/O, no plan compilation), expand provable ``//`` steps into
        concrete child chains, feed exact per-path cardinalities to the
        AUTO chooser, and hand per-path cluster postings to
        XScan/XSchedule/shared scans as a pre-scan cluster filter that
        composes with synopsis pruning.  Conservative — results are
        bit-identical either way.  Disable with CLI ``--no-pathsummary``:
        the pass does not run, the chooser estimates from the statistics
        alone, and the operators get postings that post every page.
    retry:
        How the I/O subsystem recovers from injected faults
        (:class:`~repro.sim.faults.RetryPolicy`): retry cap, exponential
        backoff, lost-request deadline.
    latency_slo:
        Completion-latency service-level objective in simulated seconds.
        A cluster whose read blows the SLO is *sidelined* by XSchedule
        (processed after well-behaved clusters, recorded in the
        degradation report).  ``None`` disables the check.
    budget:
        Optional :class:`ExecutionBudget` enforced during execution.

    Options are validated at construction; a bad combination raises
    :class:`~repro.errors.PlanError` here instead of failing deep inside
    an operator.
    """

    k_min_queue: int = 100
    speculative: bool = False
    memory_limit: int | None = None
    scan_readahead: int = 0
    synopsis: bool = True
    pathsummary: bool = True
    retry: RetryPolicy = RetryPolicy()
    latency_slo: float | None = None
    budget: ExecutionBudget | None = None

    def __post_init__(self) -> None:
        if self.k_min_queue < 1:
            raise PlanError(
                f"k_min_queue must be >= 1, got {self.k_min_queue} "
                "(XSchedule needs at least one queue slot)"
            )
        if self.memory_limit is not None and self.memory_limit < 0:
            raise PlanError(
                f"memory_limit must be non-negative or None, got {self.memory_limit}"
            )
        if self.scan_readahead < 0:
            raise PlanError(
                f"scan_readahead must be non-negative, got {self.scan_readahead}"
            )
        if self.latency_slo is not None and self.latency_slo <= 0:
            raise PlanError(
                f"latency_slo must be positive or None, got {self.latency_slo}"
            )

    def snapshots(
        self, document: StoredDocument
    ) -> tuple[ClusterSynopsis, PathSummary | None]:
        """The pruning metadata of ``document`` a plan consults, as the
        ``synopsis`` and ``pathsummary`` gates select it — the one place
        that reads them.

        A switched-off synopsis is one without rows: it refuses nothing,
        and with ``n_clusters == 0`` the chooser prices it like none.  A
        switched-off path summary comes back as ``None``, which only the
        planner sees: the rewrite pass does not run and hands the
        operators postings that post every page, and the chooser
        estimates from the statistics alone
        (:func:`repro.xpath.estimate.estimate_path`).
        """
        synopsis = document.synopsis if self.synopsis else ClusterSynopsis.from_rows({})
        return synopsis, document.pathsummary if self.pathsummary else None


class EvalContext:
    """Everything a plan's operators share during one execution."""

    __slots__ = (
        "segment",
        "buffer",
        "iosys",
        "clock",
        "costs",
        "stats",
        "options",
        "tags",
        "tracer",
        "current_frame",
        "fallback",
        "degradation_events",
        "fallback_hooks",
        "_budget",
        "_budget_error",
        "_budget_t0",
        "_budget_pages0",
        "_budget_retries0",
    )

    def __init__(
        self,
        segment: Segment,
        buffer: BufferManager,
        options: EvalOptions,
        tags=None,
        tracer=None,
    ) -> None:
        self.segment = segment
        self.buffer = buffer
        self.iosys = buffer.iosys
        #: the runtime's clock, and the books it prices: a charge is an
        #: increment of one of ``stats``' priced counters
        self.clock = clock = buffer.clock
        self.costs = clock.costs
        self.stats = clock.stats
        self.options = options
        #: the store's tag dictionary (needed by serialisation operators)
        self.tags = tags
        #: optional :class:`~repro.obs.tracer.Tracer`; every
        #: instrumentation site guards on ``is not None`` (the same
        #: zero-overhead discipline as the budget check in charge_call)
        self.tracer = tracer
        #: The cluster currently being processed; maintained (pinned) by
        #: the plan's I/O-performing operator.  All swizzled slot
        #: references in flight between the path kernel's XStep levels
        #: point into it.
        self.current_frame: Frame | None = None
        #: Set when XAssembly's memory limit trips (Sec. 5.4.6); operators
        #: poll it and degrade to the Simple method's behaviour.
        self.fallback = False
        #: Why execution degraded, in order of occurrence.  Shared
        #: contexts (warm sessions) accumulate; per-run slices are taken
        #: via :meth:`report_since`.
        self.degradation_events: list[DegradationEvent] = []
        #: callbacks invoked when :meth:`trip_fallback` fires (XAssembly
        #: registers its S-discard here while open)
        self.fallback_hooks: list = []
        self._budget: ExecutionBudget | None = None
        self._budget_error: BudgetExceededError | None = None
        self._budget_t0 = 0.0
        self._budget_pages0 = 0
        self._budget_retries0 = 0

    # ------------------------------------------------------- cost charging
    #
    # A charge is the increment of the counter its CostModel constant
    # prices: the clock reads CPU seconds off the counters.

    def charge_hop(self) -> None:
        """One intra-cluster edge traversal."""
        self.stats.intra_hops += 1

    def charge_test(self) -> None:
        """One node-test evaluation."""
        self.stats.node_tests += 1

    def charge_instance(self) -> None:
        """Creation/copy of one path-instance tuple."""
        self.stats.instances_created += 1

    def charge_set_op(self) -> None:
        """One R/S/duplicate-hash operation."""
        self.stats.set_ops += 1

    def charge_queue_op(self) -> None:
        """One insert/remove on XSchedule's queue Q."""
        self.stats.queue_ops += 1

    def charge_call(self) -> None:
        """One inter-operator ``next()`` call.

        Also the budget enforcement point: every operator crossing runs
        through here, so a tripped budget stops the plan between result
        tuples.  The check is a single ``is None`` test when no budget is
        armed — zero overhead for ordinary runs.
        """
        self.stats.iterator_calls += 1
        if self._budget is not None:
            self.check_budget()

    # ------------------------------------------------------------- budgets

    def arm_budget(self, budget: ExecutionBudget | None) -> bool:
        """Start enforcing ``budget`` from the current clock/stats state.

        Returns True if this call armed it (the caller then owns the
        matching :meth:`disarm_budget`); idempotent while armed so nested
        executions (unions, shared scans) keep the outermost baseline.
        """
        if budget is None or not budget.active or self._budget is not None:
            return False
        self._budget = budget
        self._budget_error = None
        self._budget_t0 = self.clock.now
        self._budget_pages0 = self.stats.pages_requested
        self._budget_retries0 = self.stats.retries
        return True

    def disarm_budget(self) -> None:
        self._budget = None
        self._budget_error = None

    def check_budget(self) -> None:
        """Raise :class:`~repro.errors.BudgetExceededError` on a blown limit."""
        budget = self._budget
        if budget is None:
            return
        if self._budget_error is not None:
            # already blown: later drains of the same execution (e.g. the
            # remaining branches of a union) stop immediately as well
            raise self._budget_error
        spent_s = self.clock.now - self._budget_t0
        if budget.max_seconds is not None and spent_s > budget.max_seconds:
            self._budget_blown("seconds", budget.max_seconds, spent_s, budget)
        # logical reads, not physical service attempts: a page the fault
        # layer retried (or that was sidelined and later recovered via
        # fallback) is charged once, however many attempts recovery took
        spent_pages = self.stats.pages_requested - self._budget_pages0
        if budget.max_pages is not None and spent_pages > budget.max_pages:
            self._budget_blown("pages", budget.max_pages, spent_pages, budget)
        spent_retries = self.stats.retries - self._budget_retries0
        if budget.max_retries is not None and spent_retries > budget.max_retries:
            self._budget_blown("retries", budget.max_retries, spent_retries, budget)

    def _budget_blown(
        self, dimension: str, limit: float, spent: float, budget: ExecutionBudget
    ) -> None:
        partial = budget.on_exceeded == "partial"
        self.note_degradation(
            "budget", detail=f"{dimension} limit {limit:g} reached (spent {spent:g})"
        )
        # the budget stays armed but short-circuits to this error from now
        # on, so nested drains cannot re-arm a fresh one mid-query
        self._budget_error = BudgetExceededError(dimension, limit, spent, partial)
        raise self._budget_error

    # --------------------------------------------------------- degradation

    def note_degradation(
        self, reason: str, page: int | None = None, detail: str = ""
    ) -> None:
        """Record why execution deviated from the full-fidelity plan."""
        self.degradation_events.append(
            DegradationEvent(reason=reason, sim_time=self.clock.now, page=page, detail=detail)
        )
        if (tracer := self.tracer) is not None:
            tracer.event(
                self.clock.now,
                "degradation",
                reason,
                page=page,
                args={"detail": detail} if detail else None,
            )

    def report_since(self, start_index: int) -> DegradationReport | None:
        """Degradation report for events recorded after ``start_index``.

        A ``"partial"`` budget records its cut as a ``"budget"`` event
        and returns normally (a ``"raise"`` budget propagates instead),
        so the slice says whether the result is partial.  Returns None
        for a clean run so results stay cheap to inspect.
        """
        events = self.degradation_events[start_index:]
        if not events:
            return None
        return DegradationReport(
            events=events, partial=any(e.reason == "budget" for e in events)
        )

    def trip_fallback(self, reason: str, page: int | None = None, detail: str = "") -> None:
        """Degrade the plan to the Simple method's behaviour (Sec. 5.4.6).

        Sets the fallback flag that the path kernel and XScan poll, records the cause,
        and runs the registered hooks (XAssembly discards S and revives
        XSchedule's parked entries).  Idempotent.
        """
        if self.fallback:
            return
        self.fallback = True
        self.stats.fallbacks += 1
        self.note_degradation(reason, page=page, detail=detail or "fell back to Simple-method evaluation")
        for hook in list(self.fallback_hooks):
            hook()

    # -------------------------------------------------------- current frame

    def set_current_frame(self, frame: Frame | None) -> None:
        """Move the I/O operator's pin to ``frame`` (unpins the old one)."""
        if self.current_frame is not None:
            self.buffer.unfix(self.current_frame)
        self.current_frame = frame

    def current_page(self):
        if self.current_frame is None:
            raise RuntimeError("no current cluster set")
        return self.current_frame.page

    def release(self) -> None:
        """Drop the current-frame pin at end of execution."""
        self.set_current_frame(None)
