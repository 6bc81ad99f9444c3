"""Concurrent query execution over one shared I/O subsystem.

The paper's outlook: "We also expect concurrent queries to strongly
benefit from asynchronous I/O, as scheduling decisions can be made based
on more pending requests" — and conversely warns that scan-based plans
suffer interference when several run at once (Sec. 2).

This module interleaves several query plans round-robin over a *shared*
clock, disk, buffer and asynchronous I/O subsystem:

* CPU work serialises (one simulated CPU), so total CPU is the sum;
* disk requests from all queries share the controller queue — the
  reordering policy sees more candidates, which is exactly the claimed
  benefit;
* the buffer is shared, so one query's reads can satisfy another's
  (request coalescing happens in the I/O subsystem).

Each query keeps its own :class:`EvalContext` view (own current-cluster
pin, own fallback flag, own armed budget) around the shared components.

Only the *leaves* of a query are interleaved: its location paths are
drained cooperatively, one result tuple per turn, and the expression
over them is then evaluated by :meth:`CompiledQuery.evaluate
<repro.xpath.compile.CompiledQuery.evaluate>`, the walk every other
entry point uses — so a concurrent query may be any expression
``execute`` accepts, and answers as it does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.context import EvalContext, EvalOptions
from repro.errors import BudgetExceededError, PlanError
from repro.sim.stats import Stats
from repro.storage.nodeid import NodeID, make_nodeid
from repro.xpath.compile import CompiledPathPlan, CompiledQuery, PlanKind


@dataclass(slots=True)
class ConcurrentResult:
    """Per-query outcome of a concurrent run."""

    query: str
    plan_kinds: list[PlanKind]
    value: float | None
    nodes: list[NodeID] | None
    finished_at: float  #: simulated time when this query completed


@dataclass(slots=True)
class ConcurrentOutcome:
    """Aggregate outcome of one concurrent execution."""

    results: list[ConcurrentResult]
    total_time: float
    cpu_time: float
    io_wait: float
    stats: Stats

    @property
    def makespan(self) -> float:
        return self.total_time


def _drain(plan: CompiledPathPlan, ctx: EvalContext, counted: bool):
    """Run one leaf path, yielding after every result tuple; returns its
    unordered node set.

    Charges what direct execution does: a tuple of a ``counted`` path
    pays one ``set_op``.  A refuted path is constant-empty and builds no
    plan; a ``"partial"`` budget ends the drain with what it has.
    """
    nids: list[NodeID] = []
    if plan.refuted:
        ctx.stats.paths_refuted += 1
        return nids
    top = plan.build(ctx)
    top.open()
    try:
        while (item := top.next()) is not None:
            if counted:
                ctx.charge_set_op()
            assert item.page_no is not None
            nids.append(make_nodeid(item.page_no, item.slot))
            yield
    except BudgetExceededError as exc:
        if not exc.partial:
            raise
    finally:
        top.close()
        ctx.release()
        ctx.fallback = False
    return nids


def _drive_query(compiled: CompiledQuery, ctx: EvalContext):
    """Generator evaluating a compiled query with cooperative yields.

    Drains the query's leaf paths in evaluation order under its armed
    budget, yielding after every result tuple so the scheduler can
    interleave queries, then evaluates the expression over the finished
    leaves; returns ``(value, nodes)``.
    """
    armed = ctx.arm_budget(ctx.options.budget)
    try:
        finished = {}
        for plan, counted in compiled.leaves:
            finished[plan] = yield from _drain(plan, ctx, counted)
        return compiled.evaluate(
            ctx, finished.__getitem__, lambda plan: len(finished[plan])
        )
    finally:
        if armed:
            ctx.disarm_budget()


def interleave(
    jobs: list[tuple[CompiledQuery, EvalContext]],
) -> list[tuple[float | None, list[NodeID] | None, tuple[float, float, float]]]:
    """Advance compiled queries round-robin, one result tuple at a time.

    Each job is ``(compiled, ctx)`` where every ``ctx`` is a private view
    over one shared runtime (see
    :meth:`repro.exec.environment.ExecutionEnvironment.view`) — the
    queries' disk requests land in a single controller queue and their
    reads share one buffer pool.  Returns, in job order,
    ``(value, nodes, clock_checkpoint_at_completion)``.
    """
    drivers = [(ctx, _drive_query(compiled, ctx)) for compiled, ctx in jobs]
    outcomes: list[tuple | None] = [None] * len(drivers)
    active = list(range(len(drivers)))
    try:
        while active:
            for index in list(active):
                ctx, generator = drivers[index]
                try:
                    next(generator)
                except StopIteration as done:
                    value, nodes = done.value
                    outcomes[index] = (value, nodes, ctx.clock.checkpoint())
                    active.remove(index)
    finally:
        # a budget that raises in one query unwinds the others too: each
        # closes its plan and drops its pin now, not at collection
        for _, generator in drivers:
            generator.close()
    return outcomes  # type: ignore[return-value]


def run_concurrent(
    db,
    requests: list[tuple[str, str, str]],
    options: EvalOptions | None = None,
) -> ConcurrentOutcome:
    """Execute ``(query, doc, plan)`` requests concurrently.

    All queries share one cold execution environment (clock, disk
    controller queue, buffer pool); their operator trees are advanced
    round-robin, one result tuple at a time.
    """
    if not requests:
        raise PlanError("run_concurrent needs at least one request")
    shared = db.env.fresh_context(options)
    jobs = [
        (db.prepare(query, doc, plan, options), db.env.view(shared, options))
        for query, doc, plan in requests
    ]
    outcomes = interleave(jobs)
    results = [
        ConcurrentResult(
            query=query,
            plan_kinds=compiled.plan_kinds,
            value=value,
            nodes=nodes,
            finished_at=checkpoint[0],
        )
        for (query, _, _), (compiled, _), (value, nodes, checkpoint) in zip(
            requests, jobs, outcomes
        )
    ]
    return ConcurrentOutcome(
        results=results,
        total_time=shared.clock.now,
        cpu_time=shared.clock.cpu_time,
        io_wait=shared.clock.io_wait,
        stats=shared.stats,
    )
