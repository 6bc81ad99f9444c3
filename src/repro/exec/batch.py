"""Batched multi-query execution over one shared runtime.

The paper isolates all physical access in one I/O-performing operator so
the scheduler can amortize cost across many pending navigations; its
outlook extends this to *multiple location paths* sharing one operator.
:func:`run_batch` is that extension lifted to the engine's surface: a
batch of queries is routed onto a single execution environment —

* **scan-shareable** queries (location paths whose resolved plan is the
  sequential scan, all over one document) ride a *single* physical pass
  via :func:`repro.algebra.multiscan.shared_scan`;
* everything else is **interleaved** round-robin over the shared
  asynchronous disk queue (:func:`repro.algebra.concurrent.interleave`),
  where the controller sees every query's pending requests at once and
  one query's reads satisfy another's buffer hits.

Routing is cost-sensitive in the batch sense: a query compiled with
``plan="auto"`` whose estimator picks XSchedule *in isolation* is still
promoted onto the shared scan when at least one other batch member scans
the same document — the marginal I/O of adding a path to a scan that is
happening anyway is zero.

Every per-query :class:`~repro.engine.Result` carries the batch's shared
:class:`~repro.sim.stats.Stats` bundle with
``shared_io_queries=len(batch)`` recording the amortization, and
finished-at timing on the shared clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.concurrent import interleave
from repro.engine import Result
from repro.errors import PlanError, UnsupportedQueryError
from repro.model.tree import Kind
from repro.sim.stats import Stats
from repro.storage.nodeid import NodeID
from repro.xpath.compile import CompiledQuery, PlanKind, shared_scan_results


@dataclass(frozen=True)
class InsertOp:
    """Batch request: insert a node (see :meth:`QuerySession.insert
    <repro.exec.session.QuerySession.insert>`).  ``doc=None`` targets
    the batch's default document."""

    parent: NodeID
    position: int
    tag_name: str
    kind: Kind = Kind.ELEMENT
    value: str | None = None
    doc: str | None = None


@dataclass(frozen=True)
class DeleteOp:
    """Batch request: delete the subtree rooted at ``nid``."""

    nid: NodeID
    doc: str | None = None


@dataclass(frozen=True)
class SetValueOp:
    """Batch request: replace a text/attribute value."""

    nid: NodeID
    value: str = ""
    doc: str | None = None


#: request types recognised as update operations
UPDATE_OPS = (InsertOp, DeleteOp, SetValueOp)


@dataclass
class BatchOutcome:
    """Aggregate outcome of one :func:`run_batch` call."""

    results: list[Result]  #: per-request results, in request order
    total_time: float  #: simulated makespan of the whole batch
    cpu_time: float
    io_wait: float
    stats: Stats  #: shared physical counters for the whole batch
    scan_shared: int  #: queries evaluated via the shared sequential scan
    interleaved: int  #: queries interleaved over the shared disk queue
    #: trace rollups for the whole batch (``None`` without a tracer);
    #: shared by every per-query result, like ``stats``
    trace_summary: object | None = None
    #: update operations applied between the batch's query runs
    updates: int = field(default=0)

    @property
    def makespan(self) -> float:
        return self.total_time


def _normalize(request, doc: str, plan) -> tuple[str, str, PlanKind]:
    if isinstance(request, str):
        query, rdoc, rplan = request, doc, plan
    else:
        parts = tuple(request)
        query = parts[0]
        rdoc = parts[1] if len(parts) > 1 else doc
        rplan = parts[2] if len(parts) > 2 else plan
    kind = PlanKind.coerce(rplan)
    return query, rdoc, kind


def _pure_scan(compiled: CompiledQuery) -> bool:
    """True if every leaf path scans and they all target one document."""
    plans = compiled.path_plans()
    return (
        bool(plans)
        and all(p.kind is PlanKind.XSCAN for p in plans)
        and len({id(p.document) for p in plans}) == 1
    )


def _run_queries(
    session,
    shared,
    raw: list,
    indices: list[int],
    doc: str,
    plan,
    outcomes: list,
    labels: list,
    plan_kinds_by: list,
) -> tuple[int, int]:
    """Execute one run of query requests on the shared runtime.

    This is the original (pure-query) batch body parametrised by the
    request indices it serves: compile through the session cache, route
    onto the shared scan / shared disk queue, resolve.  Compilation
    happens here — per run, not per batch — so queries that follow an
    update run are planned against the post-update document.  Returns
    ``(scan_members, queue_members)`` counts.
    """
    reqs = {index: _normalize(raw[index], doc, plan) for index in indices}
    compiled: dict[int, CompiledQuery] = {
        index: session.prepare(q, d, k, session.options)
        for index, (q, d, k) in reqs.items()
    }
    for index, (query, rdoc, _) in reqs.items():
        labels[index] = (query, rdoc)

    # ---- route: shared scan per document vs. shared disk queue
    scan_groups: dict[int, list[int]] = {}  # id(document) -> request indices
    queue_members: list[int] = []
    promotable: dict[int, list[tuple[int, CompiledQuery]]] = {}
    for index in indices:
        query, rdoc, kind = reqs[index]
        cq = compiled[index]
        if _pure_scan(cq):
            scan_groups.setdefault(id(cq.path_plans()[0].document), []).append(index)
        elif kind is PlanKind.AUTO:
            try:
                rescanned = session.prepare(query, rdoc, PlanKind.XSCAN, session.options)
            except UnsupportedQueryError:
                queue_members.append(index)
                continue
            if _pure_scan(rescanned):
                doc_key = id(rescanned.path_plans()[0].document)
                promotable.setdefault(doc_key, []).append((index, rescanned))
            else:
                queue_members.append(index)
        else:
            queue_members.append(index)
    for doc_key, members in promotable.items():
        # promote only where the scan is shared with at least one other query
        if len(scan_groups.get(doc_key, [])) + len(members) >= 2:
            for index, rescanned in members:
                compiled[index] = rescanned
                scan_groups.setdefault(doc_key, []).append(index)
        else:
            queue_members.extend(index for index, _ in members)
    queue_members.sort()

    tracer = shared.tracer
    if tracer is not None:
        scan_members = sum(len(members) for members in scan_groups.values())
        tracer.batch_event(
            shared.clock.now, len(indices), scan_members, len(queue_members)
        )

    # ---- phase 1: one sequential scan per document feeds all its paths
    for doc_key in scan_groups:
        members = sorted(scan_groups[doc_key])
        view = session.env.view(shared, session.options)
        armed = view.arm_budget(view.options.budget)
        try:
            # duplicate queries share one compiled plan: scanned once
            by_plan = shared_scan_results(view, [compiled[i] for i in members])
            for index in members:
                value, nodes = compiled[index].resolve_with_results(view, by_plan)
                outcomes[index] = (
                    value,
                    nodes,
                    shared.clock.checkpoint(),
                    view.report_since(0),
                )
        finally:
            if armed:
                view.disarm_budget()

    # ---- phase 2: the rest interleave over the shared disk queue
    if queue_members:
        jobs = [
            (compiled[index], session.env.view(shared, session.options))
            for index in queue_members
        ]
        for index, (_, view), outcome in zip(
            queue_members, jobs, interleave(jobs)
        ):
            outcomes[index] = outcome + (view.report_since(0),)

    for index in indices:
        plan_kinds_by[index] = compiled[index].plan_kinds
    scan_count = sum(len(members) for members in scan_groups.values())
    return scan_count, len(queue_members), compiled


def _apply_one_update(
    session, shared, op, doc: str, outcomes: list, labels: list, index: int
) -> None:
    """Apply one update request through the session (WAL-routed when
    attached) and synthesize its per-request outcome entry."""
    target = op.doc if op.doc is not None else doc
    if isinstance(op, InsertOp):
        nid = session.insert(
            target, op.parent, op.position, op.tag_name, op.kind, op.value
        )
        value: float | None = None
        nodes: list[NodeID] | None = [nid]
        label = f"insert({op.tag_name})"
    elif isinstance(op, DeleteOp):
        removed = session.delete(target, op.nid)
        value, nodes = float(removed), None
        label = "delete"
    else:
        session.set_value(target, op.nid, op.value)
        value, nodes = None, None
        label = "set-value"
    labels[index] = (label, target)
    outcomes[index] = (value, nodes, shared.clock.checkpoint(), None)


def _apply_updates(
    session, shared, raw: list, indices: range, doc: str, outcomes: list, labels: list
) -> None:
    """Apply one run of update requests, in order.

    With a WAL attached, the whole run rides one group-commit window —
    the batch flush policy: one fsync per update run instead of one per
    operation (operations inside the run are not durable until the run
    ends; see :meth:`~repro.storage.wal.WriteAheadLog.group_commit`).
    """
    wal = session.db.wal
    if wal is not None:
        with wal.group_commit():
            for index in indices:
                _apply_one_update(session, shared, raw[index], doc, outcomes, labels, index)
    else:
        for index in indices:
            _apply_one_update(session, shared, raw[index], doc, outcomes, labels, index)


def run_batch(
    session,
    requests,
    doc: str = "default",
    plan: PlanKind | str = PlanKind.AUTO,
) -> BatchOutcome:
    """Execute a batch of queries and updates over one shared runtime.

    ``requests`` is a list of query strings, ``(query[, doc[, plan]])``
    tuples, or update operations (:class:`InsertOp`, :class:`DeleteOp`,
    :class:`SetValueOp`); ``doc``/``plan`` supply the defaults.  The
    batch is processed in request order as maximal runs: consecutive
    queries share scans and the disk queue exactly as before (a batch
    without updates takes the historical code path unchanged), and
    consecutive updates apply in order under one WAL group-commit
    window.  Queries after an update run see the updated document and
    are compiled against it.

    Update requests yield synthesized results (``plan_kinds=[]``; an
    insert's ``nodes`` holds the minted NodeID, a delete's ``value`` the
    removed-node count); updates consume no simulated time — maintenance
    cost modeling stays out of scope, as in the paper.
    """
    raw = list(requests)
    if not raw:
        raise PlanError("run_batch needs at least one request")

    shared = session.context()
    mark = shared.clock.checkpoint()
    before = shared.stats.snapshot()

    n = len(raw)
    #: per request: (value, nodes, clock checkpoint, degradation report)
    outcomes: list[tuple | None] = [None] * n
    labels: list[tuple[str, str] | None] = [None] * n
    plan_kinds_by: list[list[PlanKind]] = [[] for _ in range(n)]
    scan_count = 0
    queue_count = 0
    updates_count = 0
    compiled_by: dict[int, CompiledQuery] = {}

    index = 0
    while index < n:
        is_update = isinstance(raw[index], UPDATE_OPS)
        end = index
        while end < n and isinstance(raw[end], UPDATE_OPS) == is_update:
            end += 1
        if is_update:
            _apply_updates(session, shared, raw, range(index, end), doc, outcomes, labels)
            updates_count += end - index
        else:
            sc, qc, run_compiled = _run_queries(
                session, shared, raw, list(range(index, end)), doc, plan,
                outcomes, labels, plan_kinds_by,
            )
            scan_count += sc
            queue_count += qc
            compiled_by.update(run_compiled)
        index = end

    # ---- per-request results with shared-I/O attribution
    batch_stats = shared.stats.diff(before)
    total, cpu, io_wait = shared.clock.since(mark)
    tracer = shared.tracer
    batch_summary = tracer.summary(batch_stats) if tracer is not None else None
    results: list[Result] = []
    for position in range(n):
        value, nodes, checkpoint, degradation = outcomes[position]
        query, rdoc = labels[position]
        results.append(
            Result(
                query=query,
                doc=rdoc,
                plan_kinds=plan_kinds_by[position],
                value=value,
                nodes=nodes,
                total_time=checkpoint[0] - mark[0],
                cpu_time=checkpoint[1] - mark[1],
                io_wait=checkpoint[2] - mark[2],
                stats=batch_stats,
                shared_io_queries=n,
                degradation=degradation,
                trace_summary=batch_summary,
            )
        )
    outcome = BatchOutcome(
        results=results,
        total_time=total,
        cpu_time=cpu,
        io_wait=io_wait,
        stats=batch_stats,
        scan_shared=scan_count,
        interleaved=queue_count,
        trace_summary=batch_summary,
        updates=updates_count,
    )
    session._account_batch(outcome)
    # a single-query batch on a cold runtime is a clean per-plan timing:
    # nothing shared its I/O and the makespan is all its own, so it can
    # feed the chooser's calibration store like a plain session run.
    # Anything larger stays unobserved — shared-scan and interleaved
    # timings cannot be attributed to one (shape, plan) pair.
    if n == 1 and updates_count == 0 and 0 in compiled_by:
        session.observe_run(compiled_by[0], labels[0][1], total, session.options)
    return outcome
