"""Shared scan: several location paths over one physical pass.

The paper's outlook: "Our method can be easily extended to evaluate
multiple location paths with a single I/O-performing operator."  This
module implements that extension for the scan operator: one sequential
pass over the document drives the XStep chains and XAssembly instances
of *all* paths — Q7's three descendant counts read the document once
instead of three times.

Mechanics: the driver performs XScan's physical work (sequential page
loads, current-cluster pinning).  For every cluster it feeds each path
its context instances and its speculative left-incomplete instances
through that path's step pipeline (XAssembly's fused kernel, or the
scalar XStep chain below it) into its persistent XAssembly, whose R and
S state spans the whole scan — re-opening an XAssembly over a new
batch preserves its execution state by design.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun, PathInstance
from repro.algebra.xassembly import XAssembly
from repro.algebra.xscan import plan_scan, speculate
from repro.errors import BudgetExceededError, PlanError
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.store import StoredDocument


class _Replay(Operator):
    """Producer replaying a fixed batch (one cluster's feed)."""

    __slots__ = ("items",)

    def __init__(self, ctx: EvalContext, items: list[PathInstance | EntryRun]) -> None:
        super().__init__(ctx)
        self.items = items

    def _produce(self) -> Iterator[PathInstance | EntryRun]:
        yield from self.items


class _PathState:
    """Per-path machinery persisting across clusters."""

    __slots__ = ("steps", "source", "assembly", "results", "postings")

    def __init__(
        self, ctx: EvalContext, steps, descendant_root_opt: bool, postings=None
    ) -> None:
        self.steps = steps
        self.postings = postings
        # built once; each cluster swaps the replayed batch and re-opens
        # the pipeline, and XAssembly's R/S survive the re-opening
        self.source = _Replay(ctx, [])
        self.assembly = XAssembly(
            ctx,
            self.source,
            len(steps),
            descendant_root_opt=descendant_root_opt,
            steps=steps,
        )
        self.results: list[NodeID] = []

    def feed(self, batch: list[PathInstance | EntryRun]) -> None:
        self.source.items = batch
        self.assembly.open()
        try:
            while True:
                item = self.assembly.next()
                if item is None:
                    break
                assert item.page_no is not None
                self.results.append(make_nodeid(item.page_no, item.slot))
        finally:
            # also on a budget blow or a typed I/O error: the fallback
            # hook is unregistered and the kernel posts its counters
            self.assembly.close()


def shared_scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence,  # CompiledPathPlan-like: .steps, .descendant_root_opt
) -> list[list[NodeID]]:
    """Evaluate several paths with one sequential scan; returns result
    NodeIDs per path (unordered)."""
    if not paths:
        raise PlanError("shared_scan needs at least one path")
    states = [
        _PathState(
            ctx,
            plan.steps,
            getattr(plan, "descendant_root_opt", False),
            postings=getattr(plan, "postings", None),
        )
        for plan in paths
    ]
    root = document.root
    context_cluster = page_of(root)
    # skip clusters no path can draw a candidate or transit from (the
    # context cluster always stays in)
    page_nos, verdicts = plan_scan(
        ctx,
        document,
        [(state.steps, state.postings) for state in states],
        (context_cluster,),
    )
    cost_instance = ctx.costs.instance_op
    try:
        for page_no in page_nos:
            frame = ctx.buffer.try_fix_resident(page_no)
            if frame is None:
                # synchronous sequential read (O_DIRECT semantics)
                frame = ctx.buffer.fix(page_no)
            ctx.set_current_frame(frame)
            ctx.stats.clusters_visited += 1
            for state, reached in zip(states, verdicts):
                batch: list[PathInstance | EntryRun] = []
                if page_no == context_cluster:
                    ctx.charge_instance()
                    batch.append(
                        PathInstance(
                            s_l=0,
                            n_l=root,
                            left_open=False,
                            s_r=0,
                            slot=slot_of(root),
                            is_border=False,
                            page_no=page_no,
                        )
                    )
                for run in speculate(
                    ctx, frame.page, state.steps, reached.get(page_no)
                ):
                    # a cluster's batch is charged while it is built,
                    # ahead of the feed
                    entries = len(run.slots)
                    ctx.clock.work(entries * cost_instance)
                    ctx.stats.instances_created += entries
                    ctx.stats.speculative_instances += entries
                    run.prepaid = True
                    batch.extend(run.feed(ctx))
                state.feed(batch)
    except BudgetExceededError as exc:
        # a "partial" budget stops the scan; each path keeps what it has
        if not exc.partial:
            raise
    finally:
        ctx.release()
    return [state.results for state in states]
