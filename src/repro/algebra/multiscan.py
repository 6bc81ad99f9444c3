"""Shared scan: several location paths over one physical pass.

The paper's outlook: "Our method can be easily extended to evaluate
multiple location paths with a single I/O-performing operator."  This
module implements that extension for the scan operator: one sequential
pass over the document drives the XStep chains and XAssembly instances
of *all* paths — Q7's three descendant counts read the document once
instead of three times.

Mechanics: the pass is :func:`repro.algebra.xscan.scan`, the one XScan
consumes for a single path — skip planning over all paths, the
``scan_readahead`` window, current-cluster pinning, the stop on a
fallback trip.  For every cluster it yields, each path is fed its
context instance (in the root's cluster) and its speculative entry runs
through that path's step pipeline (XAssembly's fused kernel, or the
scalar XStep chain below it) into its persistent XAssembly, whose R and
S state spans the whole scan — re-opening an XAssembly over a new feed
preserves its execution state by design.  When a path's S outgrows
``memory_limit`` the pass stops and every path gets its context
re-delivered, exactly XScan's fallback protocol (Sec. 5.4.6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun, PathInstance
from repro.algebra.xassembly import XAssembly
from repro.algebra.xscan import scan
from repro.errors import BudgetExceededError, PlanError
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.store import StoredDocument

if TYPE_CHECKING:  # compile.py imports this module lazily
    from repro.xpath.compile import CompiledPathPlan


class _Replay(Operator):
    """Producer handing on one cluster's feed: the path's context, if
    the cluster holds it, then its entry runs, drawn as they are pulled."""

    __slots__ = ("context", "runs")

    def __init__(self, ctx: EvalContext) -> None:
        super().__init__(ctx)
        self.context: PathInstance | None = None
        self.runs: Iterable[EntryRun] = ()

    def _produce(self) -> Iterator[PathInstance | EntryRun]:
        ctx = self.ctx
        if self.context is not None:
            ctx.charge_instance()
            yield self.context
        for run in self.runs:
            yield from run.feed(ctx)


class _PathState:
    """Per-path machinery persisting across clusters."""

    __slots__ = ("source", "assembly", "results")

    def __init__(self, ctx: EvalContext, plan: CompiledPathPlan) -> None:
        # built once; each cluster swaps the replayed feed and re-opens
        # the pipeline, and XAssembly's R/S survive the re-opening
        self.source = _Replay(ctx)
        self.assembly = XAssembly(
            ctx,
            self.source,
            len(plan.steps),
            descendant_root_opt=plan.descendant_root_opt,
            steps=plan.steps,
            document=plan.document,
        )
        self.results: list[NodeID] = []

    def feed(self, context: PathInstance | None, runs: Iterable[EntryRun] = ()) -> None:
        self.source.context = context
        self.source.runs = runs
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
    paths: Sequence[CompiledPathPlan],
) -> list[list[NodeID]]:
    """Evaluate several paths with one sequential scan; returns result
    NodeIDs per path (unordered)."""
    if not paths:
        raise PlanError("shared_scan needs at least one path")
    states = [_PathState(ctx, plan) for plan in paths]
    root = document.root
    context = PathInstance(
        s_l=0,
        n_l=root,
        left_open=False,
        s_r=0,
        slot=slot_of(root),
        is_border=False,
        page_no=page_of(root),
    )
    try:
        # the context cluster always stays in the scan
        for page_no, runs_by_path in scan(
            ctx,
            document,
            [(plan.steps, plan.postings) for plan in paths],
            (context.page_no,),
        ):
            here = context if page_no == context.page_no else None
            for state, runs in zip(states, runs_by_path):
                if ctx.fallback:
                    break  # tripped by the path before: all start over below
                state.feed(here, runs)
        if ctx.fallback:
            # XScan's protocol (Sec. 5.4.6), once per path: the context is
            # re-delivered, the unrestricted step chain re-evaluates the
            # whole path and each path's R filters what it already has
            for state in states:
                state.feed(context)
    except BudgetExceededError as exc:
        # a "partial" budget stops the scan; each path keeps what it has
        if not exc.partial:
            raise
    finally:
        ctx.release()
        ctx.fallback = False
    return [state.results for state in states]
