"""XScan: sequential-scan-based cluster access (paper Sec. 5.4.3).

The second I/O-performing operator.  Instead of scheduling individual
cluster accesses, XScan reads *every* cluster of the document exactly
once, in physical order — the access pattern the disk (and any OS
readahead) serves at streaming bandwidth.  Because clusters are visited
in physical rather than logical order, XScan speculatively produces
left-incomplete path instances for every entry border of each cluster;
XAssembly later merges them with the instances that prove their left
ends reachable.

Fallback (Sec. 5.4.6): XScan restarts its producer and degrades to the
identity operator — every context is re-delivered and the (now
unrestricted) XStep chain re-evaluates the whole path; R in XAssembly
prevents duplicate results.

The pass itself is not XScan's: :func:`scan` (skip planning, per-path
speculation, the stop on a fallback trip) over :func:`scan_pages`
(readahead window, fix or synchronous read, pin hand-over) is the one
sequential pass of the engine.  XScan is its one-path consumer, the
shared scan (:mod:`repro.algebra.multiscan`) its N-path consumer, and
document export runs the page loop alone.
"""

from __future__ import annotations

from typing import Container, Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun, PathInstance
from repro.algebra.steps import CompiledStep
from repro.storage.buffer import Frame
from repro.storage.nav import speculative_entries
from repro.storage.page import Page
from repro.storage.pathsummary import PathPostings
from repro.storage.store import StoredDocument
from repro.storage.synopsis import (
    POSTINGS_REFUSE,
    SYNOPSIS_REFUSES,
    cost_effective_skips,
)

#: what a scan knows of one location path: its steps and their postings
ScanPath = tuple[Sequence[CompiledStep], PathPostings | None]


def plan_scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence[ScanPath],
    keep: Container[int],
) -> tuple[list[int], list[dict[int, list[int]]]]:
    """The clusters a sequential scan for ``paths`` reads, in scan order.

    A cluster is dropped when it holds no context (``keep``) and no step
    of any path can contribute from it — no speculative resume can yield
    a candidate or a transit (conservative, so results are bit-identical
    to the unpruned scan).  Consulting the synopsis is planning metadata:
    no simulated time is charged.  Only runs of prunable pages long enough
    to beat the seek their gap induces are dropped: skipping an isolated
    page in a streaming read costs more than transferring it.

    Also returns, per path, the ``scan_verdicts`` of every cluster (none
    without a synopsis: the postings refine it, never replace it — the
    transit residues live in its rows); :func:`speculate` reads the same
    verdicts when the scan gets to the cluster.
    """
    page_nos = document.page_nos
    synopsis = document.synopsis if ctx.options.synopsis else None
    if synopsis is None:
        return page_nos, [{} for _ in paths]
    verdicts = [
        {p: synopsis.scan_verdicts(p, steps, postings) for p in page_nos}
        for steps, postings in paths
    ]

    def skips_when(refuser: int) -> set[int]:
        prunable = [
            page_no not in keep
            and all(v & refuser for by_page in verdicts for v in by_page[page_no])
            for page_no in page_nos
        ]
        return cost_effective_skips(page_nos, prunable, ctx.iosys.disk.geometry)

    skips = skips_when(SYNOPSIS_REFUSES)
    ctx.stats.synopsis_clusters_pruned += len(skips)
    # Postings widen the prunable vector (a page every path's postings
    # rule out is as safely skippable as a synopsis-pruned one; a path
    # without postings keeps its synopsis verdict).  Taking the union
    # keeps the synopsis counter identical to a postings-free run and
    # attributes only the extra skips to the path summary.
    if any(postings is not None for _, postings in paths):
        extra = skips_when(POSTINGS_REFUSE) - skips
        ctx.stats.pathsummary_clusters_pruned += len(extra)
        skips |= extra
    return [p for p in page_nos if p not in skips], verdicts


def speculate(
    ctx: EvalContext,
    page: Page,
    steps: Sequence[CompiledStep],
    verdicts: list[int] | None,
) -> Iterator[EntryRun]:
    """Left-incomplete instances for every entry border of ``page``: one
    :class:`EntryRun` per step that is not pruned and has an entry.

    ``verdicts`` are the cluster's ``scan_verdicts`` (``None``: nothing is
    pruned).  Enumeration charges nothing: the columnar view's
    precomputed border lists replace the record scan.
    """
    batched = ctx.options.batched
    for index, step in enumerate(steps):
        if verdicts is not None and verdicts[index]:
            # no entry of this cluster can extend this step — by the
            # synopsis, or (it could not rule the cluster out) by the
            # postings: no node of the step's path set lives here and
            # no transit residue remains either
            if verdicts[index] & SYNOPSIS_REFUSES:
                ctx.stats.synopsis_entries_pruned += 1
            else:
                ctx.stats.pathsummary_entries_pruned += 1
            continue
        slots = (
            page.colview().entry_slots(step.axis)
            if batched
            else list(speculative_entries(page, step.axis))
        )
        if slots:
            yield EntryRun(index, page.page_no, slots)


def scan_pages(ctx: EvalContext, page_nos: Sequence[int]) -> Iterator[Frame]:
    """Fix ``page_nos`` one after the other, in the order given: the
    page-level loop of every sequential pass.

    It owns the ``scan_readahead`` window, the choice between a resident
    fix and a synchronous read, the hand-over of the current-cluster pin
    and ``clusters_visited``; it stops when the plan trips into fallback
    mode.  The pin on the last page read stays for the caller to release.
    """
    readahead = ctx.options.scan_readahead
    issued = 0
    for index, page_no in enumerate(page_nos):
        if ctx.fallback:
            return
        if readahead > 0:
            # asynchronous prefetch: keep a window of reads in flight
            while issued < len(page_nos) and issued <= index + readahead:
                if not ctx.buffer.is_resident(page_nos[issued]):
                    ctx.iosys.request(page_nos[issued])
                issued += 1
            while not ctx.buffer.is_resident(page_no):
                done = ctx.iosys.get_completion()
                if done is None:
                    break
                ctx.buffer.admit_completed(done)
        frame = ctx.buffer.try_fix_resident(page_no)
        if frame is None:
            # synchronous sequential read (O_DIRECT semantics): the
            # disk detects the ascending pattern, so only transfer
            # time is paid, but it is serial with the CPU work
            frame = ctx.buffer.fix(page_no)
        ctx.set_current_frame(frame)
        ctx.stats.clusters_visited += 1
        yield frame


def _until_fallback(ctx: EvalContext, runs: Iterator[EntryRun]) -> Iterator[EntryRun]:
    # a trip stops the speculation between two steps, not inside a run
    while not ctx.fallback and (run := next(runs, None)) is not None:
        yield run


def scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence[ScanPath],
    keep: Container[int],
) -> Iterator[tuple[int, list[Iterator[EntryRun]]]]:
    """The one sequential pass: every cluster of ``document`` that
    :func:`plan_scan` keeps for ``paths``, pinned in physical order by
    :func:`scan_pages`, with each path's speculation over it (lazy: a
    path's pruning counters move as its runs are drawn).

    A trip into fallback mode (Sec. 5.4.6) ends the runs of the cluster
    between two steps and the pass before the next cluster; the consumer
    then re-delivers its contexts, which the unrestricted step chain
    re-evaluates in full while R filters the duplicates.
    """
    page_nos, verdicts = plan_scan(ctx, document, paths, keep)
    for frame in scan_pages(ctx, page_nos):
        page = frame.page
        yield page.page_no, [
            _until_fallback(
                ctx, speculate(ctx, page, steps, by_page.get(page.page_no))
            )
            for (steps, _), by_page in zip(paths, verdicts)
        ]


class XScan(Operator):
    """The I/O-performing operator based on a single sequential scan:
    the one-path consumer of :func:`scan`."""

    __slots__ = ("producer", "steps", "document", "postings")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        steps: list[CompiledStep],
        document: StoredDocument,
        postings: PathPostings | None = None,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.steps = steps
        self.document = document
        self.postings = postings

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[PathInstance | EntryRun]:
        ctx = self.ctx
        # The paper requires the context input sorted by cluster id; we
        # group the (typically single) context instances per cluster.
        by_cluster: dict[int, list[PathInstance]] = {}
        all_contexts: list[PathInstance] = []
        for y in self.producer:
            assert y.page_no is not None
            ctx.charge_queue_op()
            by_cluster.setdefault(y.page_no, []).append(y)
            all_contexts.append(y)

        paths = [(self.steps, self.postings)]
        for page_no, (runs,) in scan(ctx, self.document, paths, by_cluster):
            for y in by_cluster.pop(page_no, ()):  # contexts first (paper)
                ctx.charge_instance()
                yield y
            for run in runs:
                yield from run.feed(ctx)

        if ctx.fallback:
            # restart the producer, behave as the identity operator: the
            # fallback step chain fully re-evaluates every context (the
            # trip itself was counted by ``EvalContext.trip_fallback``)
            for y in all_contexts:
                ctx.charge_instance()
                yield y
