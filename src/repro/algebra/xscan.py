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
A cluster's speculation for a path is memoised on its ``ColumnView``
(:func:`speculation`): a visit looks it up once and draws shared runs.
"""

from __future__ import annotations

from typing import Container, Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun
from repro.algebra.steps import CompiledStep
from repro.storage.buffer import Frame
from repro.storage.nodeid import NodeID, page_of
from repro.storage.pathsummary import PathPostings
from repro.storage.store import PATH_ID_LIMIT, StoredDocument
from repro.storage.synopsis import ClusterSynopsis, cost_effective_skips

#: what a scan knows of one location path: its steps and their postings
ScanPath = tuple[Sequence[CompiledStep], PathPostings]
#: per step of one path, the bitset of the clusters the synopsis refuses
#: it in, then that of the clusters the path's postings refuse it in
Refusals = tuple[list[int], list[int]]


def step_refusals(
    synopsis: ClusterSynopsis,
    steps: Sequence[CompiledStep],
    postings: PathPostings,
) -> tuple[Refusals, Refusals]:
    """One path's refusals of speculative resumes (``can_contribute``)
    and of targeted ones (``can_extend``), off the synopsis's memo: a few
    look-ups and big-int operations per step.  A synopsis without rows
    (switched off) or postings of every page refuse nothing."""
    ours = [synopsis.refusals(step) for step in steps]
    theirs = [postings.refusals(synopsis, index) for index in range(len(steps))]
    return (
        ([c for c, _ in ours], [c for c, _ in theirs]),
        ([e for _, e in ours], [e for _, e in theirs]),
    )


def plan_scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence[ScanPath],
    keep: Container[int],
) -> tuple[list[int], list[Refusals]]:
    """The clusters a sequential scan for ``paths`` reads, in scan order.

    A cluster is dropped when it holds no context (``keep``) and no step
    of any path can contribute from it — no speculative resume can yield
    a candidate or a transit (conservative, so results are bit-identical
    to the unpruned scan).  Consulting the synopsis is planning metadata:
    no simulated time is charged.  Only runs of prunable pages long enough
    to beat the seek their gap induces are dropped: skipping an isolated
    page in a streaming read costs more than transferring it.

    Also returns, per path, its contribute :data:`Refusals` (all zero
    for a synopsis without rows: the postings refine the synopsis, never
    replace it — the transit residues live in its rows);
    :func:`speculation` reads them when the scan gets to a cluster.
    """
    page_nos = document.page_nos
    synopsis, _ = ctx.options.snapshots(document)
    refusals = [step_refusals(synopsis, steps, postings)[0] for steps, postings in paths]

    def skips_when(side: int) -> set[int]:
        # the clusters every step of every path is refused in
        refused = -1
        for masks in refusals:
            for mask in masks[side]:
                refused &= mask
        if not refused:
            return set()
        prunable = [p not in keep and refused >> p & 1 for p in page_nos]
        return cost_effective_skips(page_nos, prunable, ctx.iosys.disk.geometry)

    skips = skips_when(0)
    ctx.stats.synopsis_clusters_pruned += len(skips)
    # Postings widen the prunable vector (a page every path's postings
    # rule out is as safely skippable as a synopsis-pruned one).  Taking
    # the union keeps the synopsis counter identical to a run whose
    # postings post every page and attributes only the extra skips to the
    # path summary.
    extra = skips_when(1) - skips
    ctx.stats.pathsummary_clusters_pruned += len(extra)
    skips |= extra
    return [p for p in page_nos if p not in skips], refusals


def speculation_id(segment, steps: Sequence[CompiledStep], refused: Refusals) -> int:
    """What :func:`speculation` is memoised under on ``segment``'s views:
    one int per scan, interned as ``StoredDocument.path_id`` interns."""
    ids = segment.speculation_ids
    key = (tuple(step.memo_key for step in steps), tuple(refused[0]), tuple(refused[1]))
    found = ids.get(key)
    if found is None:
        if len(ids) >= PATH_ID_LIMIT:
            ids.clear()
        found = ids[key] = segment.next_speculation_id
        segment.next_speculation_id += 1
    return found


def speculation(view, key: int, steps: Sequence[CompiledStep], refused: Refusals) -> tuple:
    """Left-incomplete instances for every entry border of the cluster
    ``view`` mirrors: one :class:`EntryRun` per step that is neither
    pruned (by the contribute :data:`Refusals` ``refused``) nor without
    an entry, with the steps pruned since the run before, and the steps
    pruned after the last.  Memoised on the view under ``key``
    (:func:`speculation_id`); charges nothing (:func:`draw` books)."""
    memo = view.speculations.get(key)
    if memo is None:
        page_no = view.page_no
        runs = []
        synopsis = postings = 0
        for index, step in enumerate(steps):
            # no entry of this cluster can extend this step — by the
            # synopsis, or (it could not rule the cluster out) by the
            # postings: no node of the step's path set lives here and no
            # transit residue remains either
            if refused[0][index] >> page_no & 1:
                synopsis += 1
            elif refused[1][index] >> page_no & 1:
                postings += 1
            elif slots := view.entries[step.entries]:
                runs.append(EntryRun(index, page_no, slots, synopsis, postings))
                synopsis = postings = 0
        memo = (tuple(runs), synopsis, postings)
        view.keep_speculation(key, memo)
    return memo


def draw(ctx: EvalContext, memo: tuple, stop: bool = True) -> Iterator[EntryRun]:
    """A :func:`speculation`'s runs as they are pulled, each booking the
    steps pruned before it (the draw past the last, those after it); with
    ``stop``, a fallback trip ends the draw between two runs."""
    stats = ctx.stats
    runs, synopsis, postings = memo
    for run in runs:
        if stop and ctx.fallback:
            return
        stats.synopsis_entries_pruned += run.synopsis_pruned
        stats.pathsummary_entries_pruned += run.postings_pruned
        yield run
    if not (stop and ctx.fallback):
        stats.synopsis_entries_pruned += synopsis
        stats.pathsummary_entries_pruned += postings


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
        # a miss is a synchronous sequential read (O_DIRECT semantics): only
        # transfer time is paid, but it is serial with the CPU work
        frame = ctx.buffer.probe_fix(page_no)
        ctx.set_current_frame(frame)
        ctx.stats.clusters_visited += 1
        yield frame


def scan(
    ctx: EvalContext,
    document: StoredDocument,
    paths: Sequence[ScanPath],
    keep: Container[int],
) -> Iterator[tuple[int, list[Iterator[EntryRun]]]]:
    """The one sequential pass: every cluster of ``document`` that
    :func:`plan_scan` keeps for ``paths``, pinned in physical order by
    :func:`scan_pages`, with each path's speculation over it: one memo
    look-up per path, its runs drawn lazily (:func:`draw`).

    A trip into fallback mode (Sec. 5.4.6) ends the runs of the cluster
    between two steps and the pass before the next cluster; the consumer
    then re-delivers its contexts, which the unrestricted step chain
    re-evaluates in full while R filters the duplicates.
    """
    page_nos, refusals = plan_scan(ctx, document, paths, keep)
    speculating = [(speculation_id(ctx.segment, s, r), s, r) for (s, _), r in zip(paths, refusals)]
    for frame in scan_pages(ctx, page_nos):
        view = frame.page.colview()
        yield view.page_no, [draw(ctx, speculation(view, *path)) for path in speculating]


class XScan(Operator):
    """The I/O-performing operator based on a single sequential scan:
    the one-path consumer of :func:`scan`."""

    __slots__ = ("producer", "steps", "document", "postings", "_runs")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        steps: list[CompiledStep],
        document: StoredDocument,
        postings: PathPostings,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.steps = steps
        self.document = document
        self.postings = postings
        #: the speculation over the pinned cluster this operator is
        #: suspended in (:meth:`take_run`)
        self._runs: Iterator[EntryRun] = iter(())

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def take_run(self) -> EntryRun | None:
        """The next entry run of the cluster this operator speculates on,
        drawn from the very iterator a pull would draw it from — or None
        once a pull would deliver anything else (the speculation is spent,
        or a fallback trip stopped it).  The path kernel takes a cluster's
        runs after the first this way, charging the pull's crossing itself
        (docs/algebra.md, "Run tapes")."""
        return next(self._runs, None)

    def _produce(self) -> Iterator[tuple | EntryRun]:
        """Every context as the trivial complete instance at it, in Q's
        tuple ``(s_r, seq, s_l, n_l, left_open, target, resumed)``, and
        every cluster's entry runs."""
        ctx = self.ctx
        # The paper requires the context input sorted by cluster id; we
        # group the (typically single) context nodes per cluster.
        by_cluster: dict[int, list[NodeID]] = {}
        contexts: list[NodeID] = []
        for nid in self.producer:
            ctx.charge_queue_op()
            by_cluster.setdefault(page_of(nid), []).append(nid)
            contexts.append(nid)

        paths = [(self.steps, self.postings)]
        for page_no, (runs,) in scan(ctx, self.document, paths, by_cluster):
            for nid in by_cluster.pop(page_no, ()):  # contexts first (paper)
                ctx.charge_instance()
                yield (0, 0, 0, nid, False, nid, False)
            self._runs = runs
            yield from runs

        if ctx.fallback:
            # restart the producer, behave as the identity operator: the
            # fallback step chain fully re-evaluates every context (the
            # trip itself was counted by ``EvalContext.trip_fallback``)
            for nid in contexts:
                ctx.charge_instance()
                yield (0, 0, 0, nid, False, nid, False)
