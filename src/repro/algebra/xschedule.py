"""XSchedule: asynchronous-I/O cluster scheduling (paper Sec. 5.3.4/5.4.4).

All physical access for a path is funnelled through this operator.  Its
queue Q holds unprocessed path instances keyed by the cluster of their
right end; cluster loads are issued to the asynchronous I/O subsystem as
soon as an instance enters Q, so the lower layers (and the simulated
on-disk controller) can reorder many outstanding requests.

Per the paper's ``next`` method, each call:

1. replenishes Q from the producer until at least ``k`` entries exist
   (default 100);
2. submits cluster requests for new entries;
3. returns an instance from the *current cluster* if one remains,
   otherwise blocks on the next I/O completion and switches clusters.

With ``speculative`` set (Sec. 5.4.4) the operator generates
left-incomplete path instances on the first visit of each cluster — the
same speculation as XScan — so a cluster never needs to be visited twice:
later crossings into a visited cluster are *parked* instead of enqueued,
because their continuation already sits in XAssembly's S.  (Parked
entries are re-enqueued if the plan trips into fallback mode, where S is
discarded.)
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun, PathInstance
from repro.algebra.steps import CompiledStep
from repro.algebra.xscan import speculate
from repro.errors import IOError_
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.pathsummary import PathPostings
from repro.storage.store import StoredDocument


class _QEntry:
    """One unprocessed path instance parked in Q (unswizzled)."""

    __slots__ = ("s_l", "n_l", "left_open", "s_r", "target", "resumed")

    def __init__(
        self,
        s_l: int,
        n_l: NodeID | None,
        left_open: bool,
        s_r: int,
        target: NodeID,
        resumed: bool,
    ) -> None:
        self.s_l = s_l
        self.n_l = n_l
        self.left_open = left_open
        self.s_r = s_r
        self.target = target
        self.resumed = resumed


class XSchedule(Operator):
    """The I/O-performing operator based on asynchronous I/O."""

    __slots__ = (
        "producer",
        "steps",
        "speculative",
        "synopsis",
        "postings",
        "k",
        "_q",
        "_qcount",
        "_seq",
        "_visited",
        "_parked",
        "_current",
        "_sidelined",
        "_dead_tries",
        "_dead_noted",
    )

    #: synchronous recovery rounds per cluster (each round is a full retry
    #: chain inside ``read_sync``) before the error is surfaced — results
    #: are never silently dropped
    MAX_DEAD_TRIES = 2

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        steps: list[CompiledStep],
        speculative: bool | None = None,
        document: StoredDocument | None = None,
        postings: PathPostings | None = None,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.steps = steps
        self.speculative = (
            ctx.options.speculative if speculative is None else speculative
        )
        self.synopsis = (
            document.synopsis
            if document is not None and ctx.options.synopsis
            else None
        )
        # postings refine the synopsis (transit residues live in its
        # rows), so the filter only engages when the synopsis does too
        self.postings = postings if self.synopsis is not None else None
        self.k = ctx.options.k_min_queue
        self._q: dict[int, list[tuple[int, int, _QEntry]]] = {}
        self._qcount = 0
        self._seq = 0
        self._visited: set[int] = set()
        self._parked: list[_QEntry] = []
        self._current: int | None = None
        #: clusters deprioritised after an SLO violation or I/O error;
        #: they are drained last, so one sick region cannot stall the rest
        self._sidelined: set[int] = set()
        self._dead_tries: dict[int, int] = {}
        #: pages already reported as "dead-page" — a page can fail on the
        #: async path *and* on each synchronous recovery round, but the
        #: degradation report must carry it once
        self._dead_noted: set[int] = set()

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    # ---------------------------------------------------------------- queue

    def add_from_assembly(
        self, s_l: int, n_l: NodeID | None, s_r: int, target: NodeID
    ) -> None:
        """XAssembly notification: a new inter-cluster edge to follow."""
        self._enqueue(_QEntry(s_l, n_l, False, s_r, target, resumed=True))

    def enter_fallback(self) -> None:
        """Fallback (Sec. 5.4.6): stop speculating, revive parked entries."""
        parked = self._parked
        self._parked = []
        for entry in parked:
            self._enqueue(entry)

    def _enqueue(self, entry: _QEntry) -> None:
        ctx = self.ctx
        cluster = page_of(entry.target)
        if (
            self.synopsis is not None
            and entry.resumed
            and not ctx.fallback
            and entry.s_r < len(self.steps)
            and not self.synopsis.can_extend(cluster, self.steps[entry.s_r])
        ):
            # the target cluster can neither hold a match for the resumed
            # step nor transit onward: dropping the request is lossless
            # (consulting the synopsis is planning metadata — free)
            ctx.stats.synopsis_entries_pruned += 1
            return
        if (
            self.postings is not None
            and entry.resumed
            and not ctx.fallback
            and entry.s_r < len(self.steps)
            and not self.postings.can_extend(self.synopsis, cluster, entry.s_r)
        ):
            # the synopsis alone could not refuse the request, but the
            # postings prove the target cluster holds no node of the
            # resumed step's path set and no transit residue onward
            ctx.stats.pathsummary_entries_pruned += 1
            return
        if (
            entry.resumed
            and self.speculative
            and not ctx.fallback
            and cluster in self._visited
        ):
            # the cluster's speculative instances already cover this entry
            self._parked.append(entry)
            return
        ctx.charge_queue_op()
        insort(self._q.setdefault(cluster, []), (entry.s_r, self._seq, entry))
        self._seq += 1
        self._qcount += 1
        if not ctx.buffer.is_resident(cluster):
            ctx.iosys.request(cluster)

    # -------------------------------------------------------------- pipeline

    def _produce(self) -> Iterator[PathInstance | EntryRun]:
        ctx = self.ctx
        exhausted = False
        while True:
            while not exhausted and self._qcount < self.k:
                y = self.producer.next()
                if y is None:
                    exhausted = True
                    break
                assert y.page_no is not None
                self._enqueue(
                    _QEntry(
                        y.s_l,
                        y.n_l,
                        y.left_open,
                        y.s_r,
                        make_nodeid(y.page_no, y.slot),
                        resumed=False,
                    )
                )
            if self._qcount == 0:
                if exhausted:
                    return
                continue
            cluster = self._current
            if cluster is None or cluster not in self._q:
                cluster = self._pick_cluster()
            entries = self._q[cluster]
            _, _, entry = entries.pop(0)
            if not entries:
                del self._q[cluster]
            self._qcount -= 1
            ctx.charge_queue_op()

            frame = ctx.buffer.try_fix_resident(cluster)
            if frame is None:
                # evicted (or never loaded) since scheduling: pay a
                # synchronous read
                try:
                    frame = ctx.buffer.fix(cluster)
                except IOError_ as exc:
                    self._on_unreadable(cluster, entry, exc)
                    continue
            ctx.set_current_frame(frame)
            if cluster != self._current:
                ctx.stats.clusters_visited += 1
            self._current = cluster

            first_visit = cluster not in self._visited
            self._visited.add(cluster)
            if first_visit and self.speculative and not ctx.fallback:
                verdicts = None
                if self.synopsis is not None:
                    verdicts = self.synopsis.scan_verdicts(
                        cluster, self.steps, self.postings
                    )
                for run in speculate(ctx, frame.page, self.steps, verdicts):
                    yield from run.feed(ctx)

            ctx.charge_instance()
            yield PathInstance(
                s_l=entry.s_l,
                n_l=entry.n_l,
                left_open=entry.left_open,
                s_r=entry.s_r,
                slot=slot_of(entry.target),
                is_border=entry.resumed,
                resumed=entry.resumed,
                page_no=cluster,
            )

    def _pick_cluster(self) -> int:
        """Next cluster to process: prefer buffered, else await I/O.

        Sidelined clusters are only chosen when nothing healthy is
        available — they still produce all their results, just last.
        """
        ctx = self.ctx
        sidelined_choice: int | None = None
        for cluster in self._q:
            if ctx.buffer.is_resident(cluster):
                if cluster not in self._sidelined:
                    return cluster
                if sidelined_choice is None:
                    sidelined_choice = cluster
        while True:
            try:
                page = ctx.iosys.get_completion()
            except IOError_ as exc:
                self._on_dead_page(exc)
                if sidelined_choice is not None:
                    return sidelined_choice
                continue
            if page is None:
                # nothing in flight (entries whose pages were resident at
                # enqueue time but have been evicted): fall back to any
                if sidelined_choice is not None:
                    return sidelined_choice
                return next(iter(self._q))
            ctx.buffer.admit_completed(page)
            self._check_slo(page)
            if page in self._q:
                if page not in self._sidelined:
                    return page
                # freshly sidelined: keep draining healthy clusters first
                if sidelined_choice is None:
                    sidelined_choice = page
            # completion for a cluster whose entries were already consumed
            # via buffer residency; keep the frame and wait on

    # ------------------------------------------------------- fault handling

    def _check_slo(self, page: int) -> None:
        """Sideline a cluster whose completion blew the latency SLO."""
        ctx = self.ctx
        slo = ctx.options.latency_slo
        if slo is None or ctx.iosys.last_latency <= slo:
            return
        ctx.stats.slo_violations += 1
        if page not in self._sidelined:
            self._sidelined.add(page)
            ctx.stats.sidelined_clusters += 1
            ctx.note_degradation(
                "latency-slo",
                page=page,
                detail=(
                    f"completion latency {ctx.iosys.last_latency:.6f}s "
                    f"exceeded SLO {slo:g}s"
                ),
            )

    def _on_dead_page(self, exc: IOError_) -> None:
        """An async read exhausted its retries: degrade, don't crash.

        The cluster's Q entries stay queued; they will be retried through
        the synchronous path (with its own bounded recovery rounds) when
        the cluster is eventually drained.
        """
        ctx = self.ctx
        page = getattr(exc, "page", None)
        if page is not None and page not in self._sidelined:
            self._sidelined.add(page)
            ctx.stats.sidelined_clusters += 1
        self._note_dead(page, str(exc))

    def _on_unreadable(self, cluster: int, entry: _QEntry, exc: IOError_) -> None:
        """A synchronous cluster read failed even after retries."""
        ctx = self.ctx
        tries = self._dead_tries.get(cluster, 0) + 1
        self._dead_tries[cluster] = tries
        if tries > self.MAX_DEAD_TRIES:
            # out of recovery options: surfacing the typed error beats
            # silently returning a result set with holes in it
            ctx.note_degradation(
                "data-loss",
                page=cluster,
                detail=f"cluster unreadable after {tries} recovery rounds",
            )
            raise exc
        self._note_dead(cluster, str(exc))
        self._current = None
        self._enqueue(entry)

    def _note_dead(self, page: int | None, detail: str) -> None:
        """Report a dead page exactly once, however many paths hit it.

        The same page can exhaust its async retries (``_on_dead_page``)
        and then fail again on one or more synchronous recovery rounds
        (``_on_unreadable``); without this dedup each round appended its
        own "dead-page" event to the degradation report.
        """
        ctx = self.ctx
        already = page is not None and page in self._dead_noted
        if page is not None:
            self._dead_noted.add(page)
        if not ctx.fallback:
            ctx.trip_fallback("dead-page", page=page, detail=detail)
        elif not already:
            ctx.note_degradation("dead-page", page=page, detail=detail)
