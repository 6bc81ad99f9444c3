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

With ``EvalOptions.speculative`` set (Sec. 5.4.4) the operator generates
left-incomplete path instances on the first visit of each cluster — the
same speculation as XScan — so a cluster never needs to be visited twice:
later crossings into a visited cluster are *parked* instead of enqueued,
because their continuation already sits in XAssembly's S.  (Parked
entries are re-enqueued if the plan trips into fallback mode, where S is
discarded.)

Whether a resumed entry may be pruned — the synopsis asked first, then
the path summary's postings — is one bit of a per-step cluster mask,
fetched once per execution off the synopsis's memo
(:meth:`~repro.storage.synopsis.ClusterSynopsis.refusals`), which lasts
as long as the synopsis does.  One pull is one :meth:`XSchedule.deliver`,
which hands Q's flat tuple on as it is: the path kernel calls it where
it would pull, and ``_produce`` yields its items unchanged for any
other consumer.  The pull that takes the next entry of the cluster this
operator holds is :meth:`XSchedule.take_in_place` plus its charges; the
kernel's replay of delivery tapes takes a held cluster's deliveries in
whole by doing the same in place (docs/algebra.md, "Delivery runs" and
"Delivery tapes").
"""

from __future__ import annotations

from bisect import insort
from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun
from repro.algebra.steps import CompiledStep
from repro.algebra.xscan import draw, speculation, speculation_id, step_refusals
from repro.errors import IOError_
from repro.storage.nodeid import SLOT_BITS, NodeID
from repro.storage.pathsummary import PathPostings
from repro.storage.store import StoredDocument


class XSchedule(Operator):
    """The I/O-performing operator based on asynchronous I/O."""

    __slots__ = (
        "producer",
        "steps",
        "speculative",
        "k",
        "exhausted",
        "_q",
        "_qcount",
        "_seq",
        "_visited",
        "_parked",
        "_contribute",
        "_key",
        "_extend",
        "_current",
        "_sidelined",
        "_dead_tries",
        "_dead_noted",
        "_runs",
        "_held",
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
        document: StoredDocument,
        postings: PathPostings,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.steps = steps
        self.speculative = ctx.options.speculative
        synopsis, _ = ctx.options.snapshots(document)
        #: the path's refusals of speculative / targeted resumes, fetched
        #: once per execution off the synopsis's memo; postings refine the
        #: synopsis (transit residues live in its rows), so a synopsis
        #: without rows refuses nothing, postings or not
        self._contribute, self._extend = step_refusals(synopsis, steps, postings)
        #: what a first visit's speculation is memoised under
        self._key = self.speculative and speculation_id(ctx.segment, steps, self._contribute)
        self.k = ctx.options.k_min_queue
        #: the producer has run dry: Q is never replenished again
        self.exhausted = False
        #: Q, per cluster in ``(s_r, seq)`` order: unprocessed instances
        #: as flat, unswizzled ``(s_r, seq, s_l, n_l, left_open, target,
        #: resumed)`` tuples (``seq`` numbers the inserts, so no two
        #: entries compare further than it)
        self._q: dict[int, list[tuple]] = {}
        self._qcount = 0
        self._seq = 0
        self._visited: set[int] = set()
        #: entries a speculative visit covers, as ``_enqueue``'s arguments
        self._parked: list[tuple] = []
        self._current: int | None = None
        #: clusters deprioritised after an SLO violation or I/O error;
        #: they are drained last, so one sick region cannot stall the rest
        self._sidelined: set[int] = set()
        self._dead_tries: dict[int, int] = {}
        #: pages already reported as "dead-page" — a page can fail on the
        #: async path *and* on each synchronous recovery round, but the
        #: degradation report must carry it once
        self._dead_noted: set[int] = set()
        #: the speculation over the cluster of a first visit
        #: (:meth:`take_run`)
        self._runs: Iterator[EntryRun] = iter(())
        #: the entry a first visit delivers once its runs are spent
        self._held: tuple | None = None

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    # ---------------------------------------------------------------- queue

    def enter_fallback(self) -> None:
        """Fallback (Sec. 5.4.6): stop speculating, revive parked entries."""
        parked = self._parked
        self._parked = []
        for entry in parked:
            self._enqueue(*entry)

    def _enqueue(
        self,
        s_r: int,
        s_l: int,
        n_l: NodeID | None,
        left_open: bool,
        target: NodeID,
        resumed: bool,
    ) -> None:
        """File one instance in Q (or drop or park it), unswizzled: a
        context, or a junction XAssembly proved (``resumed``).  A cluster
        neither buffered nor already requested is requested.
        ``XAssembly._deliveries`` files a proof whose cluster is buffered
        or requested in place — the refusals, the park and the sorted
        insert: keep the two in step."""
        ctx = self.ctx
        cluster = target >> SLOT_BITS
        if resumed and not ctx.fallback and s_r < len(self.steps):
            # one bit of a memoised mask; consulting the synopsis is
            # planning metadata — free
            refused = self._extend
            if refused[0][s_r] >> cluster & 1:
                # the target cluster can neither hold a match for the
                # resumed step nor transit onward: dropping the request
                # is lossless
                ctx.stats.synopsis_entries_pruned += 1
                return
            if refused[1][s_r] >> cluster & 1:
                # the synopsis alone could not refuse the request, but the
                # postings prove the target cluster holds no node of the
                # resumed step's path set and no transit residue onward
                ctx.stats.pathsummary_entries_pruned += 1
                return
        if resumed and self.speculative and not ctx.fallback and cluster in self._visited:
            # the cluster's speculative instances already cover this entry
            self._parked.append((s_r, s_l, n_l, left_open, target, resumed))
            return
        ctx.stats.queue_ops += 1
        seq = self._seq
        self._seq = seq + 1
        self._qcount += 1
        entry = (s_r, seq, s_l, n_l, left_open, target, resumed)
        entries = self._q.get(cluster)
        if entries is None:
            self._q[cluster] = [entry]
        elif entries[-1][0] <= s_r:  # sorts last: seq is the largest yet
            entries.append(entry)
        else:
            insort(entries, entry)
        if cluster not in ctx.buffer._frames and cluster not in ctx.iosys._requested:
            ctx.iosys.request(cluster)

    def take_in_place(self) -> tuple | None:
        """The entry the next pull would deliver with nothing in between,
        popped: the first of the pinned cluster's queue, unless the
        producer is due.  None: the next pull has to run.  Only valid
        between two pulls that delivered an entry (docs/algebra.md,
        "Delivery runs"); the caller charges what the pull would, as
        :meth:`deliver` does.  ``XAssembly._deliveries`` takes the entry
        off Q in place, the same test and pop: keep the two in step."""
        cluster = self._current
        if cluster is None or (self._qcount < self.k and not self.exhausted):
            return None
        entries = self._q.get(cluster)
        if entries is None:
            return None
        entry = entries.pop(0)
        if not entries:
            del self._q[cluster]
        self._qcount -= 1
        return entry

    def take_run(self) -> EntryRun | None:
        """The next entry run of a first visit's speculation, drawn as a
        pull would draw it — or None once the pull would go on to the
        visit's delivery.  Only valid right after an :class:`EntryRun`
        was handed on (docs/algebra.md, "Run tapes")."""
        return next(self._runs, None)

    # -------------------------------------------------------------- pipeline

    def deliver(self) -> tuple | EntryRun | None:
        """One pull's delivery: Q's next entry as its flat ``(s_r, seq,
        s_l, n_l, left_open, target, resumed)`` tuple, or None once Q is
        exhausted.  The pull replenishes Q from the producer when it is
        due, picks a cluster (the one it holds while that has entries),
        pops, charges the ``queue_op``, swizzles the cluster's page and
        drops the old pin, and charges the ``instance_op`` of the
        instance the entry stands for.  On a cluster's first visit under
        speculation the pull hands on the visit's entry runs first, one
        per pull (or :meth:`take_run`), and the entry after the last.
        The caller charges the pull's crossing."""
        ctx = self.ctx
        run = next(self._runs, None)
        if run is not None:
            return run
        entry = self._held
        if entry is not None:
            self._held = None
            ctx.charge_instance()
            return entry
        entry = self.take_in_place()
        if entry is not None:
            # the held cluster: its page swizzled again and the old pin
            # dropped, as one buffer call
            ctx.charge_queue_op()
            ctx.buffer.refix(ctx.current_frame)
            ctx.charge_instance()
            return entry
        while True:
            while not self.exhausted and self._qcount < self.k:
                nid = self.producer.next()
                if nid is None:
                    self.exhausted = True
                    break
                # a context: the trivial instance at it
                self._enqueue(0, 0, nid, False, nid, False)
            if self._qcount == 0:
                if self.exhausted:
                    return None
                continue
            cluster = self._current
            if cluster is None or cluster not in self._q:
                cluster = self._pick_cluster()
            entries = self._q[cluster]
            entry = entries.pop(0)
            if not entries:
                del self._q[cluster]
            self._qcount -= 1
            ctx.charge_queue_op()

            try:
                # a cluster evicted (or never loaded) since scheduling
                # pays a synchronous read, which may fail
                frame = ctx.buffer.probe_fix(cluster)
            except IOError_ as exc:
                self._on_unreadable(cluster, entry, exc)
                continue
            ctx.set_current_frame(frame)
            if cluster != self._current:
                ctx.stats.clusters_visited += 1
            self._current = cluster

            if cluster not in self._visited:
                self._visited.add(cluster)
                if self.speculative and not ctx.fallback:
                    view = frame.page.colview()
                    memo = speculation(view, self._key, self.steps, self._contribute)
                    self._runs = draw(ctx, memo, stop=False)  # a trip does not stop it
                    run = next(self._runs, None)
                    if run is not None:
                        self._held = entry
                        return run
            ctx.charge_instance()
            return entry

    def _produce(self) -> Iterator[tuple | EntryRun]:
        """:meth:`deliver`'s items, unchanged."""
        while (item := self.deliver()) is not None:
            yield item

    def _pick_cluster(self) -> int:
        """Next cluster to process: prefer buffered, else await I/O.

        Sidelined clusters are only chosen when nothing healthy is
        available — they still produce all their results, just last.
        """
        ctx = self.ctx
        sidelined_choice: int | None = None
        frames = ctx.buffer._frames
        for cluster in self._q:
            if cluster in frames:
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

    def _on_unreadable(self, cluster: int, entry: tuple, exc: IOError_) -> None:
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
        s_r, _, s_l, n_l, left_open, target, resumed = entry
        self._enqueue(s_r, s_l, n_l, left_open, target, resumed)

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
