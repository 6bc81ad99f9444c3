"""XAssembly: result filtering, dedup, and speculative merging.

Implements both the restricted XAssembly^R (paper Sec. 5.3.3) and the
general XAssembly (Sec. 5.4.5): the general behaviour degenerates to the
restricted one when no left-incomplete instances arrive.

Execution state (paper's terms):

* ``R`` — set of *reachable right ends*: keys ``(step, NodeID)``.  For a
  paused crossing the NodeID is the junction (the entry border record on
  the target side, i.e. ``target(N_R)``); for a full result it is the
  result node itself — which is how final duplicates are eliminated for
  free.
* ``S`` — left-incomplete (speculative) instances, keyed by their left
  junction ``(S_L, N_L)``, waiting for that junction to become reachable.

When a key enters R, all S-instances parked under it activate, possibly
cascading (a speculative fragment can end at yet another border).  With
an XSchedule input, proving a junction also enqueues a visit of the
junction's cluster; with an XScan input the scan visits every cluster
anyway, so no notification is needed (``schedule is None``).

The ``//``-prefix optimisation (Sec. 5.4.5.4) treats every key of step 1
as present in R without storing it; it is only sound when all clusters
are guaranteed to be visited (an XScan input) *and* the second step is
not a sibling axis — sibling steps enter plain up-borders as candidate
crossings whose junctions are not implied by the ``//`` prefix (the
compiler disables the flag in that case).

If ``|S|`` exceeds the memory limit, the plan trips into *fallback mode*
(Sec. 5.4.6): S is discarded, arriving left-incomplete instances are
dropped (the complete re-evaluation regenerates their results), and only
R survives as the duplicate filter.
"""

from __future__ import annotations

from array import array
from bisect import insort
from collections import deque
from typing import Generator, Iterator, NamedTuple, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step
from repro.algebra.pathinstance import EntryRun
from repro.algebra.steps import CompiledStep
from repro.errors import PlanError
from repro.storage.nodeid import SLOT_BITS, NodeID, make_nodeid, page_of, slot_of
from repro.storage.store import StoredDocument


#: An S-resident instance, right end normalized to NodeIDs:
#: ``(s_r, right, incomplete)`` — ``right`` is the junction NodeID of an
#: incomplete instance, the result node's NodeID of a complete one.
_Stored = tuple[int, NodeID, bool]


def pinned_page(ctx: EvalContext, step_index: int, page_no: int):
    """The current cluster's page; the instance a level starts from, on
    ``page_no``, must live on it."""
    frame = ctx.current_frame
    if frame is None or page_no != frame.page.page_no:
        raise PlanError(
            f"XStep {step_index}: instance references page {page_no}, "
            f"current cluster is "
            f"{frame.page.page_no if frame else None}"
        )
    return frame.page


class RunTape(NamedTuple):
    """What the kernel's walk of one entry run comes to (:func:`build_tape`)."""

    #: the path-id table (:attr:`StoredDocument.path_ids`) that numbered
    #: the path; not the document, which lists its pages, so that no page
    #: is on a reference cycle with it
    owner: dict
    steps: Sequence[CompiledStep]  #: the path, and
    index: int  #: the run's step: what the tape was built for
    #: the run's ``(hops, tests, events, crossings, deferred, entries)``:
    #: what the walk charges as ``intra_hop``, ``node_test``,
    #: ``instance_op`` (events and entries) and ``iterator_call``
    totals: tuple[int, int, int, int, int, int]
    parked: int  #: outcomes in all: what the run can add to S
    #: for the entries that reach the top only, ``(left key, outcomes,
    #: ordinal, marks)``: the tuple of ``(s_r, right, paused)`` S may
    #: come to share, the entry's position in the run and, five per
    #: outcome, the first five totals as they stand at its intake
    walked: tuple


class DeliveryTape(NamedTuple):
    """What the kernel's walk from one of XSchedule's Q entries comes to
    (:func:`build_tape` given ``start``)."""

    #: ``(s_r, right, paused)`` of every instance that reaches the top
    outcomes: tuple
    #: five per outcome, ``(hops, tests, events, crossings, deferred)``
    #: as they stand at its intake, then the same five for the whole walk
    marks: array


class DeliveryTapes(dict):
    """A view's delivery tapes of one (path, step), by ``slot << 1 |
    resumed`` of the entry each starts at; kept under one key of
    ``ColumnView.tapes``."""

    __slots__ = ("owner", "steps", "index")

    def __init__(self, owner, steps: Sequence[CompiledStep], index: int) -> None:
        super().__init__()
        self.owner = owner  #: the path-id table that numbered the path
        self.steps = steps
        self.index = index  #: the entries' ``s_r``


def build_tape(
    owner, view, records: list, steps: Sequence[CompiledStep], index: int, start: int | None = None
) -> RunTape | DeliveryTape:
    """The *run tape* of one (cluster, path, step): a charge-free
    transcription of the walk :meth:`XAssembly._produce` makes, level by
    level, over the entry run of step ``index`` on the cluster ``view``
    mirrors (``records`` are its page's, read for the junctions).  A
    function of the page's records alone; docs/algebra.md, "Run tapes".

    Given ``start`` (``slot << 1 | resumed``), the *delivery tape* of the
    one Q entry with ``s_r == index`` at ``slot`` instead: the same walk
    from that one instance.  Its extensions go into the view's step
    memos, as the walk it replaces would put them; a run tape only reads
    them (docs/algebra.md, "Delivery tapes").
    """
    n = len(steps)
    base = view.page_no << SLOT_BITS
    hops = tests = events = calls = deferred = parked = 0
    walked = []
    memo: dict = {}  # an inner extension is started once per match above it
    first = steps[index]
    if start is None:
        # what navigating plans have memoised on the view is read, not
        # added to: the tape replaces the extensions of the walk it
        # transcribes
        known = [view.known_extensions(step.memo_key) for step in steps]
        starts = [slot << 1 | 1 for slot in view.entry_slots(first.axis)]
    else:
        known = [view.step_memo(step.memo_key) for step in steps]
        starts = (start,)
    outcomes: list[_Stored] = []
    marks = array("q")
    stack: list = []  # empty again whenever an entry is spent
    for ordinal, begin in enumerate(starts, start=1):
        calls += ordinal > 1  # the pull of the I/O operator replayed per entry
        top = index + 1
        batch = known[index].get(begin)
        if batch is None:
            batch = view.extension(first.match_batch, begin >> 1, first.axis, begin & 1)
            if start is not None:
                known[index][begin] = batch
        while True:
            if batch is not None:
                # level `top` starts extending the entry, or a match
                upfront, _, ev_slots, ev_hops, ev_tests, tail = batch
                hops += upfront
                it = zip(ev_slots, ev_hops, ev_tests)
                batch = None
            for slot, ev_hop, ev_test in it:
                hops += ev_hop
                tests += ev_test
                events += 1
                if slot < 0:
                    deferred += 1
                    outcomes.append((top - 1, records[~slot].target(), True))
                elif top == n:
                    outcomes.append((n, base | slot, False))
                else:
                    stack.append((it, tail))
                    top += 1
                    key = top << SLOT_BITS | slot
                    batch = memo.get(key)
                    if batch is None:
                        extensions = known[top - 1]
                        batch = extensions.get(slot << 1)
                        if batch is None:
                            step = steps[top - 1]
                            batch = view.extension(step.match_batch, slot, step.axis, False)
                            if start is not None:
                                extensions[slot << 1] = batch
                        memo[key] = batch
                    break
                marks.extend((hops, tests, events, calls, deferred))
                calls += n - top + 1  # the next pull crosses levels n..top
            else:
                hops += tail[0]
                tests += tail[1]
                if not stack:
                    calls += index  # through every idle level to the I/O operator
                    break
                it, tail = stack.pop()
                top -= 1
                calls += 1
        if start is not None:
            marks.extend((hops, tests, events, calls, deferred))
            return DeliveryTape(tuple(outcomes), marks)
        if outcomes:
            parked += len(outcomes)
            walked.append(((index, base | begin >> 1), tuple(outcomes), ordinal, marks))
            outcomes, marks = [], array("q")
    totals = (hops, tests, events, calls, deferred, len(starts))
    return RunTape(owner, steps, index, totals, parked, tuple(walked))


class XAssembly(Operator):
    """Topmost operator of a cost-sensitive path plan."""

    __slots__ = (
        "producer",
        "path_len",
        "schedule",
        "descendant_root_opt",
        "steps",
        "owner",
        "_path",
        "_r",
        "_s",
        "_s_size",
        "_ready",
    )

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        path_len: int,
        document: StoredDocument,
        schedule=None,
        descendant_root_opt: bool = False,
        steps: Sequence[CompiledStep] = (),
    ) -> None:
        super().__init__(ctx)
        if any(step.predicates for step in steps):
            raise PlanError("the path kernel does not evaluate nested predicates")
        self.producer = producer
        #: the location steps the kernel runs over the I/O operator
        #: ``producer``, one XStep level each
        self.steps = steps
        #: the path-id table of the document the path runs over and the
        #: integer it knows the path by: what run and delivery tapes are
        #: kept under
        self.owner = document.path_ids
        self._path = document.path_id(steps)
        self.path_len = path_len
        #: the associated XSchedule, or None when the input is an XScan
        self.schedule = schedule
        #: step-1 keys are implicitly reachable (``//`` prefix + scan input)
        self.descendant_root_opt = descendant_root_opt and path_len > 1
        self._r: set[tuple[int, NodeID]] = set()
        #: an entry taken in from a run tape is the tape's own tuple: an
        #: S entry is grown by replacing it, never in place
        self._s: dict[tuple[int, NodeID | None], Sequence[_Stored]] = {}
        self._s_size = 0
        self._ready: deque[_Stored] = deque()

    def open(self) -> None:
        self.producer.open()
        # lower operators (XSchedule giving up on a dead page) trip
        # fallback through the context; this hook discards S for them
        self.ctx.fallback_hooks.append(self._on_fallback_trip)
        super().open()

    def close(self) -> None:
        super().close()
        try:
            self.ctx.fallback_hooks.remove(self._on_fallback_trip)
        except ValueError:
            pass
        self.producer.close()

    # -------------------------------------------------------------- pipeline

    def _produce(self) -> Iterator[NodeID]:
        """The path kernel: the XStep chain and this operator's intake, fused.

        One generator runs every step over the pinned page's
        :class:`~repro.storage.colview.ColumnView` and files what reaches
        the top into R/S.  It charges the schedule docs/algebra.md
        specifies ("The path kernel's charges": one XStep operator per
        step, each pulled through ``Operator.next``) without visiting
        every candidate: an extension is walked event by event — a match
        or a border, with the hops and node tests of the candidates
        skipped since the previous one counted in one addition — and a
        pull first adds the ``iterator_call`` of every level it crosses.
        ``top`` is the highest step holding an extension, the suspended
        ones below it sit on ``stack``.  Every charge is booked on
        ``Stats`` where it is counted, so the clock, which prices the
        counters, is current wherever anything reads it (docs/algebra.md,
        "Flush points").  Neither an :class:`EntryRun` nor one of
        XSchedule's Q entries is walked at all when nothing can read the
        clock inside it: each is taken in from its memoised tape
        (:meth:`_replay`, :meth:`_deliveries`), and this loop stays the
        reference both kinds of tape transcribe.  A result leaves as its
        NodeID.
        """
        ctx = self.ctx
        steps = self.steps
        n = len(steps)
        clock = ctx.clock
        stats = ctx.stats
        tracer = ctx.tracer
        limit = ctx.options.memory_limit
        path_len = self.path_len
        r = self._r
        s = self._s
        ready = self._ready
        droot = self.descendant_root_opt
        # XSchedule is pulled by its deliver(), which hands Q's tuple on
        # as it is; any other producer through Operator.__iter__, which
        # charges its own crossing per pull
        schedule = self.schedule if self.producer is self.schedule else None
        source = iter(self.producer) if schedule is None else None
        # deliveries may come off their tapes (_deliveries); what else
        # keeps them on the walk is checked per pull
        taping = schedule is not None and tracer is None
        stack: list = []
        top = 0
        it = tail = page = p = entries = None
        starting = False
        d_calls = d_out = d_replayed = 0  # the tracer's XStep and I/O operator roll-ups
        t0 = clock.now
        try:
            while True:
                result = None
                if ready:
                    result = self._activate(ready.popleft())
                else:
                    # the pull crosses levels n..top: the idle ones and the one it resumes
                    calls = n - top + 1 if top else n
                    while True:
                        if calls:
                            d_calls += calls
                            if ctx._budget is None:
                                stats.iterator_calls += calls
                            else:  # checked after every single crossing
                                for _ in range(calls):
                                    ctx.charge_call()
                            calls = 0
                        if top == 0 and entries is not None:
                            # inside an entry run: the I/O operator is
                            # pulled once more per entry
                            slot = next(entries, None)
                            if slot is None:
                                entries = None
                            else:
                                d_replayed += 1
                                ctx.charge_call()
                        if top == 0 and entries is None:
                            if schedule is None:
                                p = next(source, None)
                            else:
                                # what Operator.next does around the pull
                                ctx.charge_call()
                                p = schedule.deliver()
                                if tracer is not None:
                                    schedule._trace_out += p is not None
                                    tracer.op_call(type(schedule).__name__, p is not None)
                            if p is None:
                                return
                            if type(p) is EntryRun:
                                tape = self._tape(p)
                                if tape is not None:
                                    # the cluster's runs, this one and those
                                    # taken in place after it; one that
                                    # cannot come off a tape is handed back
                                    p = yield from self._replay(tape, p)
                                    if p is None:
                                        continue
                                # every entry border of one (cluster, step): as
                                # many left-open instances resuming step s_l + 1
                                entries = iter(p.slots)
                                slot = next(entries)
                                s_l = p.step
                                left_open = True
                                implied = droot and s_l == 1
                                page_no = p.page_no
                                page_base = page_no << SLOT_BITS
                            else:
                                # one of Q's entries, or a context: Q's tuple
                                if taping and ctx._budget is None and not ctx.fallback:
                                    # the held cluster's deliveries, this one
                                    # and those taken in place after it; one
                                    # that cannot come off a tape is handed back
                                    p = yield from self._deliveries(p)
                                    if p is None:
                                        continue
                                s_r, _, s_l, n_l, left_open, target, resumed = p
                                page_no = page_of(target)
                                slot = slot_of(target)
                                paused = resumed  # a proved crossing
                                left_key = (s_l, n_l)
                                implied = droot and s_l == 1
                                if s_r >= n:
                                    # no level applies: all n hand it up as it is
                                    d_out += n
                                    if paused:
                                        right = ctx.segment.page(page_no).record(slot).target()
                                    elif left_open or s_r == path_len:
                                        right = make_nodeid(page_no, slot)
                                    else:
                                        raise PlanError(
                                            f"XAssembly received a complete non-full instance (s_r={s_r})"
                                        )
                                    break
                                top = s_r + 1
                                d_out += s_r
                                starting = True
                        if top == 0:
                            # the run's next entry, in place: what XScan charges
                            # for the instance it stands for, and no instance
                            stats.instances_created += 1
                            stats.speculative_instances += 1
                            n_l = page_base | slot
                            left_key = (s_l, n_l)
                            top = s_l + 1
                            d_out += s_l
                            resumed = starting = True
                        if starting:
                            # level `top` starts extending p, or the match at `slot`
                            starting = False
                            step = steps[top - 1]
                            if ctx.fallback:
                                # a fallback level (Sec. 5.4.6): an Unnest-Map's
                                # walk from the right end; the left end stays
                                # in the locals
                                it = full_step(
                                    ctx, step, page_no, slot, resumed=resumed, instances=True
                                )
                                tail = None
                            else:
                                if p is not None and pinned_page(ctx, top, page_no) is not page:
                                    # fresh from the I/O operator, on a new cluster
                                    page = ctx.current_frame.page
                                    view = page.colview()
                                    records = page.records
                                    page_no = page.page_no
                                    page_base = page_no << SLOT_BITS
                                    memos = [None] * n
                                memo = memos[top - 1]
                                if memo is None:
                                    memo = memos[top - 1] = view.step_memo(step.memo_key)
                                batch = memo.get(slot << 1 | resumed)
                                if batch is None:
                                    batch = memo[slot << 1 | resumed] = view.extension(
                                        step.match_batch, slot, step.axis, resumed
                                    )
                                upfront, size, ev_slots, ev_hops, ev_tests, tail = batch
                                if tracer is not None and size:
                                    span = {"step": top, "batch_size": size}
                                    tracer.event(
                                        clock.now, "op", "xstep-batch", page=page_no, args=span
                                    )
                                stats.intra_hops += upfront
                                it = zip(ev_slots, ev_hops, ev_tests)
                            p = None
                        if tail is None:
                            # a fallback level: its next match, pinned
                            match = next(it, None)
                            if match is not None:
                                d_out += 1
                                if top < n:
                                    # the next level, a fallback level too,
                                    # extends the match
                                    stack.append((it, tail))
                                    top += 1
                                    it = full_step(ctx, steps[top - 1], *match, instances=True)
                                    continue
                                s_r = n
                                right = make_nodeid(*match)
                                paused = False
                                break
                            it = ()  # spent: pop below
                            tail = (0, 0)
                        for slot, hops, tests in it:
                            # the next event of level `top`, and every
                            # candidate skipped on the way to it
                            stats.intra_hops += hops
                            stats.node_tests += tests
                            stats.instances_created += 1
                            if slot < 0:
                                # a border pauses the instance here: the
                                # levels above hand it up as it is
                                stats.border_crossings_deferred += 1
                                d_out += n - top + 1
                                s_r = top - 1
                                right = records[~slot].target()
                                paused = True
                            elif top == n:
                                d_out += 1
                                s_r = n
                                right = page_base | slot
                                paused = False
                            else:
                                # the next level extends the match in
                                # place: no instance object, no crossing
                                d_out += 1
                                stack.append((it, tail))
                                top += 1
                                resumed = False
                                starting = True
                            break
                        else:
                            # level `top` is spent: what follows its last event is
                            # charged, and the pull goes on to the level below, or
                            # through every idle one to the I/O operator
                            hops, tests = tail
                            stats.intra_hops += hops
                            stats.node_tests += tests
                            if stack:
                                it, tail = stack.pop()
                                top -= 1
                                calls = 1
                            else:
                                calls = top - 1
                                top = 0
                            continue
                        if not starting:
                            break
                    # intake (Sec. 5.4.5): an instance ending at (s_r, right) reached the top
                    if not left_open:
                        if paused:
                            self._prove(s_r, right, s_l, n_l)
                        else:
                            # a full path: its R probe is the duplicate filter
                            stats.set_ops += 1
                            key = (path_len, right)
                            if key in r:
                                stats.duplicates_suppressed += 1
                            else:
                                r.add(key)
                                result = right
                    elif not ctx.fallback:  # (whose re-evaluation covers all speculation)
                        stats.set_ops += 1
                        if implied or left_key in r:
                            stats.merges += 1
                            result = self._activate((s_r, right, paused))
                        else:
                            stats.set_ops += 1
                            parked = s.get(left_key)
                            if type(parked) is list:
                                parked.append((s_r, right, paused))
                            else:  # none yet, or a tape's own tuple
                                s[left_key] = [*(parked or ()), (s_r, right, paused)]
                            self._s_size += 1
                            if limit is not None and self._s_size > limit:
                                self._enter_fallback()
                if result is not None:
                    # the result tuple leaves as its NodeID, its instance_op charged
                    stats.instances_created += 1
                    yield result
        finally:
            if tracer is not None and n:
                tracer.op_call("XStep", d_out, d_calls)
                tracer.op_span("XStep", t0, clock.now, d_out)
                # the crossings replayed inside runs are the I/O operator's
                self.producer._trace_out += d_replayed
                tracer.op_call(type(self.producer).__name__, d_replayed, d_replayed)

    def _tape(self, run: EntryRun) -> RunTape | None:
        """The tape to take ``run``, the first run of a cluster, in from
        — or None: the cluster's runs are walked level by level.  That is
        the case whenever something could observe the clock between two
        outcomes: a tracer, an armed budget, fallback mode.  These hold
        for a whole cluster (:meth:`_replay` takes its later runs in
        place); the run's own conditions are :meth:`_kept`'s."""
        ctx = self.ctx
        frame = ctx.current_frame
        if (
            ctx.tracer is not None
            or ctx._budget is not None
            or ctx.fallback
            or frame is None
            or frame.page.page_no != run.page_no
        ):
            return None
        page = frame.page
        return self._kept(page.colview(), page.records, run)

    def _kept(self, view, records: list, run: EntryRun) -> RunTape | None:
        """The tape of the pinned cluster's ``run``, cached on the run and
        memoised on its ``view`` — or None: the run is walked level by
        level.  That is the case when a ``memory_limit`` S may not have
        room under for the whole run, and when building the tape raises (a
        corrupt page): the walk then trips or raises where it stands, and
        nothing is memoised."""
        tape = run.tape
        if tape is None or tape.owner is not self.owner:
            # (path ids are per document, and an update can leave two
            # documents sharing a page)
            key = (self._path, run.step)
            tape = view.tapes.get(key)
            if tape is None or tape.owner is not self.owner:
                try:
                    tape = build_tape(self.owner, view, records, self.steps, run.step)
                except Exception:  # whatever it is, the walk raises it again
                    return None
                view.keep_tape(key, tape)
            run.tape = tape
        limit = self.ctx.options.memory_limit
        if limit is not None and self._s_size + tape.parked > limit:
            return None
        return tape

    def _replay(self, tape: RunTape, run: EntryRun) -> Generator[NodeID, None, EntryRun | None]:
        """Take in a cluster's entry runs from their tapes (:func:`build_tape`):
        ``run``, whose tape is ``tape``, then every further run the
        producer hands over in place (``take_run``).

        An entry whose left junction is not in R waits in S as the
        tape's own outcome tuple: two ``set_op`` per outcome, as the
        walk charges.  An entry that is reachable (or implied by the
        ``//`` prefix) has its outcomes activated one by one in place
        (:meth:`_activate`, :meth:`_prove`, :meth:`_final`), what a proof
        releases from S drained through ``_ready`` before the next.  A
        run taken in place owes the crossing of the pull it replaces: one
        ``iterator_call``.  All of it stays in locals until the clock can
        be read (docs/algebra.md, "Flush points"): up to an outcome's
        marks before a yield or a proof whose enqueue submits a read (the
        tests :meth:`XSchedule._enqueue` makes), and once the cluster's
        runs are spent or one cannot come off a tape: that run is
        returned, for :meth:`_produce` to walk.  A run taken in place
        brings its tape along; only under ``memory_limit``, or for a run
        without one for this document, does it ask :meth:`_kept`.
        """
        ctx = self.ctx
        r = self._r
        s = self._s
        ready = self._ready
        stats = ctx.stats
        droot = self.descendant_root_opt
        path_len = self.path_len
        schedule = self.schedule  # a proof files a visit
        frames = ctx.buffer._frames
        requested = ctx.iosys._requested
        take = self.producer.take_run
        limit = ctx.options.memory_limit
        page = ctx.current_frame.page
        view = page.colview()
        records = page.records
        # counted and not yet on Stats: the totals of the runs before the
        # one being taken in, less what was posted at its marks, and the
        # activations' charges since the last post
        hops = tests = events = calls = deferred = entries = sets = merges = dups = 0
        while True:
            implied = droot and run.step == 1
            for left, outcomes, ordinal, marks in tape.walked:
                if not implied and left not in r:
                    parked = s.get(left)
                    s[left] = outcomes if parked is None else [*parked, *outcomes]
                    self._s_size += len(outcomes)
                    sets += 2 * len(outcomes)
                    continue
                for i, (s_r, right, paused) in enumerate(outcomes):
                    sets += 1  # the R probe that hit
                    merges += 1
                    while True:
                        # the activation: a proof's or a full path's R probe
                        sets += 1
                        key = (s_r, right) if paused else (path_len, right)
                        if key in r or (paused and droot and s_r == 1):
                            dups += 1
                        else:
                            r.add(key)
                            if not paused or (
                                schedule is not None
                                and right >> SLOT_BITS not in frames
                                and right >> SLOT_BITS not in requested
                            ):
                                # a yield, or a read the proof's enqueue
                                # submits: the walk's counters at this
                                # outcome's intake (a second post adds none)
                                h, t, e, c, d = marks[5 * i : 5 * i + 5]
                                stats.intra_hops += hops + h
                                stats.node_tests += tests + t
                                stats.instances_created += events + e + entries + ordinal
                                stats.speculative_instances += entries + ordinal
                                stats.border_crossings_deferred += deferred + d
                                stats.iterator_calls += calls + c
                                stats.set_ops += sets
                                stats.merges += merges
                                stats.duplicates_suppressed += dups
                                hops, tests, events, calls, deferred = -h, -t, -e, -c, -d
                                entries, sets, merges, dups = -ordinal, 0, 0, 0
                            if not paused:
                                ctx.charge_instance()  # the result tuple's
                                yield right
                            else:
                                if schedule is not None:
                                    schedule._enqueue(s_r, 0, None, False, right, True)
                                if s and key in s:
                                    # the cascade: what S holds under the key
                                    pending = s.pop(key)
                                    merges += len(pending)
                                    self._s_size -= len(pending)
                                    ready.extend(pending)
                        if not ready:
                            break
                        s_r, right, paused = ready.popleft()
            h, t, e, c, d, n = tape.totals
            hops += h
            tests += t
            events += e
            calls += c
            deferred += d
            entries += n
            run = take()
            if run is None:
                break
            calls += 1  # the crossing of the pull it replaces
            tape = run.tape
            if tape is None or tape.owner is not self.owner or limit is not None:
                tape = self._kept(view, records, run)
                if tape is None:
                    break
        stats.intra_hops += hops
        stats.node_tests += tests
        stats.instances_created += events + entries
        stats.speculative_instances += entries
        stats.border_crossings_deferred += deferred
        stats.iterator_calls += calls
        stats.set_ops += sets
        stats.merges += merges
        stats.duplicates_suppressed += dups
        return run

    def _book(self, view, step: int) -> DeliveryTapes:
        """The delivery tapes ``view`` keeps of this path's Q entries with
        ``s_r == step`` — a fresh book when it keeps none for this
        document."""
        key = (self._path, step, "delivered")  # beside the run tape's (path, step)
        book = view.tapes.get(key)
        if book is None or book.owner is not self.owner:
            # (path ids are per document, and an update can leave two
            # documents sharing a page)
            book = DeliveryTapes(self.owner, self.steps, step)
            view.keep_tape(key, book)
        return book

    def _deliveries(self, entry: tuple) -> Generator[NodeID, None, tuple | None]:
        """Take in the held cluster's deliveries from their tapes
        (:func:`build_tape` given ``start``): ``entry``, which a pull
        delivered, then every entry the next pull would deliver with
        nothing in between, taken off XSchedule's Q in place.

        Q's entries are left-complete, so what they produce never enters
        S: an outcome is a paused crossing or a full path, whose R probe
        (one ``set_op``) either drops it as a duplicate or admits a
        result.  A proof that can submit no read and releases nothing —
        its target cluster buffered or requested, its key not in S — is
        :meth:`_prove` and :meth:`XSchedule._enqueue` in place; any other
        calls :meth:`_prove`, and ``_ready`` is drained after it, as
        between two pulls.  An entry taken in place (the test and pop of
        :meth:`XSchedule.take_in_place`) owes what the pull it replaces
        charges: its crossing, the ``queue_op``, what
        :meth:`BufferManager.refix` books and the ``instance_op``.  All of
        it stays in locals until the clock can be read (docs/algebra.md,
        "Flush points"): up to an outcome's marks before it is yielded or
        proved through :meth:`_prove`, and once the deliveries are spent
        or one cannot come off a tape (a corrupt page): that entry, its
        pull charged, is returned for :meth:`_produce` to walk.
        """
        ctx = self.ctx
        stats = ctx.stats
        r = self._r
        s = self._s
        ready = self._ready
        steps = self.steps
        n = len(steps)
        path_len = self.path_len
        droot = self.descendant_root_opt
        schedule = self.schedule
        q = schedule._q
        held = schedule._current
        k = schedule.k
        exhausted = schedule.exhausted
        visited = schedule._visited if schedule.speculative else ()
        by_synopsis, by_postings = schedule._extend
        frames = ctx.buffer._frames
        requested = ctx.iosys._requested
        page = ctx.current_frame.page
        view = page.colview()
        records = page.records
        slot_mask = (1 << SLOT_BITS) - 1
        books: list = [None] * n
        # counted and not yet on Stats: the cluster's totals before the
        # entry being taken in, less what was posted at its marks, and the
        # charges of the takes and proofs made in place since the last post
        hops = tests = instances = calls = deferred = sets = dups = queues = takes = 0
        while True:
            s_r, _, s_l, n_l, left_open, target, resumed = entry
            if left_open or s_r >= n:
                break
            book = books[s_r]
            if book is None:
                book = books[s_r] = self._book(view, s_r)
            start = (target & slot_mask) << 1 | resumed
            tape = book.get(start)
            if tape is None:
                try:
                    tape = build_tape(self.owner, view, records, steps, s_r, start)
                except Exception:  # whatever it is, the walk raises it again
                    break
                book[start] = tape
            outcomes, marks = tape
            for i, (reached, right, paused) in enumerate(outcomes):
                if not paused:
                    # a full path: its R probe is the duplicate filter
                    sets += 1
                    key = (path_len, right)
                    if key in r:
                        dups += 1
                        continue
                    r.add(key)
                else:
                    key = (reached, right)
                    cluster = right >> SLOT_BITS
                    if (cluster in frames or cluster in requested) and not (s and key in s):
                        # a proof that submits no read and releases nothing
                        sets += 1
                        if key in r or (droot and reached == 1):
                            dups += 1
                        else:
                            r.add(key)
                            if by_synopsis[reached] >> cluster & 1:
                                stats.synopsis_entries_pruned += 1
                            elif by_postings[reached] >> cluster & 1:
                                stats.pathsummary_entries_pruned += 1
                            elif cluster in visited:
                                schedule._parked.append((reached, s_l, n_l, False, right, True))
                            else:
                                queues += 1
                                seq = schedule._seq
                                schedule._seq = seq + 1
                                schedule._qcount += 1
                                filed = (reached, seq, s_l, n_l, False, right, True)
                                entries = q.get(cluster)
                                if entries is None:
                                    q[cluster] = [filed]
                                elif entries[-1][0] <= reached:
                                    entries.append(filed)
                                else:
                                    insort(entries, filed)
                        continue
                # the walk's counters at this outcome's intake
                h, t, e, c, d = marks[5 * i : 5 * i + 5]
                stats.intra_hops += hops + h
                stats.node_tests += tests + t
                stats.instances_created += instances + e
                stats.iterator_calls += calls + c
                stats.border_crossings_deferred += deferred + d
                stats.set_ops += sets
                stats.queue_ops += queues
                stats.duplicates_suppressed += dups
                if takes:  # refix's, and its LRU touch
                    stats.swizzles += takes
                    stats.buffer_hits += takes
                    stats.unswizzles += takes
                    frames[held] = frames.pop(held)
                hops, tests, instances, calls, deferred = -h, -t, -e, -c, -d
                sets = dups = queues = takes = 0
                if not paused:
                    stats.instances_created += 1  # the result tuple's
                    yield right
                    continue
                self._prove(reached, right, s_l, n_l)
                while ready:
                    result = self._activate(ready.popleft())
                    if result is not None:
                        ctx.charge_instance()
                        yield result
            # the rest of the entry's walk: its totals
            h, t, e, c, d = marks[-5:]
            hops += h
            tests += t
            instances += e
            calls += c
            deferred += d
            # the pull's delivery, unless the producer is due: the held
            # cluster's next entry
            entries = q.get(held) if exhausted or schedule._qcount >= k else None
            if entries is None:
                entry = None
                break
            entry = entries.pop(0)
            if not entries:
                del q[held]
            schedule._qcount -= 1
            # the pull it replaces: its crossing and the instance it hands
            # on, the queue_op, the swizzle of a hit and the unswizzle
            calls += 1
            instances += 1
            queues += 1
            takes += 1
        stats.intra_hops += hops
        stats.node_tests += tests
        stats.instances_created += instances
        stats.iterator_calls += calls
        stats.border_crossings_deferred += deferred
        stats.set_ops += sets
        stats.queue_ops += queues
        stats.duplicates_suppressed += dups
        if takes:
            stats.swizzles += takes
            stats.buffer_hits += takes
            stats.unswizzles += takes
            frames[held] = frames.pop(held)
        return entry

    # ------------------------------------------------------------ activation

    def _activate(self, stored: _Stored) -> NodeID | None:
        """Process an instance whose left end is known reachable.

        :meth:`_replay` activates in place, and its intake and S cascade
        must stay in step with this, :meth:`_prove` and :meth:`_final`."""
        s_r, right, incomplete = stored
        if incomplete:
            self._prove(s_r, right, 0, None)
            return None
        if s_r == self.path_len:
            return self._final(right)
        raise PlanError(
            f"complete non-full instance in S (s_r={s_r}, len={self.path_len})"
        )

    def _final(self, nid: NodeID) -> NodeID | None:
        """Deduplicate a full path's result node through R (one
        ``set_op``, charged here): the node, or None for a duplicate.
        In place in :meth:`_replay` and :meth:`_deliveries` (a full path's
        R probe): keep them in step."""
        ctx = self.ctx
        ctx.stats.set_ops += 1
        key = (self.path_len, nid)
        if key in self._r:
            ctx.stats.duplicates_suppressed += 1
            return None
        self._r.add(key)
        return nid

    def _prove(self, step: int, junction: NodeID, s_l: int, n_l: NodeID | None) -> None:
        """Record that ``junction`` is reachable after ``step`` steps, by
        an instance whose left end is ``(s_l, n_l)``.

        Probes R (one ``set_op``, charged here) and, for a new key, adds
        it, schedules a visit of the junction's cluster (XSchedule input
        only) and activates any S-instances waiting on the key.  Under
        the ``//`` prefix every step-1 key counts as present.

        Two in-place twins must stay in step with this: the proof in
        :meth:`_replay`, and :meth:`_deliveries`' proof of a crossing that
        submits no read and releases nothing, which files it in Q as
        :meth:`XSchedule._enqueue` does.
        """
        ctx = self.ctx
        ctx.stats.set_ops += 1
        key = (step, junction)
        if key in self._r or (self.descendant_root_opt and step == 1):
            ctx.stats.duplicates_suppressed += 1
            return
        self._r.add(key)
        if self.schedule is not None:
            self.schedule._enqueue(step, s_l, n_l, False, junction, True)
        pending = self._s.pop(key, None)
        if pending:
            ctx.stats.merges += len(pending)
            self._s_size -= len(pending)
            self._ready.extend(pending)

    # -------------------------------------------------------------- fallback

    def _enter_fallback(self) -> None:
        """Memory limit exceeded: revert to the Simple method (Sec. 5.4.6)."""
        self.ctx.trip_fallback(
            "memory-limit",
            detail=f"|S|={self._s_size} exceeded memory_limit="
            f"{self.ctx.options.memory_limit}",
        )

    def _on_fallback_trip(self) -> None:
        """Context hook: discard S, keep R as the duplicate filter."""
        self._s.clear()
        self._s_size = 0
        self._ready.clear()
        if self.schedule is not None:
            self.schedule.enter_fallback()
