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
from collections import deque
from typing import Iterator, NamedTuple, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import EntryRun, PathInstance
from repro.algebra.steps import CompiledStep
from repro.algebra.xstep import XStep, extend_full, pinned_page
from repro.errors import PlanError
from repro.storage.nodeid import SLOT_BITS, NodeID, make_nodeid, page_of, slot_of


#: An S-resident instance, right end normalized to NodeIDs:
#: ``(s_r, right, incomplete)`` — ``right`` is the junction NodeID of an
#: incomplete instance, the result node's NodeID of a complete one.
_Stored = tuple[int, NodeID, bool]


class RunTape(NamedTuple):
    """What the kernel's walk of one entry run comes to (:func:`build_tape`)."""

    owner: object  #: the document that numbered the path
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


def build_tape(owner, view, records: list, steps: Sequence[CompiledStep], index: int) -> RunTape:
    """The *run tape* of one (cluster, path, step): a charge-free
    transcription of the walk :meth:`XAssembly._produce` makes, level by
    level, over the entry run of step ``index`` on the cluster ``view``
    mirrors (``records`` are its page's, read for the junctions).  A
    function of the page's records alone; docs/algebra.md, "Run tapes".
    """
    n = len(steps)
    base = view.page_no << SLOT_BITS
    hops = tests = events = calls = deferred = parked = 0
    walked = []
    memo: dict = {}  # an inner extension is started once per match above it
    first = steps[index]
    slots = view.entry_slots(first.axis)
    outcomes: list[_Stored] = []
    marks = array("q")
    stack: list = []  # empty again whenever an entry is spent
    for ordinal, entry in enumerate(slots, start=1):
        calls += ordinal > 1  # the pull of the I/O operator replayed per entry
        top = index + 1
        batch = view.extension(first.match_batch, entry, first.axis, True)
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
                        step = steps[top - 1]
                        batch = memo[key] = view.extension(step.match_batch, slot, step.axis, False)
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
        if outcomes:
            parked += len(outcomes)
            walked.append(((index, base | entry), tuple(outcomes), ordinal, marks))
            outcomes, marks = [], array("q")
    totals = (hops, tests, events, calls, deferred, len(slots))
    return RunTape(owner, steps, index, totals, parked, tuple(walked))


class XAssembly(Operator):
    """Topmost operator of a cost-sensitive path plan."""

    __slots__ = (
        "producer",
        "path_len",
        "schedule",
        "descendant_root_opt",
        "steps",
        "document",
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
        schedule=None,
        descendant_root_opt: bool = False,
        steps: Sequence[CompiledStep] = (),
        document=None,
    ) -> None:
        super().__init__(ctx)
        if steps and not ctx.options.batched:
            # the scalar datapath: one XStep operator per step below us
            for index, step in enumerate(steps, start=1):
                producer = XStep(ctx, producer, index, step)
            steps = ()
        if any(step.predicates for step in steps):
            raise PlanError("the path kernel does not evaluate nested predicates")
        self.producer = producer
        #: the location steps the kernel runs itself over the I/O operator
        #: ``producer``; empty over a scalar XStep chain
        self.steps = steps
        #: the :class:`~repro.storage.store.StoredDocument` the path runs
        #: over and the integer it knows the path by: what run tapes are
        #: kept under (None: every run is walked level by level)
        self.document = document
        self._path = document.path_id(steps) if document is not None and steps else None
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

    # ------------------------------------------------------------ R helpers

    def _r_contains(self, key: tuple[int, NodeID]) -> bool:
        self.ctx.charge_set_op()
        if self.descendant_root_opt and key[0] == 1:
            return True
        return key in self._r

    def _r_add(self, key: tuple[int, NodeID]) -> None:
        if self.descendant_root_opt and key[0] == 1:
            return
        self._r.add(key)

    # -------------------------------------------------------------- pipeline

    def _produce(self) -> Iterator[PathInstance]:
        """The path kernel: the XStep chain and this operator's intake, fused.

        One generator runs every step over the pinned page's
        :class:`~repro.storage.colview.ColumnView` and files what reaches
        the top into R/S.  It charges what the stacked chain would (a
        scalar :class:`XStep` per step, each pulled through
        ``Operator.next``) without visiting every candidate: an
        extension is walked event by event — a match or a border, with
        the hops and node tests of the candidates skipped since the
        previous one charged in one multiply — and a pull first adds the
        ``iterator_call`` of every level it would have crossed.  ``top``
        is the highest step holding an extension, the suspended ones
        below it sit on ``stack``.  Charges collect in ``pending`` (time
        is on a grid, so the sum is exact in any order) and go onto the
        clock before anything else can read or advance it; counter deltas
        are posted before every yield and on exit.  Flush points:
        docs/algebra.md.  An :class:`EntryRun` is not walked at all when
        nothing can read the clock inside it: it is taken in from its
        memoised tape (:meth:`_replay`), and this loop stays the
        reference that tape transcribes.  With no ``steps`` (a scalar
        chain below) only the intake runs.
        """
        ctx = self.ctx
        steps = self.steps
        n = len(steps)
        clock = ctx.clock
        stats = ctx.stats
        tracer = ctx.tracer
        cost_hop = ctx._cost_hop
        cost_test = ctx._cost_test
        cost_instance = ctx._cost_instance
        cost_set = ctx._cost_set
        cost_call = ctx._cost_call
        limit = ctx.options.memory_limit
        r = self._r
        s = self._s
        ready = self._ready
        droot = self.descendant_root_opt
        source = iter(self.producer)  # charges its own crossing per pull
        stack: list = []
        top = 0
        it = tail = page = p = entries = None
        starting = False
        d_hops = d_tests = d_instances = d_deferred = d_calls = d_out = 0
        d_speculative = d_replayed = 0
        t0 = clock.now
        pending = 0.0  # CPU seconds charged here, not yet on the clock
        try:
            while True:
                result = None
                if ready:
                    clock.work(pending)
                    pending = 0.0
                    result = self._activate(ready.popleft())
                else:
                    # the pull crosses levels n..top: the idle ones and the one it resumes
                    calls = n - top + 1 if top else n
                    while True:
                        if calls:
                            d_calls += calls
                            if ctx._budget is None:
                                pending += calls * cost_call
                            else:  # checked after every single crossing
                                clock.work(pending)
                                pending = 0.0
                                for _ in range(calls):
                                    ctx.charge_call()
                            calls = 0
                        if top == 0 and entries is not None:
                            # inside an entry run: the scalar chain pulls
                            # the I/O operator once more per entry
                            slot = next(entries, None)
                            if slot is None:
                                entries = None
                            else:
                                d_replayed += 1
                                if ctx._budget is None:
                                    pending += cost_call
                                else:
                                    clock.work(pending)
                                    pending = 0.0
                                    ctx.charge_call()
                        if top == 0 and entries is None:
                            clock.work(pending)
                            pending = 0.0
                            p = next(source, None)
                            if p is None:
                                return
                            if type(p) is EntryRun:
                                tape = self._tape(p)
                                if tape is not None:
                                    if d_hops or d_tests or d_instances or d_speculative:
                                        # the intake may yield: nothing stays unposted
                                        self._post(
                                            d_hops, d_tests, d_instances, d_deferred, d_speculative
                                        )
                                        d_hops = d_tests = d_instances = d_deferred = 0
                                        d_speculative = 0
                                    yield from self._replay(tape, droot and p.step == 1)
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
                                s_l = p.s_l
                                n_l = p.n_l
                                left_open = p.left_open
                                left_key = (s_l, n_l)
                                implied = droot and s_l == 1
                                slot = p.slot
                                s_r = p.s_r
                                paused = p.is_border
                                if s_r >= n or (paused and not p.resumed):
                                    # no level applies: all n hand it up as it is
                                    d_out += n
                                    if paused:
                                        right = ctx.segment.page(p.page_no).record(slot).target()
                                    elif left_open or s_r == self.path_len:
                                        right = make_nodeid(p.page_no, slot)
                                    else:
                                        raise PlanError(
                                            f"XAssembly received a complete non-full instance (s_r={s_r})"
                                        )
                                    break
                                top = s_r + 1
                                d_out += s_r
                                resumed = p.resumed
                                starting = True
                        if top == 0:
                            # the run's next entry, in place: what XScan charges
                            # for the instance it stands for, and no instance
                            pending += cost_instance
                            d_speculative += 1
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
                                if type(p) is not PathInstance:
                                    # a match found in place, or a run's entry
                                    p = PathInstance(
                                        s_l, n_l, left_open, top - 1, slot, resumed, resumed
                                    )
                                    p.page_no = page_no
                                it = extend_full(ctx, step, top, p)
                                tail = None
                            else:
                                if p is not None and pinned_page(ctx, top, p) is not page:
                                    # fresh from the I/O operator, on a new cluster
                                    page = ctx.current_frame.page
                                    view = page.colview()
                                    records = page.records
                                    page_no = page.page_no
                                    page_base = page_no << SLOT_BITS
                                    memos = [None] * n
                                memo = memos[top - 1]
                                if memo is None:
                                    memo = memos[top - 1] = view.step_memo(step.test, step.axis)
                                batch = memo.get(slot << 1 | resumed)
                                if batch is None:
                                    batch = memo[slot << 1 | resumed] = view.extension(
                                        step.match_batch, slot, step.axis, resumed
                                    )
                                upfront, size, ev_slots, ev_hops, ev_tests, tail = batch
                                if tracer is not None and size:
                                    span = {"step": top, "batch_size": size}
                                    tracer.event(
                                        clock.now + pending, "op", "xstep-batch", page=page_no, args=span
                                    )
                                pending += upfront * cost_hop
                                d_hops += upfront
                                it = zip(ev_slots, ev_hops, ev_tests)
                            p = None
                        if tail is None:
                            # a fallback level (Sec. 5.4.6): scalar full
                            # navigation, charging the clock itself
                            clock.work(pending)
                            pending = 0.0
                            p = next(it, None)
                            if p is not None:
                                d_out += 1
                                if top < n:
                                    stack.append((it, tail))
                                    top += 1
                                    starting = True
                                    continue
                                s_r = n
                                right = make_nodeid(p.page_no, p.slot)
                                paused = False
                                p = None
                                break
                            it = ()  # spent: pop below
                            tail = (0, 0)
                        for slot, hops, tests in it:
                            # the next event of level `top`, and every
                            # candidate skipped on the way to it
                            pending += hops * cost_hop + tests * cost_test + cost_instance
                            d_hops += hops
                            d_tests += tests
                            d_instances += 1
                            if slot < 0:
                                # a border pauses the instance here: the
                                # levels above hand it up as it is
                                d_deferred += 1
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
                            pending += hops * cost_hop + tests * cost_test
                            d_hops += hops
                            d_tests += tests
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
                        clock.work(pending)
                        pending = 0.0
                        if paused:
                            self._prove(s_r, right, origin=(s_l, n_l))
                        else:
                            result = self._final(right)
                    elif not ctx.fallback:  # (whose re-evaluation covers all speculation)
                        pending += cost_set
                        if implied or left_key in r:
                            stats.merges += 1
                            clock.work(pending)
                            pending = 0.0
                            result = self._activate((s_r, right, paused))
                        else:
                            pending += cost_set
                            parked = s.get(left_key)
                            if type(parked) is list:
                                parked.append((s_r, right, paused))
                            else:  # none yet, or a tape's own tuple
                                s[left_key] = [*(parked or ()), (s_r, right, paused)]
                            self._s_size += 1
                            if limit is not None and self._s_size > limit:
                                clock.work(pending)
                                pending = 0.0
                                self._enter_fallback()
                if result is not None:
                    clock.work(pending)
                    pending = 0.0
                    self._post(d_hops, d_tests, d_instances, d_deferred, d_speculative)
                    d_hops = d_tests = d_instances = d_deferred = d_speculative = 0
                    yield self._result_instance(result)
        finally:
            self._post(d_hops, d_tests, d_instances, d_deferred, d_speculative)
            if tracer is not None and n:
                tracer.op_call("XStep", d_out, d_calls)
                tracer.op_span("XStep", t0, clock.now, d_out)
                # the crossings replayed inside runs are the I/O operator's
                self.producer._trace_out += d_replayed
                tracer.op_call(type(self.producer).__name__, d_replayed, d_replayed)

    def _tape(self, run: EntryRun) -> RunTape | None:
        """The tape to take ``run`` in from, memoised on the pinned
        page's view — or None: the run is walked level by level.  That
        is the case whenever something could observe the clock between
        two of its outcomes — a tracer, an armed budget, fallback mode,
        a ``memory_limit`` S may not have room under for the whole run —
        and when building the tape raises (a corrupt page; a plan built
        without its document has no path id to keep one under): the
        walk then raises it where the scalar chain does, and nothing is
        memoised."""
        ctx = self.ctx
        frame = ctx.current_frame
        if (
            self._path is None
            or ctx.tracer is not None
            or ctx._budget is not None
            or ctx.fallback
            or frame is None
            or frame.page.page_no != run.page_no
        ):
            return None
        page = frame.page
        view = page.colview()
        key = (self._path, run.step)
        tape = view.tapes.get(key)
        if tape is None or tape.owner is not self.document:
            # (path ids are per document, and an update can leave two
            # documents sharing a page)
            try:
                tape = build_tape(self.document, view, page.records, self.steps, run.step)
            except Exception:  # whatever it is, the walk raises it again
                return None
            view.keep_tape(key, tape)
        limit = ctx.options.memory_limit
        if limit is not None and self._s_size + tape.parked > limit:
            return None
        return tape

    def _replay(self, tape: RunTape, implied: bool) -> Iterator[PathInstance]:
        """Take in one whole entry run from its tape (:func:`build_tape`).

        An entry whose left junction is not in R waits in S as the
        tape's own outcome tuple: two ``set_op`` per outcome, as the
        walk charges.  An entry that is reachable (or ``implied``: the
        ``//`` prefix) has its outcomes activated one by one, each with
        everything the walk charges before it on the clock first, so
        every ``_prove`` and every yield see the level-stack walk's
        clock.  The rest of the run's charges follow in one sum.
        """
        r = self._r
        s = self._s
        ready = self._ready
        stats = self.ctx.stats
        done = (0, 0, 0, 0, 0, 0)  # the part of the totals charged and posted
        sets = 0  # set_ops charged by entries parked since
        for key, outcomes, ordinal, marks in tape.walked:
            if not implied and key not in r:
                parked = s.get(key)
                s[key] = outcomes if parked is None else [*parked, *outcomes]
                self._s_size += len(outcomes)
                sets += 2 * len(outcomes)
                continue
            for i, outcome in enumerate(outcomes):
                upto = (*marks[5 * i : 5 * i + 5], ordinal)
                self._settle(done, upto, sets + 1)  # and the R probe that hit
                done = upto
                sets = 0
                stats.merges += 1
                result = self._activate(outcome)
                while True:
                    if result is not None:
                        yield self._result_instance(result)
                    if not ready:
                        break
                    result = self._activate(ready.popleft())
        self._settle(done, tape.totals, sets)

    def _settle(self, done: tuple, upto: tuple, sets: int) -> None:
        """Charge and book what a tape counts between two of its marks,
        and ``sets`` R/S operations."""
        ctx = self.ctx
        hops0, tests0, events0, calls0, deferred0, entries0 = done
        hops, tests, events, calls, deferred, entries = upto
        ctx.clock.work(
            (hops - hops0) * ctx._cost_hop
            + (tests - tests0) * ctx._cost_test
            + (events - events0 + entries - entries0) * ctx._cost_instance
            + (calls - calls0) * ctx._cost_call
            + sets * ctx._cost_set
        )
        self._post(
            hops - hops0, tests - tests0, events - events0, deferred - deferred0, entries - entries0
        )

    def _post(
        self, hops: int, tests: int, instances: int, deferred: int, speculative: int
    ) -> None:
        """Book the kernel's pending counter deltas."""
        stats = self.ctx.stats
        stats.intra_hops += hops
        stats.node_tests += tests
        stats.instances_created += instances + speculative
        stats.speculative_instances += speculative
        stats.border_crossings_deferred += deferred

    def _result_instance(self, nid: NodeID) -> PathInstance:
        self.ctx.charge_instance()
        return PathInstance(
            s_l=0,
            n_l=None,
            left_open=False,
            s_r=self.path_len,
            slot=slot_of(nid),
            is_border=False,
            page_no=page_of(nid),
        )

    # ------------------------------------------------------------ activation

    def _activate(self, stored: _Stored) -> NodeID | None:
        """Process an instance whose left end is known reachable."""
        s_r, right, incomplete = stored
        if incomplete:
            self._prove(s_r, right, origin=(0, None))
            return None
        if s_r == self.path_len:
            return self._final(right)
        raise PlanError(
            f"complete non-full instance in S (s_r={s_r}, len={self.path_len})"
        )

    def _final(self, nid: NodeID) -> NodeID | None:
        """Deduplicate and emit a full path's result node."""
        key = (self.path_len, nid)
        if self._r_contains(key):
            self.ctx.stats.duplicates_suppressed += 1
            return None
        self._r_add(key)
        return nid

    def _prove(self, step: int, junction: NodeID, origin: tuple[int, NodeID | None]) -> None:
        """Record that ``junction`` is reachable after ``step`` steps.

        Adds the key to R, schedules a visit of the junction's cluster
        (XSchedule input only), and activates any S-instances waiting on
        the key.
        """
        key = (step, junction)
        if self._r_contains(key):
            self.ctx.stats.duplicates_suppressed += 1
            return
        self._r_add(key)
        if self.schedule is not None:
            origin_step, origin_node = origin
            self.schedule.add_from_assembly(
                s_l=origin_step,
                n_l=origin_node,
                s_r=step,
                target=junction,
            )
        pending = self._s.pop(key, None)
        if pending:
            self.ctx.stats.merges += len(pending)
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
