"""Columnar cluster views: parallel-array mirrors of a page's records.

The batch-at-a-time datapath (``EvalOptions.batched``) evaluates a whole
location-step extension against arrays instead of chasing record objects:
a :class:`ColumnView` mirrors one :class:`~repro.storage.page.Page` as
parallel columns of node kinds, tag ids, parent/holder slot links, a CSR
flattening of the child-slot lists, and per-border direction flags.

Views are built lazily on first hot access (:meth:`Page.colview
<repro.storage.page.Page.colview>`) and are *invalidated*, never patched:
``Page.add``/``Page.tombstone`` drop the view, and every direct record
mutation in :mod:`repro.storage.update` calls
``Page.invalidate_colview()``.  A stale view is therefore impossible as
long as mutations go through those two doors — the coherence rule the
storage docs spell out.

Candidate discovery here is the charge-free half of the batched kernel:
:meth:`ColumnView.axis_candidates` / :meth:`ColumnView.resume_candidates`
return the *complete* candidate slot array of one ``iter_axis`` /
``iter_resume`` enumeration (same order, same corrupt-store exceptions),
plus the charge shape ``(upfront_hops, free_head)`` from which
:meth:`ColumnView.extension` counts the scalar path's ``intra_hop``
charges between the candidates that matter (its *events*).  The
charge-shape contract:

* ``upfront_hops`` hop charges fire before the first candidate (and even
  when the candidate array is empty) — the sibling axes' holder lookup;
* the first ``free_head`` candidates carry **no** hop charge (``self``
  results and the sibling cluster-root short-circuit);
* every remaining candidate carries exactly one hop charge.

``repro.storage.nav`` remains the semantic reference; any change to its
candidate orders or charge placement must be mirrored here (the batched
equivalence property test enforces this bit-for-bit).
"""

from __future__ import annotations

from array import array

from repro.axes import Axis
from repro.errors import StorageError, StoreCorruptError

#: ``kinds`` column sentinel for a border record.
KIND_BORDER = -1
#: ``kinds`` column sentinel for a tombstoned slot.
KIND_TOMBSTONE = -2

#: Shared empty candidate array (never mutated by callers).
_EMPTY: list[int] = []

#: The one event triple shared by every extension without an event.
_NO_EVENTS = array("i")

#: A candidate batch: (upfront_hops, free_head, candidate slots).
CandidateBatch = tuple[int, int, "list[int]"]

#: How many run tapes one view keeps; one more drops them all.
TAPE_LIMIT = 64


class ColumnView:
    """Array mirror of one page, frozen at build time.

    Columns are indexed by slot number.  ``kinds[slot]`` is the record's
    :class:`~repro.model.tree.Kind` as an int, or :data:`KIND_BORDER` /
    :data:`KIND_TOMBSTONE`; ``parents[slot]`` holds a core record's
    ``parent_slot`` and a border record's ``local_slot`` (both are "the
    slot navigation follows upward").  Child-slot lists are flattened
    into one ``children`` array addressed by ``child_start``/``child_end``
    spans; ``child_start[slot] == -1`` encodes a border whose
    ``child_slots`` is ``None`` (distinct from an empty list, for
    corrupt-store exception parity with ``nav``).
    """

    __slots__ = (
        "page_no",
        "kinds",
        "tags",
        "parents",
        "child_start",
        "child_end",
        "children",
        "border_down",
        "border_cont",
        "entries_up",
        "entries_down",
        "entries_all",
        "_axis_cache",
        "_resume_cache",
        "_flag_cache",
        "tapes",
        "_pre",
        "_pre_index",
        "_pre_size",
    )

    def __init__(self, page) -> None:
        records = page.records
        n = len(records)
        kinds = [KIND_TOMBSTONE] * n
        tags = [-1] * n
        parents = [-1] * n
        child_start = [-1] * n
        child_end = [-1] * n
        children: list[int] = []
        border_down = [False] * n
        border_cont = [False] * n
        entries_up: list[int] = []
        entries_down: list[int] = []
        entries_all: list[int] = []
        for slot, record in enumerate(records):
            if record is None:
                continue
            if record.is_border:
                kinds[slot] = KIND_BORDER
                parents[slot] = record.local_slot
                border_down[slot] = record.down
                border_cont[slot] = record.continuation
                entries_all.append(slot)
                if record.down:
                    entries_down.append(slot)
                else:
                    entries_up.append(slot)
                slots = record.child_slots
                if slots is not None:
                    child_start[slot] = len(children)
                    children.extend(slots)
                    child_end[slot] = len(children)
            else:
                kinds[slot] = int(record.kind)
                tags[slot] = record.tag
                parents[slot] = record.parent_slot
                child_start[slot] = len(children)
                children.extend(record.child_slots)
                child_end[slot] = len(children)
        self.page_no = page.page_no
        self.kinds = kinds
        self.tags = tags
        self.parents = parents
        self.child_start = child_start
        self.child_end = child_end
        self.children = children
        self.border_down = border_down
        self.border_cont = border_cont
        self.entries_up = entries_up
        self.entries_down = entries_down
        self.entries_all = entries_all
        #: candidate batches are immutable once built (callers never
        #: mutate them), so they are memoized per (slot, axis) — repeated
        #: extensions from the same node are free after the first
        self._axis_cache: dict = {}
        self._resume_cache: dict = {}
        self._flag_cache: dict = {}
        #: run tapes (:meth:`keep_tape`) under ``(path id, step)``
        self.tapes: dict = {}
        # preorder span table for descendant enumeration, built lazily on
        # the first descendant-axis batch (see _ensure_preorder)
        self._pre: list[int] | None = None
        self._pre_index: list[int] = _EMPTY
        self._pre_size: list[int] = _EMPTY

    # ------------------------------------------------------ extension batch

    def extension(self, match_batch, slot: int, axis: Axis, resumed: bool):
        """One whole step extension, indexed by event: ``(upfront_hops,
        size, ev_slots, ev_hops, ev_tests, tail)``.

        An *event* is a candidate the kernels must act on: a match
        (``ev_slots`` holds its slot) or a border (``~slot``), in
        candidate order.  ``ev_hops``/``ev_tests`` hold the hop and
        node-test charges of the candidates since the previous event, the
        event's own included (a border is not tested); ``tail`` is the
        ``(hops, tests)`` of the candidates after the last event, and
        ``size`` the candidate count.  ``match_batch`` is the step's
        compiled batch closure.  Discovery and node-testing are
        charge-free, so memoizing the result cannot perturb simulated
        timings.  The arrays are shared — do not mutate.
        """
        if resumed:
            upfront, free_head, cands = self.resume_candidates(slot, axis)
        else:
            upfront, free_head, cands = self.axis_candidates(slot, axis)
        kinds = self.kinds
        flags = match_batch(kinds, self.tags, cands)
        size = len(cands)
        at = [i for i, s in enumerate(cands) if flags[i] or kinds[s] < 0]
        # the run of candidates an event accounts for starts after the
        # previous event: those at or past free_head hop, all but a
        # border event are tested
        starts = [0] + [i + 1 for i in at]
        rest = starts[-1]
        tail = (max(0, size - max(free_head, rest)), size - rest)
        if not at:
            return upfront, size, _NO_EVENTS, _NO_EVENTS, _NO_EVENTS, tail
        ev_slots = array("i", [cands[i] if flags[i] else ~cands[i] for i in at])
        ev_hops = array(
            "i", [max(0, i + 1 - max(free_head, a)) for i, a in zip(at, starts)]
        )
        ev_tests = array("i", [i + (e >= 0) - a for i, a, e in zip(at, starts, ev_slots)])
        return upfront, size, ev_slots, ev_hops, ev_tests, tail

    def extension_batch(self, test, match_batch, slot: int, axis: Axis, resumed: bool):
        """:meth:`extension`, memoized by value: ``test`` (a hashable
        :class:`~repro.algebra.steps.CompiledNodeTest`) keys the cache so
        different steps sharing a view never cross."""
        key = (test, slot, axis, resumed)
        cached = self._flag_cache.get(key)
        if cached is None:
            cached = self._flag_cache[key] = self.extension(match_batch, slot, axis, resumed)
        return cached

    def step_memo(self, test, axis: Axis) -> dict:
        """:meth:`extension`'s memo for one step, filled by the caller under
        ``slot << 1 | resumed``.  A kernel resolves it once per (cluster,
        step) and so spares every extension the hash of the frozen
        ``test`` and of the enum member — and, across compilations, the
        ``__eq__`` of equal but distinct tests — which cost more than the
        extension itself."""
        memo = self._flag_cache.get((test, axis))
        if memo is None:
            memo = self._flag_cache[(test, axis)] = {}
        return memo

    def keep_tape(self, key: tuple[int, int], tape: tuple) -> None:
        """Memoise a *run tape* — the path kernel's transcription of one
        whole entry run of this cluster
        (:func:`repro.algebra.xassembly.build_tape`) — under the document's
        path id and the run's step.  Unlike the extensions a tape also
        depends on the border records' ``companion`` fields, which is why
        a companion write is a mutation of the page holding the border.
        At most :data:`TAPE_LIMIT` are kept: one more drops them all, so
        a stream of distinct paths cannot grow a view without bound.
        """
        if len(self.tapes) >= TAPE_LIMIT:
            self.tapes.clear()
        self.tapes[key] = tape

    # ----------------------------------------------------------- axis batch

    def axis_candidates(self, slot: int, axis: Axis) -> CandidateBatch:
        """Candidate batch of ``axis`` from the core node at ``slot``.

        Mirrors :func:`repro.storage.nav.iter_axis`: same candidate
        order, same exceptions, charges encoded in the batch shape.
        The returned batch is shared (memoized) — do not mutate it.
        """
        key = (slot, axis)
        batch = self._axis_cache.get(key)
        if batch is None:
            batch = self._axis_cache[key] = self._axis_uncached(slot, axis)
        return batch

    def _axis_uncached(self, slot: int, axis: Axis) -> CandidateBatch:
        kinds = self.kinds
        try:
            kind = kinds[slot]
        except IndexError:
            raise StorageError(f"bad slot {slot} on page {self.page_no}") from None
        if kind < 0:
            raise StorageError(
                f"iter_axis from non-core slot {slot} on page {self.page_no}"
            )
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            return 0, 0, self.children[self.child_start[slot] : self.child_end[slot]]
        if axis is Axis.DESCENDANT:
            out: list[int] = []
            self._descend(slot, out)
            return 0, 0, out
        if axis is Axis.DESCENDANT_OR_SELF:
            out = [slot]
            self._descend(slot, out)
            return 0, 1, out
        if axis is Axis.SELF:
            return 0, 1, [slot]
        if axis is Axis.PARENT:
            parent_slot = self.parents[slot]
            if parent_slot < 0:
                return 0, 0, _EMPTY
            return 0, 0, [parent_slot]
        if axis is Axis.ANCESTOR:
            out = []
            self._ascend(slot, out)
            return 0, 0, out
        if axis is Axis.ANCESTOR_OR_SELF:
            out = [slot]
            self._ascend(slot, out)
            return 0, 1, out
        if axis is Axis.FOLLOWING_SIBLING:
            return self._siblings(slot, forward=True)
        if axis is Axis.PRECEDING_SIBLING:
            return self._siblings(slot, forward=False)
        raise StorageError(f"unsupported axis {axis}")  # pragma: no cover

    def _descend(self, slot: int, out: list[int]) -> None:
        """Preorder page-local descendants of ``slot``, borders unexpanded.

        Served from the preorder span table: a subtree is a contiguous
        run of the page-forest preorder, so the descendants of any core
        node are one slice.  The walk fallback only fires for slots the
        forest does not reach (corrupt stores).
        """
        pre = self._pre
        if pre is None:
            pre = self._ensure_preorder()
        index = self._pre_index[slot]
        if index < 0:
            self._descend_walk(slot, out)
            return
        out.extend(pre[index + 1 : index + self._pre_size[slot]])

    def _ensure_preorder(self) -> list[int]:
        """Build the page-forest preorder and per-slot subtree spans.

        Roots are the core records whose parent link leaves the page
        (document root, or a holder border — including the upward side of
        continuations, whose remainder children hang off the proxy).
        Border slots appear as unexpanded leaves inside their holder's
        span, exactly as :meth:`_descend_walk` emits them.
        """
        kinds = self.kinds
        parents = self.parents
        children = self.children
        start = self.child_start
        end = self.child_end
        n = len(kinds)
        pre: list[int] = []
        pre_index = [-1] * n
        pre_size = [1] * n
        for root in range(n):
            if kinds[root] < 0:
                continue
            parent_slot = parents[root]
            if parent_slot >= 0 and kinds[parent_slot] >= 0:
                continue  # covered by the parent core's subtree
            stack = [root]
            pop = stack.pop
            append = pre.append
            while stack:
                s = pop()
                pre_index[s] = len(pre)
                append(s)
                if kinds[s] >= 0:
                    a = start[s]
                    b = end[s]
                    if b > a:
                        tail = children[a:b]
                        tail.reverse()
                        stack.extend(tail)
        # subtree sizes: every node's DFS parent is its parent link (cores
        # link to their parent core, border leaves to their holder), so a
        # reverse-preorder pass accumulates child sizes into parents
        for i in range(len(pre) - 1, -1, -1):
            s = pre[i]
            parent_slot = parents[s]
            if parent_slot >= 0 and kinds[parent_slot] >= 0 and pre_index[parent_slot] >= 0:
                pre_size[parent_slot] += pre_size[s]
        self._pre = pre
        self._pre_index = pre_index
        self._pre_size = pre_size
        return pre

    def _descend_walk(self, slot: int, out: list[int]) -> None:
        """Explicit-stack preorder walk (corrupt-store fallback)."""
        children = self.children
        start = self.child_start
        end = self.child_end
        kinds = self.kinds
        stack = children[start[slot] : end[slot]]
        stack.reverse()
        pop = stack.pop
        append = out.append
        while stack:
            s = pop()
            append(s)
            if kinds[s] >= 0:
                a = start[s]
                b = end[s]
                if b > a:
                    tail = children[a:b]
                    tail.reverse()
                    stack.extend(tail)

    def _ascend(self, slot: int, out: list[int]) -> None:
        """Ancestors of ``slot``, stopping at (and including) a border."""
        parents = self.parents
        kinds = self.kinds
        append = out.append
        current = slot
        while True:
            parent_slot = parents[current]
            if parent_slot < 0:
                return
            append(parent_slot)
            if kinds[parent_slot] < 0:
                return
            current = parent_slot

    def _siblings(self, slot: int, forward: bool) -> CandidateBatch:
        parent_slot = self.parents[slot]
        if parent_slot < 0:
            return 0, 0, _EMPTY
        kinds = self.kinds
        try:
            holder_kind = kinds[parent_slot]
        except IndexError:
            raise StorageError(
                f"bad slot {parent_slot} on page {self.page_no}"
            ) from None
        if holder_kind == KIND_BORDER and not self.border_cont[parent_slot]:
            # cluster root: siblings live with the parent, across this
            # border — one upfront hop, candidate itself uncharged
            return 1, 1, [parent_slot]
        cs = self.child_start[parent_slot]
        if cs < 0:
            raise StoreCorruptError(
                f"holder at page {self.page_no} slot {parent_slot} has no child list"
            )
        ce = self.child_end[parent_slot]
        children = self.children
        index = children.index(slot, cs, ce)
        if forward:
            return 1, 0, children[index + 1 : ce]
        cands = children[cs:index]
        cands.reverse()
        if holder_kind == KIND_BORDER:
            # earlier chunks of the child list live across the proxy's edge
            cands.append(parent_slot)
        return 1, 0, cands

    # --------------------------------------------------------- resume batch

    def resume_candidates(self, slot: int, axis: Axis) -> CandidateBatch:
        """Candidate batch resuming ``axis`` at the border ``slot``.

        Mirrors :func:`repro.storage.nav.iter_resume` (which takes the
        *original* step axis, as XStep passes it).  The returned batch is
        shared (memoized) — do not mutate it.
        """
        key = (slot, axis)
        batch = self._resume_cache.get(key)
        if batch is None:
            batch = self._resume_cache[key] = self._resume_uncached(slot, axis)
        return batch

    def _resume_uncached(self, slot: int, axis: Axis) -> CandidateBatch:
        kinds = self.kinds
        try:
            kind = kinds[slot]
        except IndexError:
            raise StorageError(f"bad slot {slot} on page {self.page_no}") from None
        if kind != KIND_BORDER:
            raise StorageError(f"iter_resume at non-border slot {slot}")
        cont = self.border_cont[slot]
        if axis is Axis.CHILD or axis is Axis.ATTRIBUTE:
            if not cont:
                return 0, 0, [self.parents[slot]]
            cs = self.child_start[slot]
            if cs < 0:
                raise StoreCorruptError(
                    f"continuation proxy at page {self.page_no} slot {slot} "
                    "has no child list"
                )
            return 0, 0, self.children[cs : self.child_end[slot]]
        if axis is Axis.DESCENDANT or axis is Axis.DESCENDANT_OR_SELF:
            if cont:
                cs = self.child_start[slot]
                if cs < 0:
                    raise StoreCorruptError(
                        f"continuation proxy at page {self.page_no} slot {slot} "
                        "has no child list"
                    )
                out: list[int] = []
                for child in self.children[cs : self.child_end[slot]]:
                    out.append(child)
                    if kinds[child] >= 0:
                        self._descend(child, out)
                return 0, 0, out
            local = self.parents[slot]
            if kinds[local] < 0:
                raise StoreCorruptError(
                    f"up-border at page {self.page_no} slot {slot} points at "
                    f"slot {local}, which is not a core record"
                )
            out = [local]
            self._descend(local, out)
            return 0, 0, out
        if axis is Axis.SELF:
            return 0, 0, [self.parents[slot]]
        if axis is Axis.PARENT or axis is Axis.ANCESTOR or axis is Axis.ANCESTOR_OR_SELF:
            holder_slot = self.parents[slot]
            try:
                holder_kind = kinds[holder_slot]
            except IndexError:
                raise StorageError(
                    f"bad slot {holder_slot} on page {self.page_no}"
                ) from None
            if holder_kind < 0:
                # holder is a proxy: the parent core node lies across its edge
                return 0, 0, [holder_slot]
            if axis is Axis.PARENT:
                return 0, 0, [holder_slot]
            out = [holder_slot]
            self._ascend(holder_slot, out)
            return 0, 0, out
        if axis is Axis.FOLLOWING_SIBLING or axis is Axis.PRECEDING_SIBLING:
            return self._resume_sibling(slot, forward=axis is Axis.FOLLOWING_SIBLING)
        raise StorageError(f"unsupported resume axis {axis}")  # pragma: no cover

    def _resume_sibling(self, slot: int, forward: bool) -> CandidateBatch:
        if not self.border_down[slot]:
            if not self.border_cont[slot]:
                # candidate crossing: the sibling is this cluster's local root
                return 0, 0, [self.parents[slot]]
            cs = self.child_start[slot]
            if cs < 0:
                raise StoreCorruptError(
                    f"continuation proxy at page {self.page_no} slot {slot} "
                    "has no child list"
                )
            cands = self.children[cs : self.child_end[slot]]
            if not forward:
                cands.reverse()
            return 0, 0, cands
        local = self.parents[slot]
        try:
            cs = self.child_start[local]
        except IndexError:
            raise StorageError(f"bad slot {local} on page {self.page_no}") from None
        if cs < 0:
            raise StoreCorruptError(
                f"holder at page {self.page_no} slot {local} has no child list"
            )
        ce = self.child_end[local]
        children = self.children
        index = children.index(slot, cs, ce)
        if forward:
            return 1, 0, children[index + 1 : ce]
        cands = children[cs:index]
        cands.reverse()
        if self.kinds[local] == KIND_BORDER:
            cands.append(local)
        return 1, 0, cands

    # ---------------------------------------------------------- speculation

    def entry_slots(self, axis: Axis) -> list[int]:
        """Precomputed :func:`~repro.storage.nav.speculative_entries`.

        Border slots (ascending) at which a paused ``axis`` step could
        enter this page.  The returned list is shared — do not mutate.
        """
        if axis is Axis.SELF:
            return _EMPTY
        if axis.is_downward:
            return self.entries_up
        if axis.is_upward:
            return self.entries_down
        return self.entries_all
