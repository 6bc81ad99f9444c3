"""Leaf, duplicate-elimination, ordering and aggregation operators."""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.errors import BudgetExceededError
from repro.storage.nodeid import SLOT_BITS, NodeID
from repro.storage.record import CoreRecord


class ContextScan(Operator):
    """Enumerate the context nodes, as NodeIDs.

    Each stands for the trivial complete path instance at it, ``S_L =
    S_R = 0`` and both ends the context node (paper Sec. 5.1 / input spec
    of XSchedule and XScan), and is charged as one.
    """

    __slots__ = ("contexts",)

    def __init__(self, ctx: EvalContext, contexts: Sequence[NodeID]) -> None:
        super().__init__(ctx)
        self.contexts = list(contexts)

    def _produce(self) -> Iterator[NodeID]:
        for nid in self.contexts:
            self.ctx.charge_instance()
            yield nid


class DuplicateElimination(Operator):
    """Hash-based duplicate elimination on the NodeIDs of the right-end
    nodes the Simple chain hands on.

    The Simple method needs this as a final operator (Sec. 5.1); the
    XAssembly plans get it for free through R.
    """

    __slots__ = ("producer",)

    def __init__(self, ctx: EvalContext, producer: Operator) -> None:
        super().__init__(ctx)
        self.producer = producer

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[NodeID]:
        stats = self.ctx.stats
        seen: set[NodeID] = set()
        for nid in self.producer:
            stats.set_ops += 1  # the R probe
            if nid in seen:
                stats.duplicates_suppressed += 1
                continue
            seen.add(nid)
            yield nid


def result_nodeids(top: Operator) -> list[NodeID]:
    """Drain a plan's top into its result NodeIDs.

    Under an execution budget with ``on_exceeded="partial"`` the results
    accumulated so far are returned when the budget trips; in ``"raise"``
    mode the :class:`~repro.errors.BudgetExceededError` propagates.
    """
    top.open()
    try:
        out: list[NodeID] = []
        try:
            for nid in top:
                out.append(nid)
            return out
        except BudgetExceededError as exc:
            if not exc.partial:
                raise
            return out
    finally:
        top.close()


def order_results(ctx: EvalContext, nids: list[NodeID]) -> list[NodeID]:
    """Sort result nodes into document order via their ORDPATH labels.

    Fetching a label swizzles the node; pages evicted since the result
    was produced are re-read — a real cost of reordering navigation
    (paper Sec. 5.5).  Untraced, a resident page's label read is counted
    in place as a hit (``BufferManager.count_hits``), posted with the
    labels' ``set_op``s before a miss's read reads the clock and at the
    end; only a miss calls ``fix``.
    """
    stats = ctx.stats
    buffer = ctx.buffer
    slot_mask = (1 << SLOT_BITS) - 1
    keyed = []
    if buffer.tracer is not None:  # a hit is an event at its own instant
        for nid in nids:
            frame = buffer.fix(nid >> SLOT_BITS)
            record = frame.page.record(nid & slot_mask)
            assert isinstance(record, CoreRecord)
            stats.set_ops += 1
            keyed.append((record.ordpath.components, nid))
            buffer.unfix(frame)
    else:
        frames = buffer._frames
        read = []  # the resident pages read since the last post, in turn
        posted = 0  # the labels whose set_op is on Stats
        for nid in nids:
            page_no = nid >> SLOT_BITS
            frame = frames.get(page_no)
            if frame is None:
                stats.set_ops += len(keyed) - posted
                posted = len(keyed)
                buffer.count_hits(read)
                read = []
                frame = buffer.fix(page_no)
                buffer.unfix(frame)
            else:
                read.append(page_no)
            record = frame.page.record(nid & slot_mask)
            assert isinstance(record, CoreRecord)
            keyed.append((record.ordpath.components, nid))
        stats.set_ops += len(keyed) - posted
        buffer.count_hits(read)
    # charge an n log n comparison cost for the sort itself
    n = len(keyed)
    if n > 1:
        stats.set_ops += int(n * max(1, n.bit_length()))
    # labels compare as their component tuples: no OrdPath.__lt__ per comparison
    keyed.sort(key=itemgetter(0))
    return [nid for _, nid in keyed]


def count_results(top: Operator, ctx: EvalContext) -> int:
    """Drain a plan's top and count its results (``count()``), one
    ``set_op`` each.

    Budget semantics match :func:`result_nodeids`: a ``"partial"`` budget
    returns the count accumulated so far.
    """
    top.open()
    try:
        count = 0
        try:
            for _ in top:
                ctx.charge_set_op()
                count += 1
            return count
        except BudgetExceededError as exc:
            if not exc.partial:
                raise
            return count
    finally:
        top.close()
