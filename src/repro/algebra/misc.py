"""Leaf, duplicate-elimination, ordering and aggregation operators."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.errors import BudgetExceededError
from repro.storage.nodeid import NodeID, make_nodeid, page_of, slot_of
from repro.storage.record import CoreRecord


class ContextScan(Operator):
    """Enumerate context nodes as trivial complete path instances.

    Produces instances with ``S_L = S_R = 0`` and both ends equal to the
    context node (paper Sec. 5.1 / input spec of XSchedule and XScan).
    """

    __slots__ = ("contexts",)

    def __init__(self, ctx: EvalContext, contexts: Sequence[NodeID]) -> None:
        super().__init__(ctx)
        self.contexts = list(contexts)

    def _produce(self) -> Iterator[PathInstance]:
        for nid in self.contexts:
            self.ctx.charge_instance()
            yield PathInstance(
                s_l=0,
                n_l=nid,
                left_open=False,
                s_r=0,
                slot=slot_of(nid),
                is_border=False,
                page_no=page_of(nid),
            )


class DuplicateElimination(Operator):
    """Hash-based duplicate elimination on the right-end node.

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

    def _produce(self) -> Iterator[PathInstance]:
        seen: set[NodeID] = set()
        for instance in self.producer:
            assert instance.page_no is not None
            nid = make_nodeid(instance.page_no, instance.slot)
            self.ctx.charge_set_op()
            if nid in seen:
                self.ctx.stats.duplicates_suppressed += 1
                continue
            seen.add(nid)
            yield instance


def result_nodeids(top: Operator) -> list[NodeID]:
    """Drain a path-instance operator into its result NodeIDs.

    Under an execution budget with ``on_exceeded="partial"`` the results
    accumulated so far are returned when the budget trips; in ``"raise"``
    mode the :class:`~repro.errors.BudgetExceededError` propagates.
    """
    top.open()
    try:
        out: list[NodeID] = []
        try:
            while True:
                instance = top.next()
                if instance is None:
                    return out
                assert instance.page_no is not None
                out.append(make_nodeid(instance.page_no, instance.slot))
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
    (paper Sec. 5.5).
    """
    keyed = []
    for nid in nids:
        frame = ctx.buffer.fix(page_of(nid))
        record = frame.page.record(slot_of(nid))
        assert isinstance(record, CoreRecord)
        ctx.charge_set_op()
        keyed.append((record.ordpath, nid))
        ctx.buffer.unfix(frame)
    # charge an n log n comparison cost for the sort itself
    n = len(keyed)
    if n > 1:
        comparisons = int(n * max(1, n.bit_length()))
        ctx.clock.work(comparisons * ctx.costs.set_op)
    keyed.sort(key=lambda pair: pair[0])
    return [nid for _, nid in keyed]


def count_results(top: Operator, ctx: EvalContext) -> int:
    """Drain a path-instance operator and count results (``count()``).

    Budget semantics match :func:`result_nodeids`: a ``"partial"`` budget
    returns the count accumulated so far.
    """
    top.open()
    try:
        count = 0
        try:
            while True:
                instance = top.next()
                if instance is None:
                    return count
                ctx.charge_set_op()
                count += 1
        except BudgetExceededError as exc:
            if not exc.partial:
                raise
            return count
    finally:
        top.close()
