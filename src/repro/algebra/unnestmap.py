"""Unnest-Map: the Simple method's step operator (paper Sec. 5.1).

One Unnest-Map per location step; each reads complete path instances and
extends them by one step using *full-tree* navigation — every border
crossing pays a swizzle and, on a miss, synchronous I/O immediately.
This is the baseline the cost-sensitive plans are measured against.

The operator carries two kernels selected once by
``EvalOptions.batched``: the scalar kernel drives
:func:`~repro.algebra.fullnav.full_axis` one record at a time; the
batched kernel makes the identical traversal — same matches and border
crossings in the same order, same hop/test charges, same buffer
fix/unfix sequence and therefore the same simulated I/O timeline — over
per-page :class:`~repro.storage.colview.ColumnView` extensions, stopping
only at their events.  Steps with
predicates always take the scalar kernel (predicate evaluation is
recursive full-tree navigation).
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_axis, predicate_holds
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.storage.nodeid import page_of, slot_of


class UnnestMap(Operator):
    """Extend complete path instances by one location step."""

    __slots__ = ("producer", "step_index", "step", "_batched")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        step_index: int,
        step: CompiledStep,
    ) -> None:
        super().__init__(ctx)
        self.producer = producer
        self.step_index = step_index
        self.step = step
        self._batched = ctx.options.batched and not step.predicates

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[PathInstance]:
        if self._batched:
            return self._produce_batched()
        return self._produce_scalar()

    def _produce_scalar(self) -> Iterator[PathInstance]:
        ctx = self.ctx
        step = self.step
        match = step.match
        for p in self.producer:
            assert p.page_no is not None and not p.is_border
            for page_no, slot in full_axis(ctx, p.page_no, p.slot, step.axis):
                record = ctx.segment.page(page_no).record(slot)
                ctx.charge_test()
                if not match(record.kind, record.tag):
                    continue
                if any(
                    not predicate_holds(ctx, page_no, slot, predicate)
                    for predicate in step.predicates
                ):
                    continue
                ctx.charge_instance()
                yield PathInstance(
                    s_l=p.s_l,
                    n_l=p.n_l,
                    left_open=False,
                    s_r=self.step_index,
                    slot=slot,
                    is_border=False,
                    page_no=page_no,
                )

    def _produce_batched(self) -> Iterator[PathInstance]:
        """Full-tree traversal over columnar, event-indexed extensions.

        Charges what :func:`~repro.algebra.fullnav.full_axis` would
        without visiting every candidate: the current page's extension
        (a memoized :meth:`ColumnView.extension_batch
        <repro.storage.colview.ColumnView.extension_batch>`) is walked
        event by event, the hops and node tests of the candidates skipped
        since the previous event charged in one multiply.  A match is
        yielded; a border crosses eagerly — the stream is suspended on
        ``stack``, the buffer unfixes/fixes exactly as the scalar walk
        does, and the target's resume extension becomes the stream.

        Charges collect in ``pending`` and counters in integer deltas,
        put on the books before every yield and before every buffer call
        (``fix``/``unfix`` advance the clock and stamp tracer events with
        it).  Time is on a grid, so the sums are exact: results,
        ``Stats`` and simulated time equal :meth:`_produce_scalar`'s.
        """
        ctx = self.ctx
        step = self.step
        axis = step.axis
        test = step.test
        match_batch = step.match_batch
        step_index = self.step_index
        buffer = ctx.buffer
        clock = ctx.clock
        stats = ctx.stats
        tracer = ctx.tracer
        cost_hop = ctx._cost_hop
        cost_test = ctx._cost_test
        cost_instance = ctx._cost_instance
        for p in self.producer:
            assert p.page_no is not None and not p.is_border
            s_l = p.s_l
            n_l = p.n_l
            page_no = p.page_no
            frame = buffer.fix(page_no)
            try:
                page = frame.page
                upfront, size, ev_slots, ev_hops, ev_tests, tail = page.colview().extension_batch(
                    test, match_batch, p.slot, axis, False
                )
                if tracer is not None and size:
                    tracer.event(
                        clock.now,
                        "op",
                        "unnest-batch",
                        page=page_no,
                        args={"step": step_index, "batch_size": size},
                    )
                it = zip(ev_slots, ev_hops, ev_tests)
                stack = []  # suspended streams: (page_no, it, tail)
                pending = upfront * cost_hop
                d_hops = upfront
                d_tests = 0
                while True:
                    for slot, hops, tests in it:
                        pending += hops * cost_hop + tests * cost_test
                        d_hops += hops
                        d_tests += tests
                        if slot < 0:
                            # border: cross eagerly, exactly as full_axis
                            target = page.records[~slot].target()
                            stack.append((page_no, it, tail))
                            page_no = page_of(target)
                            clock.work(pending)
                            buffer.unfix(frame)
                            frame = buffer.fix(page_no)
                            page = frame.page
                            upfront, _, ev_slots, ev_hops, ev_tests, tail = (
                                page.colview().extension_batch(
                                    test, match_batch, slot_of(target), axis, True
                                )
                            )
                            it = zip(ev_slots, ev_hops, ev_tests)
                            pending = upfront * cost_hop
                            d_hops += upfront
                            break
                        clock.work(pending + cost_instance)
                        pending = 0.0
                        stats.intra_hops += d_hops
                        stats.node_tests += d_tests
                        stats.instances_created += 1
                        d_hops = d_tests = 0
                        yield PathInstance(
                            s_l=s_l,
                            n_l=n_l,
                            left_open=False,
                            s_r=step_index,
                            slot=slot,
                            is_border=False,
                            page_no=page_no,
                        )
                    else:
                        # stream spent: charge what follows its last
                        # event, pop back to the previous page
                        hops, tests = tail
                        clock.work(pending + hops * cost_hop + tests * cost_test)
                        pending = 0.0
                        d_hops += hops
                        d_tests += tests
                        buffer.unfix(frame)
                        frame = None
                        if not stack:
                            break
                        page_no, it, tail = stack.pop()
                        frame = buffer.fix(page_no)
                        page = frame.page
                # only hop/test deltas can be pending here: instance
                # charges always flush at their yield
                stats.intra_hops += d_hops
                stats.node_tests += d_tests
            finally:
                if frame is not None:
                    buffer.unfix(frame)
