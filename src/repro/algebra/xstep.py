"""XStep: intra-cluster step evaluation (paper Sec. 5.3.2).

XStep performs all of the *cheap* navigation in cost-sensitive plans.
It extends applicable path instances by one step using intra-cluster
edges only; a border encountered during enumeration is returned as a
right-incomplete path instance instead of being crossed.  Non-applicable
instances pass through unchanged.

In fallback mode (Sec. 5.4.6) XStep behaves as a plain Unnest-Map:
:func:`extend_full` runs the walker Unnest-Map runs,
:func:`~repro.algebra.fullnav.full_step`.

This operator is the *scalar* datapath (``EvalOptions.batched`` off);
batched plans run the step chain inside XAssembly's fused kernel, which
replays this chain's charges exactly and shares :func:`extend_full`.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep
from repro.errors import PlanError
from repro.storage.nav import iter_axis, iter_resume


class XStep(Operator):
    """Extend path instances by step ``step_index`` without leaving the cluster."""

    __slots__ = ("producer", "step_index", "step")

    def __init__(
        self,
        ctx: EvalContext,
        producer: Operator,
        step_index: int,
        step: CompiledStep,
    ) -> None:
        super().__init__(ctx)
        if step.predicates:
            raise PlanError(
                "XStep does not evaluate nested predicates "
                "(paper: instances with more than two incomplete ends are future work)"
            )
        self.producer = producer
        self.step_index = step_index
        self.step = step

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    # ------------------------------------------------------------- pipeline

    def _applicable(self, p: PathInstance) -> bool:
        if p.s_r != self.step_index - 1:
            return False
        # a paused (right-incomplete) instance is only applicable when the
        # I/O operator re-delivered it at its entry border (resumed)
        return not p.is_border or p.resumed

    def _produce(self) -> Iterator[PathInstance]:
        for p in self.producer:
            if not self._applicable(p):
                yield p
                continue
            if self.ctx.fallback:
                yield from extend_full(self.ctx, self.step, self.step_index, p)
            else:
                yield from self._extend_intra(p)

    def _extend_intra(self, p: PathInstance) -> Iterator[PathInstance]:
        ctx = self.ctx
        page = pinned_page(ctx, self.step_index, p)
        if p.resumed:
            nav = iter_resume(page, p.slot, self.step.axis, ctx.charge_hop)
        else:
            nav = iter_axis(page, p.slot, self.step.axis, ctx.charge_hop)
        test = self.step.match
        # the innermost loop of every navigational plan: bind everything
        # once and inline charge_test/charge_instance (same simulated
        # amounts, no method-call overhead per candidate)
        records = page.records
        page_no = page.page_no
        clock = ctx.clock
        stats = ctx.stats
        cost_test = ctx._cost_test
        cost_instance = ctx._cost_instance
        s_l, n_l, left_open = p.s_l, p.n_l, p.left_open
        step_index = self.step_index
        for is_border, slot in nav:
            if is_border:
                stats.border_crossings_deferred += 1
                stats.instances_created += 1
                clock.now += cost_instance
                clock.cpu_time += cost_instance
                yield PathInstance(
                    s_l=s_l,
                    n_l=n_l,
                    left_open=left_open,
                    s_r=step_index - 1,
                    slot=slot,
                    is_border=True,
                    page_no=page_no,
                )
            else:
                record = records[slot]
                clock.now += cost_test
                clock.cpu_time += cost_test
                stats.node_tests += 1
                if test(record.kind, record.tag):
                    clock.now += cost_instance
                    clock.cpu_time += cost_instance
                    stats.instances_created += 1
                    yield PathInstance(
                        s_l=s_l,
                        n_l=n_l,
                        left_open=left_open,
                        s_r=step_index,
                        slot=slot,
                        is_border=False,
                        page_no=page_no,
                    )


def pinned_page(ctx: EvalContext, step_index: int, p: PathInstance):
    """The current cluster's page; instances in flight must live on it."""
    frame = ctx.current_frame
    if frame is None or (p.page_no is not None and p.page_no != frame.page.page_no):
        raise PlanError(
            f"XStep {step_index}: instance references page {p.page_no}, "
            f"current cluster is "
            f"{frame.page.page_no if frame else None}"
        )
    return frame.page


def extend_full(
    ctx: EvalContext, step: CompiledStep, step_index: int, p: PathInstance
) -> Iterator[PathInstance]:
    """Fallback: unrestricted navigation, as an Unnest-Map would do —
    :func:`~repro.algebra.fullnav.full_step` from ``p``'s right end,
    each match an instance that keeps ``p``'s left end."""
    assert p.page_no is not None
    s_l, n_l, left_open = p.s_l, p.n_l, p.left_open
    for page_no, slot in full_step(
        ctx, step, p.page_no, p.slot, resumed=p.resumed, instances=True
    ):
        yield PathInstance(s_l, n_l, left_open, step_index, slot, False, False, page_no)
