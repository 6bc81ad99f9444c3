"""Unnest-Map: the Simple method's step operator (paper Sec. 5.1).

One Unnest-Map per location step; each reads complete path instances and
extends them by one step using *full-tree* navigation — every border
crossing pays a swizzle and, on a miss, synchronous I/O immediately.
This is the baseline the cost-sensitive plans are measured against.

The navigation is :func:`~repro.algebra.fullnav.full_step`, the one
full-tree walker: the operator filters its matches by the step's
predicates (themselves paths over the same walker) and wraps what is
left as path instances.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.base import Operator
from repro.algebra.context import EvalContext
from repro.algebra.fullnav import full_step, predicate_holds
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledStep


class UnnestMap(Operator):
    """Extend complete path instances by one location step."""

    __slots__ = ("producer", "step_index", "step")

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

    def open(self) -> None:
        self.producer.open()
        super().open()

    def close(self) -> None:
        super().close()
        self.producer.close()

    def _produce(self) -> Iterator[PathInstance]:
        ctx = self.ctx
        step = self.step
        step_index = self.step_index
        predicates = step.predicates
        for p in self.producer:
            assert p.page_no is not None and not p.is_border
            s_l = p.s_l
            n_l = p.n_l
            # without predicates every match is an instance, and the
            # walker charges it in the flush it makes for the match
            for page_no, slot in full_step(
                ctx, step, p.page_no, p.slot, step_index=step_index, instances=not predicates
            ):
                if predicates:
                    if not all(predicate_holds(ctx, page_no, slot, q) for q in predicates):
                        continue
                    ctx.charge_instance()
                # left end kept, right end complete at the match, off-cluster
                yield PathInstance(s_l, n_l, False, step_index, slot, False, False, page_no)
