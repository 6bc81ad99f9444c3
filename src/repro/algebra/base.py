"""Iterator protocol for physical operators.

Every operator follows the classic open/next/close discipline [Graefe 93]
the paper requires.  Concretely, subclasses implement ``_produce()`` as a
generator; ``open`` instantiates it, ``next`` advances it, ``close``
disposes of it.  This keeps operator control flow readable while staying
a strict pull-based iterator tree externally.
"""

from __future__ import annotations

from typing import Iterator

from repro.algebra.context import EvalContext
from repro.algebra.pathinstance import PathInstance
from repro.errors import PlanError


class Operator:
    """Base class for all physical operators."""

    __slots__ = ("ctx", "_iter", "_trace_t0", "_trace_out")

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self._iter: Iterator[PathInstance] | None = None
        #: open-time simulated timestamp while a trace span is live
        self._trace_t0: float | None = None
        self._trace_out = 0

    def _produce(self) -> Iterator[PathInstance]:
        raise NotImplementedError

    def open(self) -> None:
        """Prepare the operator (and its inputs) for enumeration."""
        self._iter = self._produce()
        if self.ctx.tracer is not None:
            self._trace_t0 = self.ctx.clock.now
            self._trace_out = 0

    def next(self) -> PathInstance | None:
        """Return the next result, or None when exhausted."""
        if self._iter is None:
            raise PlanError(f"{type(self).__name__}.next() before open()")
        self.ctx.charge_call()
        item = next(self._iter, None)
        tracer = self.ctx.tracer
        if tracer is not None:
            produced = item is not None
            self._trace_out += produced
            tracer.op_call(type(self).__name__, produced)
        if (san := self.ctx.san) is not None:
            # the charge sanitizer audits the clock between result
            # tuples, pinning a divergence to one operator call
            san.check()
        return item

    def close(self) -> None:
        """Release operator resources."""
        if self._iter is not None:
            self._iter.close()  # type: ignore[attr-defined]
            self._iter = None
        tracer = self.ctx.tracer
        if tracer is not None and self._trace_t0 is not None:
            tracer.op_span(
                type(self).__name__, self._trace_t0, self.ctx.clock.now, self._trace_out
            )
            self._trace_t0 = None

    def __iter__(self) -> Iterator[PathInstance]:
        """Convenience: drain the operator (used inside ``_produce``).

        The untraced path inlines :meth:`next` — the same
        ``charge_call`` cost in the same order, the same budget check,
        one generator advance — without the two extra call frames per
        item; with a tracer attached it defers to :meth:`next` so
        ``op_call`` accounting stays exact.
        """
        if self._iter is None:
            raise PlanError(f"{type(self).__name__}.next() before open()")
        ctx = self.ctx
        if ctx.tracer is not None:
            while True:
                item = self.next()
                if item is None:
                    return
                yield item
        it = self._iter
        clock = ctx.clock
        cost = ctx._cost_call
        while True:
            clock.now += cost
            clock.cpu_time += cost
            if ctx._budget is not None:
                ctx.check_budget()
            item = next(it, None)
            if item is None:
                return
            yield item
