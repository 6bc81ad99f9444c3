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
from repro.errors import PlanError


class Operator:
    """Base class for all physical operators."""

    __slots__ = ("ctx", "_iter", "_trace_t0", "_trace_out")

    def __init__(self, ctx: EvalContext) -> None:
        self.ctx = ctx
        self._iter: Iterator | None = None
        #: open-time simulated timestamp while a trace span is live
        self._trace_t0: float | None = None
        self._trace_out = 0

    def _produce(self) -> Iterator:
        raise NotImplementedError

    def open(self) -> None:
        """Prepare the operator (and its inputs) for enumeration."""
        self._iter = self._produce()
        if self.ctx.tracer is not None:
            self._trace_t0 = self.ctx.clock.now
            self._trace_out = 0

    def next(self):
        """Return the next item — an instance as XSchedule's queue tuple
        or an :class:`~repro.algebra.pathinstance.EntryRun` on its way
        into the path kernel, a NodeID from a plan's top, from ``ContextScan`` and
        along the Simple chain — or None when exhausted."""
        if self._iter is None:
            raise PlanError(f"{type(self).__name__}.next() before open()")
        self.ctx.charge_call()
        item = next(self._iter, None)
        tracer = self.ctx.tracer
        if tracer is not None:
            produced = item is not None
            self._trace_out += produced
            tracer.op_call(type(self).__name__, produced)
        return item

    def take_run(self):
        """The :class:`~repro.algebra.pathinstance.EntryRun` the next
        pull would deliver, drawn without the pull, or None: the pull has
        to run.  Only the speculating producers (XScan, XSchedule, the
        shared scan's replay) ever hand a run over in place; the path
        kernel asks right after it took a run in from its tape."""
        return None

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

    def __iter__(self) -> Iterator:
        """Drain the operator: the pull loop of every consumer, the plan
        tops' drains (:func:`~repro.algebra.misc.result_nodeids` and its
        peers) as well as the operators that read an input inside
        ``_produce``.

        It inlines :meth:`next` — the same ``charge_call`` cost in the
        same order, the same budget check, one generator advance —
        without the two extra call frames per item; with a tracer
        attached it defers to :meth:`next`, so ``op_call`` accounting
        stays exact.
        """
        if self._iter is None:
            raise PlanError(f"{type(self).__name__}.next() before open()")
        ctx = self.ctx
        if ctx.tracer is not None:
            while (item := self.next()) is not None:
                yield item
            return
        it = self._iter
        stats = ctx.stats
        while True:
            stats.iterator_calls += 1
            if ctx._budget is not None:
                ctx.check_budget()
            item = next(it, None)
            if item is None:
                return
            yield item
