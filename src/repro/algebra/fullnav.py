"""Full-tree navigation: location steps that cross cluster borders.

This is the navigation style of the paper's *Simple* method (Sec. 5.1)
and of fallback mode (Sec. 5.4.6): every border crossing immediately
swizzles and — on a buffer miss — performs synchronous I/O.  The
cost-sensitive operators exist to avoid exactly this code path.

It exists once: :func:`full_step` evaluates one location step, and
Unnest-Map, the fallback levels of the cost-sensitive plans' path kernel
(:meth:`~repro.algebra.xassembly.XAssembly._produce` calls it with the
right end in its locals), predicate paths (:func:`exists_path`) and
string values (:func:`string_value`) all run it.
"""

from __future__ import annotations

from typing import Iterator

from repro.axes import Axis
from repro.algebra.context import EvalContext
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.model.tree import Kind
from repro.storage.nodeid import page_of, slot_of

#: the text descendants a string value concatenates
_TEXT_DESCENDANTS = CompiledStep(
    Axis.DESCENDANT, CompiledNodeTest.compile("text", Axis.DESCENDANT, None)
)


def full_step(
    ctx: EvalContext,
    step: CompiledStep,
    page_no: int,
    slot: int,
    resumed: bool = False,
    step_index: int | None = None,
    instances: bool = False,
    tested: bool = True,
) -> Iterator[tuple[int, int]]:
    """One location step from ``(page_no, slot)``, borders crossed eagerly.

    Yields ``(page_no, slot)`` of every node on ``step.axis`` that passes
    the node test (predicates are the caller's), in axis order and with
    its page pinned.  ``resumed``: the start is the entry border of a
    paused step.  ``instances``: every match becomes a path instance, so
    its ``instance_op`` joins the post the match needs anyway.  A caller
    that names its ``step_index`` gets the extension's ``unnest-batch``
    trace event.  ``tested=False`` charges no node test: the caller picks
    its nodes by kind for free (:func:`string_value`).

    Charges one ``intra_hop`` per candidate past the batch's free head
    plus its upfront hops (the charge shape of
    :meth:`~repro.storage.colview.ColumnView.axis_candidates`) and one
    ``node_test`` per core candidate, without visiting every candidate: a
    page's memoised
    :meth:`~repro.storage.colview.ColumnView.extension_batch` is walked
    event by event, the hops and tests of the candidates skipped since
    the last one counted in one addition.  A border suspends the stream
    on ``stack`` and crosses with one buffer call,
    :meth:`~repro.storage.buffer.BufferManager.swap`: the source page is
    unfixed before the target is fixed, and swapped back in when the
    target's stream is spent, so only the page being navigated is pinned
    however long a continuation chain grows — the repeated swizzling the
    Simple method pays and the cost-sensitive plans avoid.  Counter
    deltas are posted to ``Stats`` before every yield and every buffer
    call (the clock reads them there: a read's submission, a tracer
    event), and on exit.
    """
    axis = step.axis
    key = step.memo_key
    match_batch = step.match_batch
    buffer = ctx.buffer
    stats = ctx.stats
    d_hops = d_tests = 0
    frame = buffer.fix(page_no)
    try:
        page = frame.page
        upfront, size, ev_slots, ev_hops, ev_tests, tail = page.colview().extension_batch(
            key, match_batch, slot, axis, resumed
        )
        if step_index is not None and ctx.tracer is not None and size:
            span = {"step": step_index, "batch_size": size}
            ctx.tracer.event(ctx.clock.now, "op", "unnest-batch", page=page_no, args=span)
        it = zip(ev_slots, ev_hops, ev_tests)
        stack = []  # suspended streams: (page_no, it, tail)
        d_hops = upfront
        while True:
            for slot, hops, tests in it:
                d_hops += hops
                d_tests += tests
                if slot < 0:
                    target = page.records[~slot].target()
                    stack.append((page_no, it, tail))
                    page_no = page_of(target)
                    stats.intra_hops += d_hops
                    stats.node_tests += d_tests if tested else 0
                    d_hops = d_tests = 0
                    # a failed read must not release this pin twice
                    released, frame = frame, None
                    frame = buffer.swap(released, page_no)
                    page = frame.page
                    upfront, _, ev_slots, ev_hops, ev_tests, tail = page.colview().extension_batch(
                        key, match_batch, slot_of(target), axis, True
                    )
                    it = zip(ev_slots, ev_hops, ev_tests)
                    d_hops = upfront
                    break
                stats.intra_hops += d_hops
                stats.node_tests += d_tests if tested else 0
                stats.instances_created += instances
                d_hops = d_tests = 0
                yield page_no, slot
            else:
                # stream spent: what follows its last event, then pop
                hops, tests = tail
                d_hops += hops
                d_tests += tests
                if not stack:
                    return  # the finally below posts and releases the pin
                stats.intra_hops += d_hops
                stats.node_tests += d_tests if tested else 0
                d_hops = d_tests = 0
                page_no, it, tail = stack.pop()
                released, frame = frame, None
                frame = buffer.swap(released, page_no)
                page = frame.page
    finally:
        stats.intra_hops += d_hops
        stats.node_tests += d_tests if tested else 0
        if frame is not None:
            buffer.unfix(frame)


def string_value(ctx: EvalContext, page_no: int, slot: int) -> str:
    """XPath string value of a node.

    Text and attribute nodes carry their value; elements (and the
    document root) concatenate the values of their text descendants in
    document order, crossing borders.  Enumerating the descendants is
    charged (hops and swizzles); picking out the text nodes is not.
    """
    record = ctx.segment.page(page_no).record(slot)
    if record.kind in (Kind.TEXT, Kind.ATTRIBUTE):
        return record.value or ""
    segment = ctx.segment
    return "".join(
        segment.page(text_page).record(text_slot).value or ""
        for text_page, text_slot in full_step(
            ctx, _TEXT_DESCENDANTS, page_no, slot, tested=False
        )
    )


def predicate_holds(
    ctx: EvalContext, page_no: int, slot: int, predicate: CompiledPredicate
) -> bool:
    """Evaluate one compiled predicate at a context node."""
    return exists_path(ctx, page_no, slot, predicate.steps, predicate)


def exists_path(
    ctx: EvalContext,
    page_no: int,
    slot: int,
    steps: list[CompiledStep],
    predicate: CompiledPredicate | None = None,
) -> bool:
    """Existence check for a relative path (predicate evaluation).

    Nested loop over :func:`full_step` with early exit; only used by the
    Simple plan.  Under a comparison ``predicate`` the node the path ends
    at — the context node itself for ``[. = "x"]`` — must also carry a
    string value it accepts.
    """
    if not steps:
        if predicate is None or predicate.op is None:
            return True
        ctx.charge_test()
        return predicate.matches_value(string_value(ctx, page_no, slot))
    step = steps[0]
    rest = steps[1:]
    for page_no, slot in full_step(ctx, step, page_no, slot):
        if all(predicate_holds(ctx, page_no, slot, nested) for nested in step.predicates):
            if exists_path(ctx, page_no, slot, rest, predicate):
                return True
    return False
