"""Full-tree navigation: location steps that cross cluster borders.

This is the navigation style of the paper's *Simple* method (Sec. 5.1)
and of fallback mode (Sec. 5.4.6): every border crossing immediately
swizzles and — on a buffer miss — performs synchronous I/O.  The
cost-sensitive operators exist to avoid exactly this code path.

It exists once: :func:`full_step` evaluates one location step, and
Unnest-Map, the fallback levels of the cost-sensitive plans
(:func:`~repro.algebra.xstep.extend_full`) and predicate paths
(:func:`exists_path`) all run it.  :func:`string_value` enumerates an
axis without testing its candidates, which is not a step: it alone keeps
:func:`full_axis`, the record-at-a-time reference of the walker.
"""

from __future__ import annotations

from typing import Iterator

from repro.axes import Axis
from repro.algebra.context import EvalContext
from repro.algebra.steps import CompiledPredicate, CompiledStep
from repro.model.tree import Kind
from repro.storage.nav import iter_axis, iter_resume
from repro.storage.nodeid import page_of, slot_of
from repro.storage.record import BorderRecord


def full_axis(
    ctx: EvalContext, page_no: int, slot: int, axis: Axis, resumed: bool = False
) -> Iterator[tuple[int, int]]:
    """Apply ``axis`` from ``(page_no, slot)``, crossing borders eagerly.

    Yields ``(page_no, slot)`` of core candidate nodes.  ``resumed`` means
    the starting slot is an entry border record of a paused step (used by
    fallback XStep on instances delivered from XSchedule's queue).

    Implemented iteratively with an explicit stack: only the page being
    navigated is pinned.  Descending across a border unfixes the source
    page and returning to it re-fixes it (another buffer-hash lookup, and
    another read if it was evicted meanwhile) — exactly the repeated
    swizzling cost the Simple method pays and the cost-sensitive plans
    avoid.  Continuation chains in wide child lists can be hundreds of
    crossings long, so neither recursion depth nor pin count may grow
    with them.
    """
    frame = ctx.buffer.fix(page_no)
    nav = (
        iter_resume(frame.page, slot, axis, ctx.charge_hop)
        if resumed
        else iter_axis(frame.page, slot, axis, ctx.charge_hop)
    )
    stack: list[tuple[int, object]] = [(page_no, nav)]
    try:
        while stack:
            page_no, nav = stack[-1]
            item = next(nav, None)  # type: ignore[call-overload]
            if item is None:
                stack.pop()
                ctx.buffer.unfix(frame)
                frame = None
                if stack:
                    frame = ctx.buffer.fix(stack[-1][0])
                continue
            is_border, s = item
            if not is_border:
                yield (page_no, s)
                continue
            record = frame.page.record(s)
            assert isinstance(record, BorderRecord)
            target = record.target()
            target_page = page_of(target)
            ctx.buffer.unfix(frame)
            frame = None  # a failed read must not release this pin twice
            frame = ctx.buffer.fix(target_page)
            stack.append(
                (target_page, iter_resume(frame.page, slot_of(target), axis, ctx.charge_hop))
            )
    finally:
        if frame is not None and stack:
            ctx.buffer.unfix(frame)


def full_step(
    ctx: EvalContext,
    step: CompiledStep,
    page_no: int,
    slot: int,
    resumed: bool = False,
    step_index: int | None = None,
    instances: bool = False,
) -> Iterator[tuple[int, int]]:
    """One location step from ``(page_no, slot)``, borders crossed eagerly.

    Yields ``(page_no, slot)`` of every node on ``step.axis`` that passes
    the node test (predicates are the caller's), in :func:`full_axis`'s
    order and with its page pinned.  ``resumed``: the start is the entry
    border of a paused step.  ``instances``: every match becomes a path
    instance, so its ``instance_op`` joins the flush the match needs
    anyway.  A caller that names its ``step_index`` gets the extension's
    ``unnest-batch`` trace event.

    Charges what :func:`full_axis` and one ``charge_test`` per candidate
    would without visiting every candidate: a page's memoised
    :meth:`~repro.storage.colview.ColumnView.extension_batch` is walked
    event by event, the hops and tests of the candidates skipped since
    the last one charged in one multiply.  A border suspends the stream
    on ``stack`` and crosses, unfixing and fixing in :func:`full_axis`'s
    order.  ``pending`` goes onto the clock before every yield and every
    buffer call (``fix``/``unfix`` advance it and stamp tracer events
    with it), counter deltas onto ``Stats`` before every yield and on
    exit.  Time is on a grid, so the sums are exact and everything equals
    the reference loop that runs with ``EvalOptions.batched`` off.
    """
    if not ctx.options.batched:
        match = step.match
        for page_no, slot in full_axis(ctx, page_no, slot, step.axis, resumed):
            record = ctx.segment.page(page_no).record(slot)
            ctx.charge_test()
            if match(record.kind, record.tag):
                if instances:
                    ctx.charge_instance()
                yield page_no, slot
        return
    axis = step.axis
    test = step.test
    match_batch = step.match_batch
    buffer = ctx.buffer
    clock = ctx.clock
    stats = ctx.stats
    cost_hop = ctx._cost_hop
    cost_test = ctx._cost_test
    cost_match = ctx._cost_instance if instances else 0.0
    d_hops = d_tests = 0
    frame = buffer.fix(page_no)
    try:
        page = frame.page
        upfront, size, ev_slots, ev_hops, ev_tests, tail = page.colview().extension_batch(
            test, match_batch, slot, axis, resumed
        )
        if step_index is not None and ctx.tracer is not None and size:
            span = {"step": step_index, "batch_size": size}
            ctx.tracer.event(clock.now, "op", "unnest-batch", page=page_no, args=span)
        it = zip(ev_slots, ev_hops, ev_tests)
        stack = []  # suspended streams: (page_no, it, tail)
        pending = upfront * cost_hop
        d_hops = upfront
        while True:
            for slot, hops, tests in it:
                pending += hops * cost_hop + tests * cost_test
                d_hops += hops
                d_tests += tests
                if slot < 0:
                    target = page.records[~slot].target()
                    stack.append((page_no, it, tail))
                    page_no = page_of(target)
                    clock.work(pending)
                    buffer.unfix(frame)
                    frame = None  # a failed read must not release this pin twice
                    frame = buffer.fix(page_no)
                    page = frame.page
                    upfront, _, ev_slots, ev_hops, ev_tests, tail = page.colview().extension_batch(
                        test, match_batch, slot_of(target), axis, True
                    )
                    it = zip(ev_slots, ev_hops, ev_tests)
                    pending = upfront * cost_hop
                    d_hops += upfront
                    break
                clock.work(pending + cost_match)
                pending = 0.0
                stats.intra_hops += d_hops
                stats.node_tests += d_tests
                stats.instances_created += instances
                d_hops = d_tests = 0
                yield page_no, slot
            else:
                # stream spent: charge what follows its last event, pop
                hops, tests = tail
                clock.work(pending + hops * cost_hop + tests * cost_test)
                pending = 0.0
                d_hops += hops
                d_tests += tests
                buffer.unfix(frame)
                frame = None
                if not stack:
                    return
                page_no, it, tail = stack.pop()
                frame = buffer.fix(page_no)
                page = frame.page
    finally:
        stats.intra_hops += d_hops
        stats.node_tests += d_tests
        if frame is not None:
            buffer.unfix(frame)


def string_value(ctx: EvalContext, page_no: int, slot: int) -> str:
    """XPath string value of a node.

    Text and attribute nodes carry their value; elements (and the
    document root) concatenate the values of their text descendants in
    document order — crossing borders, as ``full_axis`` does.
    """
    record = ctx.segment.page(page_no).record(slot)
    if record.kind in (Kind.TEXT, Kind.ATTRIBUTE):
        return record.value or ""
    pieces: list[str] = []
    for text_page, text_slot in full_axis(ctx, page_no, slot, Axis.DESCENDANT):
        descendant = ctx.segment.page(text_page).record(text_slot)
        if descendant.kind == Kind.TEXT:
            pieces.append(descendant.value or "")
    return "".join(pieces)


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
