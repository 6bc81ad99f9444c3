"""The determinism sanitizer: double execution, diffed tick for tick.

Reproducibility is the repository's first-order deliverable: two cold
runs of the same query must agree bit for bit — value, result nodes,
every counter, every simulated timestamp.  Static taint rules catch the
common sources (set iteration, ``id()`` keys, wall clocks), but cannot
prove the property.  This sanitizer measures it: after each cold
:meth:`Database.execute <repro.engine.Database.execute>`, the compiled
plan is re-executed on a private shadow runtime (same wiring, fresh
clock/buffer/fault plan, its own tracer when the primary run had one)
and the two runs are diffed.

The shadow runtime is built through
:meth:`~repro.exec.environment.ExecutionEnvironment.shadow_context`, so
it does not count towards ``contexts_built``, never installs sanitizers
of its own, and never touches the user's tracer — the primary run's
observable outcome is byte-identical with the sanitizer on or off.

When the primary run was traced, the event streams are compared tick
for tick: same length, and each event agrees on timestamp, category,
name, page and duration.  Event comparison is skipped only if the
primary tracer's bounded ring already dropped part of the run.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.sanitize import fail
from repro.obs.tracer import Tracer


def recheck(
    env: Any,
    compiled: Any,
    options: Any,
    value: Any,
    nodes: Any,
    stats: Any,
    clock: tuple[float, float, float],
    tracer: Tracer | None,
    events_start: int,
) -> None:
    """Re-execute ``compiled`` cold and diff against the primary run.

    ``value``/``nodes``/``stats``/``clock`` are the primary run's outcome
    (the context was cold, so its totals are the run's totals);
    ``tracer``/``events_start`` locate the primary run's event slice.
    """
    # traced like the primary run, on a private tracer
    ctx = env.shadow_context(
        options, tracer=Tracer() if tracer is not None else None
    )
    value2, nodes2 = compiled.execute(ctx)

    if value2 != value:
        fail(
            "determinism",
            f"re-execution returned a different value: {value!r} vs {value2!r}",
        )
    if list(nodes or ()) != list(nodes2 or ()):
        fail(
            "determinism",
            f"re-execution returned different result nodes "
            f"({len(nodes or ())} vs {len(nodes2 or ())}, or same count in a "
            "different order)",
            details={"first": nodes, "second": nodes2},
        )
    for name, first in stats.as_dict().items():
        second = getattr(ctx.stats, name)
        if first != second:
            fail(
                "determinism",
                f"stats.{name} differs between executions: {first!r} vs {second!r}",
            )
    clock2 = (ctx.clock.now, ctx.clock.cpu_time, ctx.clock.io_wait)
    if clock2 != clock:
        fail(
            "determinism",
            f"simulated clock differs between executions: "
            f"(now, cpu, io_wait) = {clock!r} vs {clock2!r}",
        )
    if tracer is not None:
        _diff_events(tracer, events_start, ctx.tracer)


def _diff_events(tracer: Tracer, events_start: int, shadow_tracer: Tracer) -> None:
    """Tick-for-tick comparison of the two runs' trace event streams."""
    dropped = tracer.events_recorded - len(tracer.events)
    start = events_start - dropped
    if start < 0:
        return  # the ring already dropped part of the primary run
    first = list(tracer.events)[start:]
    second = list(shadow_tracer.events)
    if len(first) != len(second):
        fail(
            "determinism",
            f"trace event streams differ in length: {len(first)} vs {len(second)}",
        )
    for index, (a, b) in enumerate(zip(first, second)):
        if (a.ts, a.cat, a.name, a.page, a.dur) != (b.ts, b.cat, b.name, b.page, b.dur):
            fail(
                "determinism",
                f"trace event {index} differs between executions: "
                f"{a!r} vs {b!r}",
            )
