"""The charge sanitizer: shadow accounting checked at every yield.

The engine keeps two independent sets of books for the same events: the
:class:`~repro.sim.stats.Stats` counters (incremented at charge sites)
and the tracer's mirror counters (every increment's guarded
``tracer.count`` twin — the invariant the ``tracer-mirror`` lint rule
enforces statically).  This sanitizer exploits the redundancy: at every
operator yield it diffs the two books field by field from the baselines
captured at context construction.  A site that charges ``Stats`` without
mirroring (or mirrors a different amount, or charges twice through a
layered call — the PR 3 bug class) makes the books disagree at the very
next yield, which pins the divergence to within one operator call.

The clock is checked against its own internal invariants: ``now`` is
monotone, is a whole number of ticks (:data:`~repro.sim.clock.TICK`), and
equals ``cpu_time + io_wait`` (the paper's ``total = CPU + I/O wait``
identity) with ``==`` — sums of on-grid durations are exact, so the
first duration created off the grid shows up here.

When the environment has no user tracer, ``fresh_context`` installs a
*shadow* tracer (``Tracer(shadow=True)``) so the mirrors have somewhere
to land; shadow tracers never surface in results (``trace_summary``
stays ``None``), so observable behaviour is unchanged.
"""

from __future__ import annotations

from dataclasses import fields
from math import isclose
from typing import Any

from repro.analysis.sanitize import fail
from repro.sim.clock import HORIZON, TICK
from repro.sim.stats import Stats

#: exact-agreement counters (everything except the one float field)
_INT_FIELDS: tuple[str, ...] = tuple(
    f.name for f in fields(Stats) if f.name != "backoff_wait"
)


class ChargeSanitizer:
    """Per-runtime shadow accountant (shared by views of the runtime)."""

    __slots__ = ("_stats", "_clock", "_tracer", "_base", "_mark", "_last_now")

    def __init__(self, ctx: Any) -> None:
        stats = ctx.stats
        self._stats = stats
        self._clock = ctx.clock
        self._tracer = ctx.tracer
        #: counter values at install time — warm sessions and views keep
        #: accumulating on both books, so deltas stay comparable forever
        self._base = {name: getattr(stats, name) for name in _INT_FIELDS}
        self._base["backoff_wait"] = stats.backoff_wait
        self._mark = dict(ctx.tracer.counters)
        self._last_now = ctx.clock.now

    def check(self) -> None:
        """Assert both books agree; called between result tuples."""
        clock = self._clock
        now = clock.now
        if now < self._last_now:
            fail(
                "charge",
                f"simulated clock moved backwards: {self._last_now!r} -> {now!r}",
            )
        self._last_now = now
        # exact below the horizon; past it only the request in flight
        # finishes (SimClock.checkpoint refuses the next)
        if now < HORIZON:
            if now != clock.cpu_time + clock.io_wait:
                fail(
                    "charge",
                    f"clock identity broken: now={now!r} but cpu_time + io_wait = "
                    f"{clock.cpu_time + clock.io_wait!r} "
                    f"(cpu={clock.cpu_time!r}, io_wait={clock.io_wait!r})",
                )
            if not (now / TICK).is_integer():
                fail(
                    "charge",
                    f"simulated clock left the time grid: now={now!r} is "
                    f"{now / TICK!r} ticks — some duration was created without on_grid()",
                )
        stats = self._stats
        counters = self._tracer.counters
        base = self._base
        mark = self._mark
        for name in _INT_FIELDS:
            charged = getattr(stats, name) - base[name]
            mirrored = counters.get(name, 0) - mark.get(name, 0)
            if charged != mirrored:
                fail(
                    "charge",
                    f"stats.{name} moved by {charged} since the baseline but "
                    f"its tracer mirror moved by {mirrored}: a charge site is "
                    "double-charging, under-charging, or missing its mirror",
                    details={"field": name, "charged": charged, "mirrored": mirrored},
                )
        charged_f = stats.backoff_wait - base["backoff_wait"]
        mirrored_f = counters.get("backoff_wait", 0) - mark.get("backoff_wait", 0)
        if not isclose(charged_f, mirrored_f, rel_tol=1e-9, abs_tol=1e-9):
            fail(
                "charge",
                f"stats.backoff_wait moved by {charged_f!r} but its tracer "
                f"mirror moved by {mirrored_f!r}",
            )
