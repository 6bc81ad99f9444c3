"""The charge sanitizer: the simulated clock audited at every yield.

Counters have one book (:class:`~repro.sim.stats.Stats`), so there is
nothing to diff them against here; what they must equal across the
scalar chain and the fused kernel is asserted by
``tests/property/test_batched_prop.py``.  Time is different — three
running sums that every charge site advances by hand — so the clock is
checked against its own internal invariants at every operator yield:
``now`` is monotone, is a whole number of ticks
(:data:`~repro.sim.clock.TICK`), and equals ``cpu_time + io_wait`` (the
paper's ``total = CPU + I/O wait`` identity) with ``==`` — sums of
on-grid durations are exact, so the first duration created off the grid,
or charged to one sum and not the other, is pinned to within one
operator call.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.sanitize import fail
from repro.sim.clock import HORIZON, TICK


class ChargeSanitizer:
    """Per-runtime clock auditor (shared by views of the runtime)."""

    __slots__ = ("_clock", "_last_now")

    def __init__(self, ctx: Any) -> None:
        self._clock = ctx.clock
        self._last_now = ctx.clock.now

    def check(self) -> None:
        """Assert the clock invariants; called between result tuples."""
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
