"""The charge sanitizer: the simulated clock audited at every yield.

Counters have one book (:class:`~repro.sim.stats.Stats`), and what they
must come to is pinned by the golden draws (``tests/golden.py``).  CPU
time is not a book of its own: every charge to the clock goes with the
counter its :class:`~repro.sim.costmodel.CostModel` constant prices, so
at every operator yield the clock's CPU seconds must equal the counters
priced, ``clock.cpu_time == costs.price(stats)``, with ``==`` (sums of
on-grid durations are exact).  A charge without its counter, a counter
without its charge, or time moved outside every counter, is pinned to
within one operator call.  ``now`` must also be monotone and a whole
number of ticks (:data:`~repro.sim.clock.TICK`), so the first duration
created off the grid shows where it lands; a yield that breaks both
reports both.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.sanitize import fail
from repro.sim.clock import HORIZON, TICK


class ChargeSanitizer:
    """Per-runtime clock auditor (shared by views of the runtime)."""

    __slots__ = ("_clock", "_costs", "_stats", "_last_now")

    def __init__(self, ctx: Any) -> None:
        self._clock = ctx.clock
        self._costs = ctx.costs
        self._stats = ctx.stats
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
            broken = []
            priced = self._costs.price(self._stats)
            if clock.cpu_time != priced:
                broken.append(
                    f"CPU identity broken: cpu_time={clock.cpu_time!r} but the "
                    f"counters price to {priced!r}"
                )
            if not (now / TICK).is_integer():
                broken.append(
                    f"simulated clock left the time grid: now={now!r} is "
                    f"{now / TICK!r} ticks — some duration was created without on_grid()"
                )
            if broken:
                fail("charge", "; ".join(broken))
