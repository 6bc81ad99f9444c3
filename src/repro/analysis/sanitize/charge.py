"""The charge sanitizer: the simulated clock audited at every yield.

CPU time is not a book of its own: the clock reads its CPU seconds off
the counters (:class:`~repro.sim.clock.SimClock`), so a charge without
its counter cannot happen, and what the counters must come to is pinned
by the golden draws (``tests/golden.py``).  What can still break is the
time itself: ``now`` must be monotone — a priced counter booked
backwards shows — and a whole number of ticks
(:data:`~repro.sim.clock.TICK`), so the first duration created off the
grid shows where it lands.  Checked at every operator yield and every
in-place take, a yield that breaks both reports both.
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
        now = self._clock.now
        broken = []
        if now < self._last_now:
            broken.append(f"simulated clock moved backwards: {self._last_now!r} -> {now!r}")
        self._last_now = now
        # exact below the horizon; past it only the request in flight
        # finishes (SimClock.checkpoint refuses the next)
        if now < HORIZON and not (now / TICK).is_integer():
            broken.append(
                f"simulated clock left the time grid: now={now!r} is "
                f"{now / TICK!r} ticks — some duration was created without on_grid()"
            )
        if broken:
            fail("charge", "; ".join(broken))
