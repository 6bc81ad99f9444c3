"""Simulated time.

All times in the simulation are expressed in (fractional) seconds.  The
clock tracks the CPU timeline; the disk keeps its own internal timeline and
the two are merged whenever the CPU blocks on an I/O completion, which is
how asynchronous I/O overlaps computation and disk service in this model.

The clock keeps two running sums:

* ``now`` — the current time, advanced by CPU work
  (:meth:`SimClock.work`) and by blocking on the disk
  (:meth:`SimClock.wait_until`),
* ``io_wait`` — the part of ``now`` spent blocked waiting for the disk.

``cpu_time`` is derived: ``now - io_wait``.  These are the "total" and
"CPU" columns of Table 3 in the paper (``total = cpu_time + io_wait``),
and the identity holds by construction.  The CPU seconds are not a
third book either: every charge goes with the ``Stats`` counter that
prices it, so ``cpu_time == costs.price(stats)``
(:meth:`repro.sim.costmodel.CostModel.price`).

Simulated time lives on a grid: every duration is snapped to a whole
number of ticks (:data:`TICK`) where it is created (:func:`on_grid`), and sums,
maxima and differences of on-grid values below :data:`HORIZON` are exact
in a double.  So both identities hold with ``==``, and the order in
which charges are added cannot change a total (docs/simulation.md).
"""

from __future__ import annotations

from repro.errors import ClockHorizonError

#: the grid of simulated time: 2**-36 s (14.6 ps)
TICK = 2.0**-36
#: on-grid values below 2**17 s (36 simulated hours) add exactly in a double
HORIZON = 2.0**17


def on_grid(seconds: float) -> float:
    """``seconds`` rounded to the nearest whole number of ticks."""
    return round(seconds / TICK) * TICK


class SimClock:
    """A monotonically advancing simulated CPU clock."""

    __slots__ = ("now", "io_wait")

    def __init__(self) -> None:
        self.now = 0.0
        self.io_wait = 0.0

    @property
    def cpu_time(self) -> float:
        """Time spent executing: everything not spent waiting on the disk."""
        return self.now - self.io_wait

    def work(self, seconds: float) -> None:
        """Advance the clock by ``seconds`` of CPU work."""
        if seconds < 0.0:
            raise ValueError(f"negative work duration: {seconds}")
        self.now += seconds

    def wait_until(self, t: float) -> None:
        """Block (idle) until simulated time ``t``.

        If ``t`` is in the past, this is a no-op: the event we waited for
        already happened while the CPU was doing other work.
        """
        if t > self.now:
            self.io_wait += t - self.now
            self.now = t

    def checkpoint(self) -> tuple[float, float, float]:
        """Return ``(now, cpu_time, io_wait)`` for differential measurement.

        Every request starts with one, which makes this the place a clock
        past :data:`HORIZON` is refused — between requests, never mid-query.
        """
        if self.now >= HORIZON:
            raise ClockHorizonError(self.now)
        return (self.now, self.cpu_time, self.io_wait)

    def since(self, mark: tuple[float, float, float]) -> tuple[float, float, float]:
        """Return elapsed ``(total, cpu, io_wait)`` since ``mark``."""
        return (self.now - mark[0], self.cpu_time - mark[1], self.io_wait - mark[2])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimClock(now={self.now:.6f}, cpu={self.cpu_time:.6f}, "
            f"io_wait={self.io_wait:.6f})"
        )
