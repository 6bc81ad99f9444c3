"""Simulated time.

All times in the simulation are expressed in (fractional) seconds.  The
clock tracks the CPU timeline; the disk keeps its own internal timeline and
the two are merged whenever the CPU blocks on an I/O completion, which is
how asynchronous I/O overlaps computation and disk service in this model.

The clock stores one sum, ``io_wait``: the time spent blocked waiting
for the disk (:meth:`SimClock.wait_until`).  CPU seconds are not stored
at all: ``cpu_time`` is the runtime's ``Stats`` counters priced by its
cost model (:meth:`repro.sim.costmodel.CostModel.price`), and ``now`` is
``io_wait + cpu_time``.  These are the "total" and "CPU" columns of
Table 3 in the paper, and both identities hold by definition: a charge
*is* the counter that prices it, so nothing can move the clock without
showing in the books.

Simulated time lives on a grid: every duration is snapped to a whole
number of ticks (:data:`TICK`) where it is created (:func:`on_grid`), and sums,
maxima and differences of on-grid values below :data:`HORIZON` are exact
in a double.  So ``now`` is the same ``==`` whatever order the counters
were posted in (docs/simulation.md).  The clock is monotone and on the
grid by construction: no counter is ever decremented, every cost
constant is on the grid, and :meth:`SimClock.wait_until` refuses a time
off it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ClockHorizonError, OffGridTimeError

if TYPE_CHECKING:
    from repro.sim.costmodel import CostModel
    from repro.sim.stats import Stats

#: the grid of simulated time: 2**-36 s (14.6 ps)
TICK = 2.0**-36
#: on-grid values below 2**17 s (36 simulated hours) add exactly in a double
HORIZON = 2.0**17


def on_grid(seconds: float) -> float:
    """``seconds`` rounded to the nearest whole number of ticks."""
    return round(seconds / TICK) * TICK


class SimClock:
    """A monotonically advancing simulated CPU clock over one runtime's
    ``stats``, priced by ``costs``."""

    __slots__ = ("stats", "costs", "io_wait")

    def __init__(self, stats: Stats, costs: CostModel) -> None:
        self.stats = stats
        self.costs = costs
        self.io_wait = 0.0

    @property
    def cpu_time(self) -> float:
        """Time spent executing: the counters priced."""
        return self.costs.price(self.stats)

    @property
    def now(self) -> float:
        """The current time: waiting on the disk plus executing."""
        return self.io_wait + self.costs.price(self.stats)

    def wait_until(self, t: float) -> float:
        """Block (idle) until simulated time ``t``; return the time it is
        then (a caller need not read the clock again).

        If ``t`` is in the past, this is a no-op: the event we waited for
        already happened while the CPU was doing other work.  A ``t`` below
        :data:`HORIZON` that would move the clock must be on the grid
        (:class:`~repro.errors.OffGridTimeError` otherwise): the disk's
        times are the one input of the clock that no counter prices.
        """
        now = self.io_wait + self.costs.price(self.stats)
        if t > now:
            if t < HORIZON and not (t / TICK).is_integer():
                raise OffGridTimeError(t)
            self.io_wait += t - now
            return t
        return now

    def checkpoint(self) -> tuple[float, float, float]:
        """Return ``(now, cpu_time, io_wait)`` for differential measurement.

        Every request starts with one, which makes this the place a clock
        past :data:`HORIZON` is refused — between requests, never mid-query.
        """
        cpu = self.costs.price(self.stats)
        now = self.io_wait + cpu
        if now >= HORIZON:
            raise ClockHorizonError(now)
        return (now, cpu, self.io_wait)

    def since(self, mark: tuple[float, float, float]) -> tuple[float, float, float]:
        """Return elapsed ``(total, cpu, io_wait)`` since ``mark``."""
        cpu = self.costs.price(self.stats)
        return (self.io_wait + cpu - mark[0], cpu - mark[1], self.io_wait - mark[2])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimClock(now={self.now:.6f}, cpu={self.cpu_time:.6f}, "
            f"io_wait={self.io_wait:.6f})"
        )
