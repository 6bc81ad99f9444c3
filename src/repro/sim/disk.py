"""Simulated disk device with an on-controller request queue.

The paper's performance argument rests on three physical facts:

1. random page accesses pay a seek (distance-dependent) plus rotational
   latency, while sequential accesses pay only transfer time;
2. a queue of outstanding asynchronous requests lets the controller
   reorder them to minimise head movement (SCSI tagged command queuing,
   Sec. 3.7);
3. a single sequential scan is the cheapest way to touch every page.

This module models exactly those three facts.  Pages are laid out linearly
on a logical track; the seek curve is the classic square-root-of-distance
model; requests are served one at a time by a controller that picks the
next request from its queue according to a :class:`SchedulingPolicy`.

The device keeps its own timeline (``busy_until``) which is merged with the
CPU clock by the caller: synchronous reads block the CPU, asynchronous
requests let disk service overlap CPU work.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass

from repro.errors import DiskProgressError
from repro.sim.clock import on_grid
from repro.sim.faults import FaultPlan, Outcome
from repro.sim.stats import Stats


class SchedulingPolicy(enum.Enum):
    """How the controller picks the next request from its queue."""

    FIFO = "fifo"  #: strict submission order (no reordering)
    SSTF = "sstf"  #: shortest seek time first
    CLOOK = "clook"  #: circular elevator (ascending sweep, wrap around)


@dataclass(frozen=True, slots=True)
class DiskGeometry:
    """Physical parameters of the simulated device.

    The defaults model a circa-2005 7200 rpm SCSI drive: ~0.8 ms
    track-to-track seek, ~12 ms full-stroke seek, 4.17 ms revolution
    (2 ms average rotational latency charged per non-sequential access)
    and ~60 MB/s sequential transfer.
    """

    page_size: int = 8192  #: bytes per page; the unit of I/O and clustering
    min_seek: float = 0.0008  #: seconds; track-to-track settle time
    seek_factor: float = 7.0e-5  #: seconds per sqrt(page distance)
    full_seek: float = 0.012  #: seconds; cap for the seek curve
    rotational_latency: float = 0.0026  #: seconds; charged per random access
    #: bytes/second effective page-granular streaming rate; lower than raw
    #: media bandwidth because every page read pays per-command controller
    #: and DMA overhead
    transfer_rate: float = 20.0e6

    @property
    def transfer_time(self) -> float:
        """Seconds to transfer one page once the head is positioned."""
        return self.page_size / self.transfer_rate

    def seek_time(self, distance: int) -> float:
        """Seconds to move the head ``distance`` pages (0 => no seek)."""
        if distance <= 0:
            return 0.0
        return min(self.full_seek, self.min_seek + self.seek_factor * math.sqrt(distance))


class Request:
    """One outstanding page-read request."""

    __slots__ = ("page", "submit_time", "start_time", "done_time", "seq", "outcome")

    def __init__(self, page: int, submit_time: float, seq: int) -> None:
        self.page = page
        self.submit_time = submit_time
        self.start_time: float | None = None
        self.done_time: float | None = None
        self.seq = seq
        #: physical outcome, decided by the fault plan at service start
        self.outcome: Outcome = Outcome.OK

    @property
    def failed(self) -> bool:
        return self.outcome is Outcome.ERROR

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Request(page={self.page}, submit={self.submit_time:.6f}, "
            f"done={self.done_time}, outcome={self.outcome.value})"
        )


class DiskDevice:
    """Event-driven disk: submit requests, advance time, pop completions.

    The device never looks into the future: a service can only start at a
    time ``s`` choosing among requests already submitted at ``s``.  This is
    what makes the asynchronous-queue reordering honest — the benefit of a
    deep queue is that more candidates are visible when the head frees up.
    """

    __slots__ = (
        "geometry",
        "policy",
        "stats",
        "tracer",
        "faults",
        "head",
        "busy_until",
        "_pending",
        "_in_flight",
        "_completed",
        "_seq",
    )

    def __init__(
        self,
        geometry: DiskGeometry | None = None,
        policy: SchedulingPolicy = SchedulingPolicy.SSTF,
        stats: Stats | None = None,
        faults: FaultPlan | None = None,
        tracer=None,
    ) -> None:
        self.geometry = geometry or DiskGeometry()
        self.policy = policy
        self.stats = stats if stats is not None else Stats()
        self.tracer = tracer
        #: fault plan consulted per service attempt; None = perfect disk
        self.faults = faults
        #: page number the head is positioned at (page following the last read)
        self.head = 0
        self.busy_until = 0.0
        self._pending: list[Request] = []
        self._in_flight: Request | None = None
        self._completed: deque[Request] = deque()
        self._seq = 0

    # ------------------------------------------------------------------ API

    def submit(self, page: int, now: float) -> Request:
        """Queue a read of ``page`` at simulated time ``now``."""
        if page < 0:
            raise ValueError(f"negative page number: {page}")
        req = Request(page, now, self._seq)
        self._seq += 1
        self._pending.append(req)
        self.stats.io_requests += 1
        if self.tracer is not None:
            self.tracer.event(now, "disk", "enqueue", page=page)
        return req

    def queued(self, page: int) -> bool:
        """True if a request for ``page`` is pending or in flight."""
        if self._in_flight is not None and self._in_flight.page == page:
            return True
        return any(r.page == page for r in self._pending)

    def outstanding(self) -> int:
        """Number of requests submitted but not yet retrievable."""
        return len(self._pending) + (1 if self._in_flight is not None else 0)

    def pop_completed(self, now: float) -> Request | None:
        """Return one completed request (oldest completion first), or None.

        Advances the device's internal service simulation up to ``now``
        first, so everything that physically finished by ``now`` is
        retrievable.
        """
        self._advance(now)
        if self._completed:
            return self._completed.popleft()
        return None

    def run_until_completion(self, now: float) -> float | None:
        """Let the disk run (possibly past ``now``) until a completion exists.

        Returns the simulated time at which the oldest unretrieved
        completion became available, or ``None`` if no requests are
        outstanding.  The caller is expected to block the CPU clock until
        the returned time and then call :meth:`pop_completed`.
        """
        self._advance(now)
        while not self._completed:
            if self._in_flight is not None:
                done_time = self._in_flight.done_time
                if done_time is None:
                    raise DiskProgressError(
                        "in-flight request lost its completion time",
                        (self._in_flight.page,),
                        self.busy_until,
                    )
                self._advance(done_time)
            elif self._pending:
                start = max(self.busy_until, min(r.submit_time for r in self._pending))
                # force one service step at its start time
                self._advance(start)
                if (
                    self._in_flight is None
                    and not self._completed
                    and self._pending
                ):
                    raise DiskProgressError(
                        "disk failed to make progress",
                        tuple(r.page for r in self._pending),
                        start,
                    )
            else:
                return None
        return self._completed[0].done_time

    # -------------------------------------------------------------- internals

    def _advance(self, t: float) -> None:
        """Serve requests whose service can start at or before time ``t``."""
        while True:
            if self._in_flight is not None:
                if self._in_flight.done_time is None:
                    raise DiskProgressError(
                        "in-flight request lost its completion time",
                        (self._in_flight.page,),
                        self.busy_until,
                    )
                if self._in_flight.done_time <= t:
                    if self._in_flight.outcome is Outcome.LOST:
                        # serviced, but the completion notification vanished:
                        # the caller only finds out via its request timeout
                        self.stats.lost_requests += 1
                        if self.tracer is not None:
                            self.tracer.event(
                                self._in_flight.done_time,
                                "disk",
                                "completion-lost",
                                page=self._in_flight.page,
                            )
                    else:
                        self._completed.append(self._in_flight)
                    self._in_flight = None
                else:
                    return
            if not self._pending:
                return
            start = max(self.busy_until, min(r.submit_time for r in self._pending))
            if start > t:
                return
            candidates = [r for r in self._pending if r.submit_time <= start]
            req = self._pick(candidates)
            self._pending.remove(req)
            self._start_service(req, start, len(candidates))

    def _start_service(self, req: Request, start: float, queue_depth: int) -> None:
        geo = self.geometry
        distance = abs(req.page - self.head)
        if distance == 0:
            # head already positioned: streaming read, transfer only
            duration = geo.transfer_time
            self.stats.sequential_reads += 1
        else:
            rotational = geo.rotational_latency
            if self.policy is not SchedulingPolicy.FIFO and queue_depth > 1:
                # Rotational-position optimisation: with several tagged
                # commands outstanding, the on-disk controller starts with
                # the request whose sectors reach the head first.  The
                # expected wait is the minimum of `depth` uniform rotation
                # offsets, floored at half the average latency (command
                # setup and settling bound the achievable gain).
                gain = max(0.7, 2.0 / (min(queue_depth, 16) + 1))
                rotational = geo.rotational_latency * gain
            duration = geo.seek_time(distance) + rotational + geo.transfer_time
            self.stats.seeks += 1
            self.stats.seek_distance += distance
        if self.faults is not None:
            verdict = self.faults.service(req.page)
            req.outcome = verdict.outcome
            if verdict.slow_factor != 1.0:
                duration *= verdict.slow_factor
                self.stats.slow_services += 1
        duration = on_grid(duration)
        req.start_time = start
        req.done_time = start + duration
        self.head = req.page + 1
        self.busy_until = req.done_time
        self.stats.pages_read += 1
        if (tracer := self.tracer) is not None:
            tracer.cluster_read(req.page)
            tracer.event(
                start,
                "disk",
                "service",
                page=req.page,
                dur=duration,
                args={"outcome": req.outcome.value, "distance": distance},
            )
        self._in_flight = req

    def _pick(self, candidates: list[Request]) -> Request:
        if len(candidates) == 1:
            return candidates[0]
        if self.policy is SchedulingPolicy.FIFO:
            return min(candidates, key=lambda r: r.seq)
        if self.policy is SchedulingPolicy.SSTF:
            return min(candidates, key=lambda r: (abs(r.page - self.head), r.seq))
        if self.policy is SchedulingPolicy.CLOOK:
            ahead = [r for r in candidates if r.page >= self.head]
            pool = ahead if ahead else candidates
            return min(pool, key=lambda r: (r.page, r.seq))
        raise AssertionError(f"unknown policy {self.policy!r}")
