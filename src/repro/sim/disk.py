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


#: Share of the average rotational latency a reordering controller pays
#: once two or more requests are queued.  The expected wait for the first
#: of ``depth`` uniform rotation offsets is ``2/(depth+1)`` of it, which is
#: already below this floor at depth 2: command setup and settling bound
#: the gain, so every depth > 1 pays the floor.
TCQ_ROTATIONAL_GAIN = 0.7


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
    """Event-driven disk: submit requests, run to the next completion.

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
        "_durations",
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
        #: service seconds (unsnapped, on the grid) by distance, negated
        #: for a reordered seek
        self._durations: dict[int, tuple[float, float]] = {}

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

    def read_sync(self, page: int, now: float) -> float | None:
        """A blocking read of ``page`` submitted at ``now``.  An idle device
        (nothing pending, in flight or to collect) books what the queue
        would, the caller's ``io sync-read`` event included, and returns the
        done time.  A busy device queues the read, and a non-OK verdict
        leaves it in flight: then None, for :meth:`next_completion`."""
        tracer = self.tracer
        if self._pending or self._in_flight is not None or self._completed:
            self.submit(page, now)
            if tracer is not None:
                tracer.event(now, "io", "sync-read", page=page)
            return None
        if page < 0:
            raise ValueError(f"negative page number: {page}")
        self._seq += 1
        self.stats.io_requests += 1
        if tracer is not None:
            tracer.event(now, "disk", "enqueue", page=page)
            tracer.event(now, "io", "sync-read", page=page)
        start = self.busy_until
        if start < now:
            start = now
        outcome = self._serve(page, start, False)
        if outcome is Outcome.OK:
            return self.busy_until
        req = self._in_flight = Request(page, now, self._seq - 1)
        req.outcome = outcome
        req.start_time = start
        req.done_time = self.busy_until
        return None

    def queued(self, page: int) -> bool:
        """True if a request for ``page`` is pending or in flight."""
        if self._in_flight is not None and self._in_flight.page == page:
            return True
        return any(r.page == page for r in self._pending)

    def outstanding(self) -> int:
        """Number of requests submitted but not yet retrievable."""
        return len(self._pending) + (1 if self._in_flight is not None else 0)

    def next_completion(self, now: float) -> Request | None:
        """Pop the oldest completion, running the disk until there is one.

        Advances the device to ``now`` first, so everything that
        physically finished by then is retrievable; if nothing has, the
        disk runs on (past ``now``) until its next service completes.
        Returns ``None`` when no request is outstanding.  A blocking
        caller then waits until the request's ``done_time`` — the time
        the device already stands at, so nothing further is owed to it.
        """
        self._advance(now)
        completed = self._completed
        while not completed:
            if self._in_flight is not None:
                self._advance(self._in_flight.done_time)
            elif self._pending:
                # the start _advance computes itself, so a service starts
                self._advance(max(self.busy_until, min(r.submit_time for r in self._pending)))
            else:
                return None
        return completed.popleft()

    # -------------------------------------------------------------- internals

    def _advance(self, t: float) -> None:
        """Serve requests whose service can start at or before time ``t``."""
        while True:
            req = self._in_flight
            if req is not None:
                done_time = req.done_time
                if done_time is None:
                    raise DiskProgressError(
                        "in-flight request lost its completion time", (req.page,), self.busy_until
                    )
                if done_time > t:
                    return
                if req.outcome is Outcome.LOST:
                    # serviced, but the completion notification vanished:
                    # the caller only finds out via its request timeout
                    self.stats.lost_requests += 1
                    if self.tracer is not None:
                        self.tracer.event(done_time, "disk", "completion-lost", page=req.page)
                else:
                    self._completed.append(req)
                self._in_flight = None
            pending = self._pending
            if not pending:
                return
            if len(pending) == 1:
                # a lone candidate: what the pass would pick
                req = pending[0]
                start = max(self.busy_until, req.submit_time)
                if start > t:
                    return
                pending.clear()
                self._start_service(req, start, 1)
                continue
            # One pass: the service starts at ``start``, the later of the
            # head freeing up and the earliest submit time, and the
            # candidates are the requests submitted by then.  A request
            # that moves ``start`` earlier starts the candidates over.
            # The policy's least key wins; _pending is in seq order, so a
            # tie goes to the first request met (FIFO: the first candidate)
            busy = self.busy_until
            head = self.head
            sstf = self.policy is SchedulingPolicy.SSTF
            clook = self.policy is SchedulingPolicy.CLOOK
            start = math.inf
            for req in pending:
                at = req.submit_time
                if at < busy:
                    at = busy
                if at > start:
                    continue
                page = req.page
                if sstf:
                    key = page - head if page >= head else head - page
                elif clook:
                    key = (page < head, page)  # the sweep up, then the wrap
                else:
                    key = 0
                if at < start:
                    start = at
                    depth = 1
                    pick, best = req, key
                else:
                    depth += 1
                    if key < best:
                        pick, best = req, key
            if start > t:
                return
            pending.remove(pick)
            self._start_service(pick, start, depth)

    def _start_service(self, req: Request, start: float, queue_depth: int) -> None:
        req.outcome = self._serve(
            req.page, start, queue_depth > 1 and self.policy is not SchedulingPolicy.FIFO
        )
        req.start_time = start
        req.done_time = self.busy_until
        self._in_flight = req

    def _serve(self, page: int, start: float, reordered: bool) -> Outcome:
        """Book a service of ``page`` from ``start`` to the new ``busy_until``
        and return its verdict; ``reordered``: picked among several queued."""
        stats = self.stats
        distance = abs(page - self.head)
        if distance:
            stats.seeks += 1
            stats.seek_distance += distance
        else:
            stats.sequential_reads += 1
        key = -distance if reordered else distance
        durations = self._durations.get(key)
        if durations is None:
            geo = self.geometry
            # head already positioned: streaming read, transfer only
            raw = geo.transfer_time
            if distance:
                rotational = geo.rotational_latency
                if reordered:
                    # Rotational-position optimisation: with several tagged
                    # commands outstanding, the controller starts with the
                    # request whose sectors reach the head first, and pays
                    # TCQ_ROTATIONAL_GAIN of the average latency
                    rotational = geo.rotational_latency * TCQ_ROTATIONAL_GAIN
                raw = geo.seek_time(distance) + rotational + geo.transfer_time
            durations = self._durations[key] = (raw, on_grid(raw))
        raw, duration = durations
        outcome = Outcome.OK
        if self.faults is not None:
            verdict = self.faults.service(page)
            outcome = verdict.outcome
            if verdict.slow_factor != 1.0:
                duration = on_grid(raw * verdict.slow_factor)
                stats.slow_services += 1
        self.head = page + 1
        self.busy_until = start + duration
        stats.pages_read += 1
        if (tracer := self.tracer) is not None:
            tracer.cluster_read(page)
            tracer.event(
                start,
                "disk",
                "service",
                page=page,
                dur=duration,
                args={"outcome": outcome.value, "distance": distance},
            )
        return outcome
