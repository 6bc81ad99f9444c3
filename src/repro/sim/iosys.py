"""Asynchronous I/O subsystem (paper Sec. 3.7) with fault recovery.

The interface the paper expects from the DBMS:

* issue requests for cluster (page) loads *without waiting* for them;
* a separate call retrieves completed requests, blocking if necessary.

This module adapts the :class:`repro.sim.disk.DiskDevice` to that
interface and wires the disk timeline into the CPU clock: issuing a
request charges a small CPU cost; retrieving a completion blocks the CPU
clock until the disk delivers (accounted as I/O wait).

When a :class:`~repro.sim.faults.FaultPlan` is installed on the disk,
this layer is also the recovery machinery:

* a **failed** completion is retried with exponential backoff plus
  deterministic jitter; asynchronous retries are *scheduled* on the disk
  timeline (the CPU does not block during backoff), synchronous ones
  charge the wait to the clock — either way the time is honest and the
  scheduled delay is counted in ``Stats.backoff_wait``;
* a **lost** request (completion never arrives) is detected when its
  deadline (``RetryPolicy.request_timeout``) expires and resubmitted;
* both escalate to typed errors (:class:`~repro.errors.PageReadError`,
  :class:`~repro.errors.RequestLostError`) once the retry cap is hit.
"""

from __future__ import annotations

from repro.errors import PageReadError, RequestLostError
from repro.sim.clock import SimClock, on_grid
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice, Request
from repro.sim.faults import RetryPolicy
from repro.sim.stats import Stats


class AsyncIOSystem:
    """Issue/retrieve interface over the simulated disk."""

    __slots__ = (
        "disk",
        "clock",
        "stats",
        "retry",
        "tracer",
        "_requested",
        "_attempts",
        "early",
        "last_latency",
        "_cost_submit",
    )

    def __init__(
        self,
        disk: DiskDevice,
        clock: SimClock,
        costs: CostModel,
        stats: Stats | None = None,
        retry: RetryPolicy | None = None,
        tracer=None,
    ) -> None:
        self.disk = disk
        self.clock = clock
        self.stats = stats if stats is not None else disk.stats
        self.retry = retry or RetryPolicy()
        self.tracer = tracer
        #: page -> simulated time of the *first* submission of the
        #: current logical read (resubmissions keep the original time, so
        #: latency and timeouts measure the whole recovery chain)
        self._requested: dict[int, float] = {}
        #: page -> attempts consumed by the current logical read
        self._attempts: dict[int, int] = {}
        #: pages that completed while a sync read was blocking, in
        #: completion order, until :meth:`drain_early_completions`
        self.early: list[int] = []
        #: end-to-end latency (first submit -> retrieval) of the most
        #: recently finished page; the scheduler's latency-SLO input
        self.last_latency = 0.0
        # cached like EvalContext's charge scalars: CostModel is frozen
        # and validated, so the charge is one float add beside its counter
        self._cost_submit = costs.io_submit

    # ------------------------------------------------------------------ async

    def request(self, page: int) -> bool:
        """Asynchronously request ``page``.

        Returns True if a new request was issued, False if one for the same
        page is already outstanding (the subsystem coalesces duplicates,
        like an OS would for the same block).
        """
        if page in self._requested:
            return False
        stats = self.stats
        now = self.clock.now = self.clock.now + self._cost_submit
        stats.pages_requested += 1
        stats.async_requests += 1
        self.disk.submit(page, now)
        self._requested[page] = now
        self._attempts[page] = 1
        if self.tracer is not None:
            self.tracer.event(now, "io", "request", page=page)
        return True

    def get_completion(self) -> int | None:
        """Return a completed request's page, blocking the CPU if needed.

        Returns None only when there are no outstanding requests at all.
        Raises :class:`~repro.errors.PageReadError` /
        :class:`~repro.errors.RequestLostError` when a page exhausts its
        retry budget.
        """
        clock = self.clock
        while True:
            req = self.disk.next_completion(clock.now)
            if req is None:
                if not self._requested:
                    return None
                # the disk went idle with answers still owed: those
                # requests were lost; resubmit at their deadlines
                self._resubmit_lost()
                continue
            clock.wait_until(req.done_time)
            if req.failed:
                self._retry_failed(req.page, blocking=False)
                continue
            self._finish(req)
            return req.page

    def outstanding(self) -> int:
        """Number of requests issued but not yet retrieved."""
        return len(self._requested)

    def submitted_at(self, page: int) -> float | None:
        """First-submit time of an outstanding request, or None."""
        return self._requested.get(page)

    # ------------------------------------------------------------------ sync

    def read_sync(self, page: int) -> None:
        """Synchronously read ``page``: submit and block until done.

        Used by the Simple plan (and buffer misses outside the scheduled
        path), where every inter-cluster navigation immediately stalls on
        the disk.  If the page was already requested asynchronously this
        blocks until that earlier request delivers it.
        """
        clock = self.clock
        stats = self.stats
        stats.sync_requests += 1
        if page not in self._requested:
            now = clock.now = clock.now + self._cost_submit
            stats.pages_requested += 1
            self.disk.submit(page, now)
            self._requested[page] = now
            self._attempts[page] = 1
            if self.tracer is not None:
                self.tracer.event(now, "io", "sync-read", page=page)
        # Drain completions until our page arrives; completions for other
        # pages are re-surfaced to the caller via the pending set, but with
        # a purely synchronous workload the first completion is ours.
        while True:
            req = self.disk.next_completion(clock.now)
            if req is None:
                self._resubmit_lost()
                continue
            clock.wait_until(req.done_time)
            if req.failed:
                # block through the backoff only when it is *our* page;
                # someone else's retry is merely scheduled
                self._retry_failed(req.page, blocking=req.page == page)
                continue
            self._finish(req, surface=req.page != page)
            if req.page == page:
                return

    # -------------------------------------------------------------- recovery

    def _retry_failed(self, page: int, blocking: bool) -> None:
        """Handle a failed completion: backoff + resubmit, or escalate."""
        self.stats.io_errors += 1
        attempts = self._attempts.get(page, 1)
        if attempts > self.retry.max_retries:
            self._requested.pop(page, None)
            self._attempts.pop(page, None)
            raise PageReadError(page, attempts, self.clock.now)
        delay = self.retry.delay(page, attempts)
        self.stats.backoff_wait += delay
        self.stats.retries += 1
        self._attempts[page] = attempts + 1
        if self.tracer is not None:
            self.tracer.io_retry(attempts)
            self.tracer.event(
                self.clock.now,
                "io",
                "retry",
                page=page,
                args={"attempt": attempts, "delay": delay, "blocking": blocking},
            )
        if blocking:
            # the caller needs this page now: the CPU sits out the backoff
            self.clock.wait_until(self.clock.now + delay)
            self.disk.submit(page, self.clock.now)
        else:
            # schedule the resubmission at the end of the backoff window;
            # the disk honours future submit times, so no CPU blocks here
            self.disk.submit(page, self.clock.now + delay)

    def _resubmit_lost(self) -> None:
        """The disk is idle but answers are owed: declare losses, resubmit.

        A loss is only *observable* at the request's deadline, so the
        resubmission is scheduled at ``first_submit + request_timeout``
        (already in the past if the disk was busy elsewhere meanwhile).
        """
        for page in list(self._requested):
            if self.disk.queued(page):
                continue
            first_submit = self._requested[page]
            attempts = self._attempts.get(page, 1)
            self.stats.timeouts += 1
            if attempts > self.retry.max_retries:
                self._requested.pop(page, None)
                self._attempts.pop(page, None)
                raise RequestLostError(page, attempts, self.clock.now)
            deadline = first_submit + on_grid(attempts * self.retry.request_timeout)
            self.stats.retries += 1
            self._attempts[page] = attempts + 1
            if self.tracer is not None:
                self.tracer.io_retry(attempts)
                self.tracer.event(
                    self.clock.now,
                    "io",
                    "timeout-resubmit",
                    page=page,
                    args={"attempt": attempts, "deadline": deadline},
                )
            self.disk.submit(page, max(self.clock.now, deadline))

    # -------------------------------------------------------------- internals

    def _finish(self, req: Request, surface: bool = False) -> None:
        first_submit = self._requested.pop(req.page, None)
        self._attempts.pop(req.page, None)
        if first_submit is not None:
            self.last_latency = max(0.0, self.clock.now - first_submit)
            if self.tracer is not None:
                self.tracer.event(
                    self.clock.now,
                    "io",
                    "complete",
                    page=req.page,
                    args={"latency": self.last_latency},
                )
        if surface:
            # A completion for a different page arrived while waiting
            # synchronously; remember it so callers can still consume it.
            self.early.append(req.page)

    def drain_early_completions(self) -> list[int]:
        """Pages that completed while a sync read was blocking."""
        early, self.early = self.early, []
        return early
