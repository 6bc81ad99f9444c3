"""Property: the controller's one-pass pick serves what a candidate list
and a per-policy ``min`` serve.

``DiskDevice._advance`` finds the start of the next service, the queue
depth and the request to serve in one pass over its pending requests.
The reference below restates the pick the other way round: the start
first, then the list of requests submitted by it, then the policy's
choice among them (FIFO the lowest ``seq``, SSTF the shortest distance
then the lowest ``seq``, C-LOOK the lowest page at or past the head,
else the lowest page, then the lowest ``seq``).  Drawn requests repeat
pages, sit at equal distances on either side of the head, and are
submitted for times past the head's (as a retry is), between blocking
retrievals at drawn instants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import TICK
from repro.sim.disk import DiskDevice, SchedulingPolicy
from repro.sim.stats import Stats

#: a few pages, so pages repeat and distances tie
pages = st.integers(min_value=0, max_value=9)
#: a submit time ahead of the caller's clock, in coarse steps so they tie
ahead = st.integers(min_value=0, max_value=4).map(lambda n: n * 2048 * TICK)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), pages, ahead),
        st.tuples(st.just("complete"), st.just(0), ahead),
    ),
    max_size=40,
)


class ReferenceDisk(DiskDevice):
    """The device with its pick made from an explicit candidate list."""

    __slots__ = ()

    def _advance(self, t: float) -> None:
        while True:
            req = self._in_flight
            if req is not None:
                if req.done_time > t:
                    return
                self._completed.append(req)
                self._in_flight = None
            pending = self._pending
            if not pending:
                return
            start = max(self.busy_until, min(r.submit_time for r in pending))
            if start > t:
                return
            candidates = [r for r in pending if r.submit_time <= start]
            req = self._reference_pick(candidates)
            pending.remove(req)
            self._start_service(req, start, len(candidates))

    def _reference_pick(self, candidates):
        if self.policy is SchedulingPolicy.FIFO:
            return min(candidates, key=lambda r: r.seq)
        if self.policy is SchedulingPolicy.SSTF:
            return min(candidates, key=lambda r: (abs(r.page - self.head), r.seq))
        ahead = [r for r in candidates if r.page >= self.head]
        return min(ahead or candidates, key=lambda r: (r.page, r.seq))


def _serve(device: DiskDevice, head: int, busy: int, script) -> tuple:
    """Run ``script`` on ``device``: every service's request, start,
    end and queue-shaped cost, and the device's counters."""
    device.head = head
    device.busy_until = busy * 1024 * TICK
    now = 0.0
    served = []
    for op, page, later in script:
        if op == "submit":
            device.submit(page, now + later)
        else:
            req = device.next_completion(now + later)
            if req is not None:
                served.append((req.seq, req.page, req.start_time, req.done_time))
                now = max(now, req.done_time)
    while (req := device.next_completion(now)) is not None:
        served.append((req.seq, req.page, req.start_time, req.done_time))
        now = req.done_time
    return served, device.head, device.stats.as_dict()


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(list(SchedulingPolicy)),
    head=pages,
    busy=st.integers(min_value=0, max_value=8),
    script=ops,
)
def test_one_pass_pick_serves_the_candidate_list_pick(policy, head, busy, script):
    served = _serve(DiskDevice(policy=policy, stats=Stats()), head, busy, script)
    reference = _serve(ReferenceDisk(policy=policy, stats=Stats()), head, busy, script)
    assert served == reference
