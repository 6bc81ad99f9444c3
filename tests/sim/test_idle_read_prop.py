"""Property: a synchronous read an idle disk serves in the submitting
call books what the queue books.

``DiskDevice.read_sync`` serves a blocking read in closed form when
nothing is pending, in flight or waiting to be collected
(docs/simulation.md, "The idle-device closed form").  The reference
below is the same device with that path taken out: every read is
submitted and collected through the queue.  For any scheduling policy,
seeded fault profile (with or without a page that never reads, and one
whose losses can outlast the retries), buffer capacity and sequence of
asynchronous requests, fixes, unfixes, blocking retrievals and CPU work
(which lets services finish uncollected), both stacks return the same
pages, raise the same typed errors, record the same trace events and
end with the same counters, clock, disk state, last latency and early
completions.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.sim.disk import DiskDevice, SchedulingPolicy
from repro.sim.faults import PROFILES, FaultProfile
from tests.property.test_iosys_prop import _stack, page_nos

#: the registry's profiles, and one whose lost requests can exhaust the
#: retries: the disk then stops idle past the clock
FAULTS = {**PROFILES, "lost-for-good": FaultProfile(lost_rate=0.5, lost_burst=8)}
calls = st.lists(
    st.one_of(
        st.tuples(st.just("request"), page_nos),
        st.tuples(st.just("fix"), page_nos),
        st.tuples(st.just("unfix"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("complete"), st.just(0)),
        st.tuples(st.just("work"), st.integers(min_value=1, max_value=40)),
    ),
    max_size=40,
)


class QueuedDisk(DiskDevice):
    """The device whose synchronous reads always go through the queue."""

    __slots__ = ()

    def read_sync(self, page: int, now: float) -> None:
        self.submit(page, now)
        self.tracer.event(now, "io", "sync-read", page=page)


def _run(device, policy, profile, capacity, sequence) -> tuple:
    """Play ``sequence`` on a stack over ``device``: what each call
    returned or raised, and the books at the end."""
    buffer, iosys, clock, _, stats, tracer = _stack(policy, profile, capacity, device)
    held = []  # pinned frames, one entry per pin
    answers = []
    for call, arg in sequence:
        try:
            if call == "request":
                answers.append(iosys.request(arg))
            elif call == "fix":
                held.append(buffer.fix(arg))
                answers.append(held[-1].page_no)
            elif call == "unfix":
                if held:
                    buffer.unfix(held.pop(arg % len(held)))
            elif call == "work":
                # CPU work: iterator calls worth arg * 0.5 ms
                stats.iterator_calls += arg * 250
            else:
                page = iosys.get_completion()
                if page is not None:
                    buffer.admit_completed(page)
                answers.append(page)
        except ReproError as exc:
            answers.append((type(exc), str(exc)))
    disk = iosys.disk
    return (
        answers,
        stats.as_dict(),
        (clock.now, clock.io_wait),
        (disk.head, disk.busy_until, disk._seq),
        iosys.last_latency,
        list(iosys.early),
        [(e.ts, e.cat, e.name, e.page, e.dur, e.args) for e in tracer.events],
    )


@settings(max_examples=150, deadline=None)
@given(
    policy=st.sampled_from(list(SchedulingPolicy)),
    profile_name=st.sampled_from(sorted(FAULTS)),
    seed=st.integers(min_value=0, max_value=50),
    dead_page=st.one_of(st.none(), page_nos),
    capacity=st.integers(min_value=1, max_value=8),
    sequence=calls,
)
# a completion finished by the clock waits to be collected: not idle
@example(
    policy=SchedulingPolicy.SSTF,
    profile_name="none",
    seed=0,
    dead_page=None,
    capacity=4,
    sequence=[("request", 3), ("request", 9), ("work", 40), ("complete", 0), ("fix", 20)],
)
# page 9 is lost five times: the disk stops idle past the clock
@example(
    policy=SchedulingPolicy.SSTF,
    profile_name="lost-for-good",
    seed=3,
    dead_page=None,
    capacity=4,
    sequence=[("fix", 9), ("fix", 40)],
)
def test_an_idle_read_in_closed_form_books_what_the_queue_books(
    policy, profile_name, seed, dead_page, capacity, sequence
):
    profile = dataclasses.replace(
        FAULTS[profile_name],
        seed=seed,
        dead_pages=frozenset() if dead_page is None else frozenset({dead_page}),
    )
    closed = _run(DiskDevice, policy, profile, capacity, sequence)
    queued = _run(QueuedDisk, policy, profile, capacity, sequence)
    assert closed == queued


class NoQueueDisk(DiskDevice):
    """A device that fails if anything is collected through its queue."""

    __slots__ = ()

    def next_completion(self, now: float) -> None:
        raise AssertionError("collected through the queue")


def test_fault_free_blocking_reads_never_touch_the_queue():
    """The property is not vacuous: on a fault-free disk every fix that
    misses is served in the submitting call, seeking or streaming."""
    buffer, iosys, clock, _, stats, _ = _stack(
        SchedulingPolicy.SSTF, FaultProfile(name="none"), 2, NoQueueDisk
    )
    for page_no in (3, 4, 5, 40, 41, 7):
        buffer.unfix(buffer.fix(page_no))
    assert stats.pages_read == stats.sync_requests == 6
    assert stats.sequential_reads == 3 and stats.seeks == 3
    assert iosys.outstanding() == 0 and clock.io_wait > 0
