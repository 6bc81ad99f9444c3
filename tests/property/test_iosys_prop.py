"""Property: the I/O stack keeps its physics and its books.

For any scheduling policy, seeded fault profile (with or without a page
that never reads), buffer capacity and sequence of asynchronous
requests, fixes, unfixes and blocking retrievals, every call returns or
raises a :class:`~repro.errors.ReproError`; the buffer never holds more
than its capacity nor evicts a pinned frame; and the disk serves one
request at a time, none before it was submitted.  (The books are the
clock's: it prices the counters by definition, ``tests/sim/test_clock.py``,
and ``AsyncIOSystem`` refuses a disk that books elsewhere.)
"""

import dataclasses
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice, SchedulingPolicy
from repro.sim.faults import PROFILES, FaultPlan
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.buffer import BufferManager
from repro.storage.page import Segment

N_PAGES = 48

page_nos = st.integers(min_value=0, max_value=N_PAGES - 1)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("request"), page_nos),
        st.tuples(st.just("fix"), page_nos),
        st.tuples(st.just("unfix"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("complete"), st.just(0)),
    ),
    max_size=40,
)


def _stack(policy, profile, capacity, device=DiskDevice):
    segment = Segment(512)
    for _ in range(N_PAGES):
        segment.allocate()
    stats, costs, tracer = Stats(), CostModel(), Tracer()
    clock = SimClock(stats, costs)
    disk = device(policy=policy, stats=stats, faults=FaultPlan(profile), tracer=tracer)
    iosys = AsyncIOSystem(disk, clock, tracer=tracer)
    buffer = BufferManager(segment, iosys, capacity, tracer=tracer)
    return buffer, iosys, clock, costs, stats, tracer


@settings(max_examples=80, deadline=None)
@given(
    policy=st.sampled_from(list(SchedulingPolicy)),
    profile_name=st.sampled_from(sorted(PROFILES)),
    seed=st.integers(min_value=0, max_value=50),
    dead_page=st.one_of(st.none(), page_nos),
    capacity=st.integers(min_value=1, max_value=8),
    sequence=calls,
)
def test_io_stack_keeps_physics_and_books(
    policy, profile_name, seed, dead_page, capacity, sequence
):
    profile = dataclasses.replace(
        PROFILES[profile_name],
        seed=seed,
        dead_pages=frozenset() if dead_page is None else frozenset({dead_page}),
    )
    buffer, iosys, _, _, _, tracer = _stack(policy, profile, capacity)
    held = []  # pinned frames, one entry per pin
    submitted: dict[int, deque] = {}  # page -> submit times not yet served
    service_end = 0.0
    seen = 0
    for call, arg in sequence:
        pinned = {frame.page_no for frame in held}
        try:
            if call == "request":
                iosys.request(arg)
            elif call == "fix":
                held.append(buffer.fix(arg))
            elif call == "unfix":
                if held:
                    buffer.unfix(held.pop(arg % len(held)))
            else:
                page = iosys.get_completion()
                if page is not None:
                    buffer.admit_completed(page)
        except ReproError:
            pass
        events = list(tracer.events)[seen:]
        seen += len(events)
        for event in events:
            if event.cat == "buffer" and event.name == "evict":
                assert event.page not in pinned
            elif event.cat == "disk" and event.name == "enqueue":
                submitted.setdefault(event.page, deque()).append(event.ts)
            elif event.cat == "disk" and event.name == "service":
                assert event.ts >= submitted[event.page].popleft()
                assert event.ts >= service_end
                service_end = event.ts + event.dur
        assert buffer.n_resident <= capacity
        assert all(buffer.is_resident(frame.page_no) for frame in held)
