"""Tests for the buffer manager."""

import random

import pytest

from repro.errors import BufferError_, ReproError
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice
from repro.sim.faults import FaultPlan, FaultProfile
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.buffer import BufferManager
from repro.storage.page import Segment


def make_buffer(capacity=4, n_pages=16, faults=None, tracer=None):
    segment = Segment(512)
    for _ in range(n_pages):
        segment.allocate()
    stats = Stats()
    clock = SimClock(stats, CostModel())
    plan = FaultPlan(faults) if faults is not None else None
    disk = DiskDevice(stats=stats, faults=plan, tracer=tracer)
    iosys = AsyncIOSystem(disk, clock, tracer=tracer)
    buffer = BufferManager(segment, iosys, capacity, tracer=tracer)
    return buffer, clock, stats, iosys


def test_miss_then_hit():
    buffer, clock, stats, _ = make_buffer()
    frame = buffer.fix(3)
    assert stats.buffer_misses == 1
    t_after_miss = clock.now
    buffer.unfix(frame)
    frame2 = buffer.fix(3)
    assert stats.buffer_hits == 1
    # the hit costs only CPU (swizzle), no I/O wait
    assert clock.io_wait == pytest.approx(clock.io_wait)
    assert frame2 is frame
    assert clock.now - t_after_miss < 1e-3


def test_miss_blocks_on_io():
    buffer, clock, _, _ = make_buffer()
    buffer.fix(5)
    assert clock.io_wait > 0


def test_lru_eviction():
    buffer, _, stats, _ = make_buffer(capacity=2)
    f0 = buffer.fix(0)
    buffer.unfix(f0)
    f1 = buffer.fix(1)
    buffer.unfix(f1)
    f2 = buffer.fix(2)  # evicts page 0 (least recently used)
    buffer.unfix(f2)
    assert stats.evictions == 1
    assert not buffer.is_resident(0)
    assert buffer.is_resident(1)
    assert buffer.is_resident(2)


def test_pinned_frames_not_evicted():
    buffer, _, _, _ = make_buffer(capacity=2)
    f0 = buffer.fix(0)  # stays pinned
    f1 = buffer.fix(1)
    buffer.unfix(f1)
    buffer.fix(2)  # must evict page 1, not pinned page 0
    assert buffer.is_resident(0)
    assert not buffer.is_resident(1)


def test_pinned_oldest_frame_is_skipped_for_the_next_oldest():
    buffer, _, stats, _ = make_buffer(capacity=3)
    oldest = buffer.fix(0)  # least recently used, but pinned
    buffer.unfix(buffer.fix(1))
    buffer.unfix(buffer.fix(2))
    buffer.unfix(buffer.fix(1))  # touch: page 2 is now older than page 1
    buffer.unfix(buffer.fix(3))
    assert stats.evictions == 1
    assert [buffer.is_resident(p) for p in range(4)] == [True, True, False, True]
    buffer.unfix(oldest)
    buffer.unfix(buffer.fix(4))  # unpinned now, and still the oldest
    assert [buffer.is_resident(p) for p in range(5)] == [False, True, False, True, True]


def test_victims_equal_the_tick_lru_on_a_recorded_trace():
    """The recency-ordered frame table evicts exactly what the former
    implementation did (a tick stamped on every touch, victim = the
    unpinned frame with the smallest), on a fix/unfix trace with pins
    held across evictions and asynchronously admitted pages."""
    rng = random.Random(5)
    n_pages, capacity = 24, 6
    buffer, _, stats, iosys = make_buffer(capacity=capacity, n_pages=n_pages)
    ticks: dict[int, int] = {}  # the reference: page -> tick of its last touch
    pins: dict[int, int] = {}
    held: list = []
    victims, want_victims = [], []
    tick = 0

    def reference_admit(page_no):
        nonlocal tick
        if len(ticks) >= capacity:
            victim = min((p for p in ticks if not pins.get(p)), key=ticks.__getitem__)
            del ticks[victim]
            want_victims.append(victim)
        tick += 1
        ticks[page_no] = tick

    for _ in range(600):
        before = {p for p in range(n_pages) if buffer.is_resident(p)}
        roll = rng.random()
        if held and (roll < 0.45 or len(held) >= capacity - 1):
            frame = held.pop(rng.randrange(len(held)))
            buffer.unfix(frame)
            pins[frame.page_no] -= 1
        elif roll < 0.55:
            page_no = rng.randrange(n_pages)
            if not buffer.is_resident(page_no):
                iosys.request(page_no)
                assert iosys.get_completion() == page_no
                buffer.admit_completed(page_no)
                reference_admit(page_no)
        else:
            page_no = rng.randrange(n_pages)
            held.append(buffer.fix(page_no))
            if page_no not in ticks:
                reference_admit(page_no)
            tick += 1
            ticks[page_no] = tick
            pins[page_no] = pins.get(page_no, 0) + 1
        after = {p for p in range(n_pages) if buffer.is_resident(p)}
        victims.extend(before - after)
        assert after == set(ticks)
    assert victims == want_victims
    assert stats.evictions == len(victims) > 100


def test_all_pinned_raises():
    buffer, _, _, _ = make_buffer(capacity=2)
    buffer.fix(0)
    buffer.fix(1)
    with pytest.raises(BufferError_):
        buffer.fix(2)


def test_early_completion_never_evicts_the_frame_being_fixed():
    """A miss whose synchronous wait surfaces another page into a full,
    all-pinned buffer: the frame just read is pinned first, the early page
    finds no unpinned frame and is left out (unregistered, unpriced)."""
    buffer, _, stats, iosys = make_buffer(capacity=2, n_pages=601)
    buffer.fix(300)  # held
    iosys.request(600)
    iosys.request(10)
    frame = buffer.fix(5)
    assert frame.page_no == 5 and frame.pins == 1
    assert {p for p in range(601) if buffer.is_resident(p)} == {5, 300}
    assert stats.evictions == 0


def test_unfix_unpinned_raises():
    buffer, _, _, _ = make_buffer()
    frame = buffer.fix(0)
    buffer.unfix(frame)
    with pytest.raises(BufferError_):
        buffer.unfix(frame)


def test_probe_fix():
    """A resident page is one swizzle and a hit; a miss is the probe's
    swizzle, then a fix's swizzle and synchronous read."""
    buffer, _, stats, _ = make_buffer()
    frame = buffer.probe_fix(7)
    assert (stats.swizzles, stats.buffer_misses, stats.buffer_hits) == (2, 1, 0)
    assert frame.pins == 1
    buffer.unfix(frame)
    resident = buffer.probe_fix(7)
    assert resident is frame
    assert (stats.swizzles, stats.buffer_misses, stats.buffer_hits) == (3, 1, 1)
    buffer.unfix(resident)


def test_refix_is_probe_fix_then_unfix():
    """What XSchedule pays per entry of the cluster it holds, in one call:
    the same clock, counters, pins, LRU order and ``buffer hit`` event as
    a resident fix followed by an unfix of the pinned frame."""

    def after(refix):
        buffer, clock, stats, _ = make_buffer(capacity=3)
        buffer.tracer = Tracer()
        held = buffer.fix(0)
        buffer.unfix(buffer.fix(1))
        buffer.unfix(buffer.fix(2))  # LRU order 0, 1, 2
        if refix:
            buffer.refix(held)
        else:
            buffer.unfix(buffer.probe_fix(0))
        buffer.unfix(buffer.fix(3))  # evicts the least recently used
        events = [(e.ts, e.cat, e.name, e.page) for e in buffer.tracer.events]
        residents = [p for p in range(4) if buffer.is_resident(p)]
        return clock.now, clock.cpu_time, stats.as_dict(), held.pins, residents, events

    assert after(refix=True) == after(refix=False)
    assert after(refix=True)[4] == [0, 2, 3]
    buffer, _, _, _ = make_buffer()
    frame = buffer.fix(0)
    buffer.unfix(frame)
    with pytest.raises(BufferError_):
        buffer.refix(frame)


def _held_and_lru(buffer, iosys):
    """Page 0 pinned, 1 and 2 buffered after it: LRU order 0, 1, 2."""
    held = buffer.fix(0)
    buffer.unfix(buffer.fix(1))
    buffer.unfix(buffer.fix(2))
    return held


def _requested_ahead(buffer, iosys):
    """As :func:`_held_and_lru`, with pages 9 and 12 read asynchronously."""
    held = _held_and_lru(buffer, iosys)
    iosys.request(9)
    iosys.request(12)
    return held


def _all_pinned(buffer, iosys):
    """Every frame pinned, page 0 twice: releasing one pin frees none."""
    held = buffer.fix(0)
    buffer.fix(0)
    buffer.fix(1)
    buffer.fix(2)
    return held


def _after_swap(swapped, setup, page_no, faults=None):
    """The books after a border crossing from the frame ``setup`` holds
    to ``page_no``, made by one :meth:`swap` or by an unfix and a fix:
    clock, counters, every frame in LRU order with its pins, every
    trace event, and what the crossing returned or raised."""
    tracer = Tracer()
    buffer, clock, stats, iosys = make_buffer(capacity=3, faults=faults, tracer=tracer)
    held = setup(buffer, iosys)
    try:
        if swapped:
            frame = buffer.swap(held, page_no)
        else:
            buffer.unfix(held)
            frame = buffer.fix(page_no)
        got = (frame.page_no, frame.pins)
    except ReproError as err:
        got = (type(err).__name__, str(err))
    frames = [(page, frame.pins) for page, frame in buffer._frames.items()]
    events = [(e.ts, e.cat, e.name, e.page) for e in tracer.events]
    return clock.now, clock.cpu_time, clock.io_wait, stats.as_dict(), frames, held.pins, events, got


@pytest.mark.parametrize(
    "setup,page_no,faults,outcome",
    [
        (_held_and_lru, 1, None, 1),  # a hit
        (_held_and_lru, 5, None, 5),  # a miss evicting the page released
        (_requested_ahead, 5, None, 5),  # a miss with early completions
        (_all_pinned, 5, None, "BufferError_"),
        (_held_and_lru, 5, FaultProfile(dead_pages=frozenset({5})), "PageReadError"),
    ],
    ids=["hit", "miss", "early-completions", "all-pinned", "dead-page"],
)
def test_swap_is_unfix_then_fix(setup, page_no, faults, outcome):
    """A border crossing in one call keeps every book an unfix followed
    by a fix keeps; a fix that raises leaves the frame released once."""
    swapped = _after_swap(True, setup, page_no, faults)
    assert swapped == _after_swap(False, setup, page_no, faults)
    assert swapped[-1][0] == outcome
    if setup is _requested_ahead:
        # the pages that completed while the read blocked came in behind it
        assert {9, 12} & {page for page, _ in swapped[4]}
    assert swapped[5] == (1 if setup is _all_pinned else 0)


def test_swap_of_an_unpinned_frame_raises():
    buffer, _, stats, _ = make_buffer()
    frame = buffer.fix(0)
    buffer.unfix(frame)
    with pytest.raises(BufferError_):
        buffer.swap(frame, 1)
    assert stats.swizzles == 1  # nothing was fixed


def test_admit_completed_after_async():
    buffer, clock, stats, iosys = make_buffer()
    iosys.request(9)
    page = iosys.get_completion()
    assert page == 9
    frame = buffer.admit_completed(9)
    assert buffer.is_resident(9)
    assert frame.pins == 0


def test_swizzle_costs_charged():
    buffer, clock, stats, _ = make_buffer()
    frame = buffer.fix(0)
    cpu_before = clock.cpu_time
    buffer.unfix(frame)
    buffer.unfix(buffer.fix(0))
    assert stats.swizzles == 2
    assert stats.unswizzles == 2
    assert clock.cpu_time > cpu_before


def test_capacity_validation():
    with pytest.raises(BufferError_):
        make_buffer(capacity=0)
