"""Tests for the buffer manager."""

import random

import pytest

from repro.errors import BufferError_
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats
from repro.storage.buffer import BufferManager
from repro.storage.page import Segment


def make_buffer(capacity=4, n_pages=16):
    segment = Segment(512)
    for _ in range(n_pages):
        segment.allocate()
    stats = Stats()
    clock = SimClock()
    disk = DiskDevice(stats=stats)
    iosys = AsyncIOSystem(disk, clock, CostModel(), stats)
    return BufferManager(segment, iosys, clock, CostModel(), capacity, stats), clock, stats, iosys


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


def test_unfix_unpinned_raises():
    buffer, _, _, _ = make_buffer()
    frame = buffer.fix(0)
    buffer.unfix(frame)
    with pytest.raises(BufferError_):
        buffer.unfix(frame)


def test_try_fix_resident():
    buffer, clock, stats, _ = make_buffer()
    assert buffer.try_fix_resident(7) is None
    assert stats.buffer_misses == 0  # no I/O triggered
    frame = buffer.fix(7)
    buffer.unfix(frame)
    resident = buffer.try_fix_resident(7)
    assert resident is frame
    buffer.unfix(resident)


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
