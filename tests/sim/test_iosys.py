"""Tests for the asynchronous I/O subsystem."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel
from repro.sim.disk import DiskDevice, SchedulingPolicy
from repro.sim.iosys import AsyncIOSystem
from repro.sim.stats import Stats


def make_iosys(policy=SchedulingPolicy.SSTF):
    clock = SimClock(Stats(), CostModel())
    disk = DiskDevice(policy=policy, stats=clock.stats)
    return AsyncIOSystem(disk, clock), clock, disk


def test_a_disk_booking_elsewhere_is_refused():
    """A disk on its own Stats would book its reads where no Result looks."""
    clock = SimClock(Stats(), CostModel())
    with pytest.raises(ValueError, match="clock's Stats"):
        AsyncIOSystem(DiskDevice(), clock)


def test_sync_read_blocks_clock():
    iosys, clock, _ = make_iosys()
    iosys.read_sync(100)
    assert clock.now > 0.0
    assert clock.io_wait > 0.0


def test_async_request_does_not_block():
    iosys, clock, _ = make_iosys()
    iosys.request(100)
    # only the submission's io_submit is priced; no I/O wait yet
    assert clock.io_wait == 0.0
    assert iosys.outstanding() == 1


def test_request_coalesces_duplicates():
    iosys, _, disk = make_iosys()
    assert iosys.request(5) is True
    assert iosys.request(5) is False
    assert disk.outstanding() == 1


def test_get_completion_blocking():
    iosys, clock, _ = make_iosys()
    iosys.request(10)
    page = iosys.get_completion()
    assert page == 10
    assert clock.io_wait > 0.0
    assert iosys.outstanding() == 0


def test_get_completion_none_when_idle():
    iosys, _, _ = make_iosys()
    assert iosys.get_completion() is None


def test_async_overlaps_cpu_work():
    """CPU work done while the disk serves reduces the blocking wait."""
    iosys_idle, clock_idle, _ = make_iosys()
    iosys_idle.request(300)
    iosys_idle.get_completion()
    wait_idle = clock_idle.io_wait

    iosys_busy, clock_busy, _ = make_iosys()
    iosys_busy.request(300)
    # do the same amount of work as the wait: iterator calls worth it
    clock_busy.stats.iterator_calls += round(wait_idle / clock_busy.costs.iterator_call)
    iosys_busy.get_completion()
    assert clock_busy.io_wait < wait_idle * 0.1


def test_completions_reordered_by_controller():
    iosys, _, _ = make_iosys()
    for page in (400, 50, 200):
        iosys.request(page)
    order = [iosys.get_completion() for _ in range(3)]
    assert sorted(order) == [50, 200, 400]
    # page 400 starts immediately (disk idle at submit); from head 401 the
    # controller picks 200 before 50
    assert order == [400, 200, 50]


def test_sync_read_of_pending_async_request():
    """A sync read of an already-requested page waits for that request."""
    iosys, clock, disk = make_iosys()
    iosys.request(77)
    iosys.read_sync(77)
    assert disk.outstanding() == 0
    assert iosys.outstanding() == 0


def test_early_completions_surfaced():
    """Completions for other pages during a sync wait are not lost."""
    iosys, _, _ = make_iosys(policy=SchedulingPolicy.SSTF)
    iosys.request(600)  # starts immediately (disk idle), head moves to 601
    iosys.request(10)
    iosys.request(5)
    # waiting for page 5: SSTF serves 10 before 5, so 600 and 10 complete
    # during the synchronous wait
    iosys.read_sync(5)
    early = iosys.drain_early_completions()
    assert early == [600, 10]
