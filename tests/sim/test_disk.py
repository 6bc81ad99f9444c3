"""Tests for the simulated disk device."""

import pytest

from repro.sim.disk import DiskDevice, DiskGeometry, SchedulingPolicy


def read_all_sync(disk: DiskDevice, pages: list[int]) -> list[int]:
    """Submit pages one at a time, waiting for each (synchronous order)."""
    now = 0.0
    order = []
    for page in pages:
        disk.submit(page, now)
        req = disk.next_completion(now)
        now = req.done_time
        order.append(req.page)
    return order


def drain_async(disk: DiskDevice, pages: list[int]) -> list[int]:
    """Submit all pages at time 0, then drain completions in service order."""
    for page in pages:
        disk.submit(page, 0.0)
    order = []
    now = 0.0
    while (req := disk.next_completion(now)) is not None:
        now = req.done_time
        order.append(req.page)
    return order


def test_geometry_seek_curve_monotone():
    geo = DiskGeometry()
    assert geo.seek_time(0) == 0.0
    previous = 0.0
    for distance in (1, 10, 100, 10_000, 10_000_000):
        current = geo.seek_time(distance)
        assert current >= previous
        previous = current
    assert geo.seek_time(10_000_000) == geo.full_seek


def test_sequential_reads_pay_transfer_only():
    geo = DiskGeometry()
    disk = DiskDevice(geo)
    read_all_sync(disk, [0, 1, 2, 3])
    # the head parks at page 0, so all four reads stream
    assert disk.stats.sequential_reads == 4
    assert disk.stats.seeks == 0
    assert disk.stats.pages_read == 4
    assert disk.busy_until == pytest.approx(4 * geo.transfer_time)


def test_random_reads_pay_seeks():
    disk = DiskDevice()
    read_all_sync(disk, [0, 100, 5, 900])
    assert disk.stats.seeks >= 3
    assert disk.stats.seek_distance > 0


def test_random_slower_than_sequential():
    geo = DiskGeometry()
    sequential = DiskDevice(geo)
    now_seq = 0.0
    read_all_sync(sequential, list(range(50)))
    random_disk = DiskDevice(geo)
    read_all_sync(random_disk, [i * 37 % 50 for i in range(50)])
    assert random_disk.busy_until > sequential.busy_until * 3


def test_fifo_preserves_submission_order():
    disk = DiskDevice(policy=SchedulingPolicy.FIFO)
    pages = [40, 10, 30, 20]
    assert drain_async(disk, pages) == pages


def test_sstf_reorders_by_distance():
    disk = DiskDevice(policy=SchedulingPolicy.SSTF)
    # head starts at 0: nearest-first service
    assert drain_async(disk, [40, 10, 30, 20]) == [10, 20, 30, 40]


def test_clook_sweeps_upward_then_wraps():
    disk = DiskDevice(policy=SchedulingPolicy.CLOOK)
    disk.head = 25
    assert drain_async(disk, [40, 10, 30, 20]) == [30, 40, 10, 20]


def test_reordering_beats_fifo_on_random_pattern():
    pages = [i * 997 % 1000 for i in range(60)]
    fifo = DiskDevice(policy=SchedulingPolicy.FIFO)
    drain_async(fifo, pages)
    sstf = DiskDevice(policy=SchedulingPolicy.SSTF)
    drain_async(sstf, pages)
    assert sstf.busy_until < fifo.busy_until


def test_no_future_knowledge():
    """A request submitted later cannot be serviced before its submit time."""
    disk = DiskDevice(policy=SchedulingPolicy.SSTF)
    disk.submit(500, 0.0)
    first = disk.next_completion(0.0)
    # page 1 submitted after the first service started: must come second
    disk.submit(1, first.done_time / 2)
    order = [first.page]
    now = first.done_time
    while (req := disk.next_completion(now)) is not None:
        now = req.done_time
        order.append(req.page)
    assert order == [500, 1]


def test_negative_page_rejected():
    disk = DiskDevice()
    with pytest.raises(ValueError):
        disk.submit(-1, 0.0)


def test_queued_and_outstanding():
    disk = DiskDevice()
    assert not disk.queued(5)
    disk.submit(5, 0.0)
    assert disk.queued(5)
    assert disk.outstanding() == 1
    assert disk.next_completion(0.0).page == 5
    assert disk.outstanding() == 0
    assert disk.next_completion(0.0) is None


def test_next_completion_respects_time():
    disk = DiskDevice()
    disk.submit(100, 0.0)
    # not done at time 0 (service takes > 0): the disk runs past it, and
    # hands the request back only at its own completion time
    req = disk.next_completion(0.0)
    assert req.page == 100
    assert req.done_time > req.submit_time == 0.0
    assert disk.busy_until == req.done_time
    assert disk.next_completion(req.done_time) is None


def test_rotational_optimisation_with_deep_queue():
    """A deep async queue finishes faster than serial requests (TCQ win)."""
    pages = [i * 613 % 700 for i in range(40)]
    serial = DiskDevice(policy=SchedulingPolicy.SSTF)
    read_all_sync(serial, pages)
    queued = DiskDevice(policy=SchedulingPolicy.SSTF)
    drain_async(queued, pages)
    assert queued.busy_until < serial.busy_until * 0.85
