"""Scope fixture: the same bug, silenced by a line suppression."""


def backing_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)


def layered_read(stats, clock):
    stats.pages_requested += 1  # replint: disable=charge-accounting
    clock.work(0.001)
    backing_read(stats, clock)
