"""Scope fixture (storage/): inside charge-accounting's default scope."""


def backing_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)


def layered_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)
    backing_read(stats, clock)
