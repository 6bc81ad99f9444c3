"""Scope fixture (xpath/): byte-identical bug, outside the rule's scope."""


def backing_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)


def layered_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)
    backing_read(stats, clock)
