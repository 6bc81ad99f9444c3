"""Good: one owning charge per physical event; CPU counters are exempt."""


def backing_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)


def layered_read(stats, clock):
    # the upper layer only delegates: exactly one charge per logical read
    backing_read(stats, clock)


def record_miss(stats, clock):
    # the miss is paired with a reachable pages_requested charge
    stats.buffer_misses += 1
    backing_read(stats, clock)


def count_tests(stats):
    stats.node_tests += 1


def charge_tests(stats):
    # CPU-work counters charge per occurrence at many layers by design
    stats.node_tests += 1
    count_tests(stats)
