"""Bad: double charge across layers, unpaired miss, free logical read."""


def backing_read(stats, clock):
    stats.pages_requested += 1
    clock.work(0.001)


def layered_read(stats, clock):
    # the PR 3 bug shape: this layer charges the request AND delegates
    # to backing_read, which charges it again
    stats.pages_requested += 1
    clock.work(0.001)
    backing_read(stats, clock)


def record_miss(stats):
    # a miss that never requests the page: the pairing is incomplete
    stats.buffer_misses += 1


def free_read(stats):
    # a logical read with no clock movement anywhere on the path
    stats.pages_requested += 1
