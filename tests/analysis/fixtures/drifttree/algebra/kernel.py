"""Drift fixture: charges merges; node_tests is left dead."""


def merge_step(stats):
    stats.merges += 1
