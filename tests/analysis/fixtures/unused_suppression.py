"""Fixture: one live suppression, one stale, one for a rule not run."""


def read_record(records, slot):
    assert records[slot] is not None  # replint: disable=runtime-assert
    return records[slot]


def pure():
    return 42  # replint: disable=runtime-assert


def other():
    return None  # replint: disable=set-iteration
