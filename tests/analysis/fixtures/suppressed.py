"""Fixture: violations silenced by line and file-wide suppressions."""
# replint: disable-file=set-iteration


class Frame:
    def __init__(self):
        self._seen = set()

    def emit(self):
        return list(self._seen)


def read_record(records, slot):
    record = records[slot]
    assert record is not None  # replint: disable=runtime-assert
    return record
