"""Fixture: violations silenced by line and file-wide suppressions."""
# replint: disable-file=slots


class Frame:
    def __init__(self, page):
        self.page = page

    def emit(self):
        self.tracer.cluster_read(1)  # replint: disable=feature-gate


def read_record(records, slot):
    record = records[slot]
    assert record is not None  # replint: disable=runtime-assert
    return record
