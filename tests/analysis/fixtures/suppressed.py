"""Fixture: violations silenced by line and file-wide suppressions."""
# replint: disable-file=feature-gate


class Frame:
    def emit(self):
        self.tracer.cluster_read(1)


def read_record(records, slot):
    record = records[slot]
    assert record is not None  # replint: disable=runtime-assert
    return record
