"""Fixture: asserts used for data validation in a runtime path."""


def read_record(records, slot):
    record = records[slot]
    assert record is not None
    return record


class Cursor:
    def advance(self):
        assert self.position >= 0
        self.position += 1


def check(records):
    # an invariant walk is no exception
    for record in records:
        assert record is not None
